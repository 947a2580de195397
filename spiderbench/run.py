"""SpiderMine end-to-end benchmark: one workload, one seed, one JSON line.

    python3 spiderbench/run.py --workload fig11-random --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it are a readable report.  Run records (metrics, layer spans, request
steps) go to ``.spiderbench/records/``; nothing tracked is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".spiderbench"

sys.path.insert(0, str(HERE))


def parse(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the served load (the mining passes are fixed work)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"spiderbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import pipeline
    from workloads import WORKLOADS

    # With two or more CPUs the benchmark (miner + load generator) and the
    # server each keep one, so neither is migrated onto the other's.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = None
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:-1])
        server_cpus = cpus[-1:]
    workload = WORKLOADS[args.workload]
    record = pipeline.run(workload, args.seed, args.seconds, bool(args.trace), OUT, SRC,
                          workers=len(cpus), server_cpus=server_cpus)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    pipeline.dump(record, OUT / "records" / name)

    shown = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"digest={record['code_digest']}")
    for note in record["notes"]:
        print(f"# failed: {note}")
    mix = record["stage_mix"]
    print("# mine mix: " + " ".join(f"{k}={v:.1%}" for k, v in mix.items()))
    for name, (value, unit) in record["end_to_end"].items():
        print(f"{name:28s} {value:14.4f} {unit}")
    if args.trace:
        for name, (value, unit) in shown.items():
            print(f"{name:28s} {value:14.4f} {unit}")

    metrics = {}
    names = [m["name"] for m in _declared("per_layer" if args.trace else "end_to_end")]
    for name in names:
        value, unit = shown[name]
        if not math.isfinite(value):
            record["failed"] += 1
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def _declared(kind: str):
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
