"""Summarise the run records into ``spiderbench/RECORD.json``.

    python3 spiderbench/record.py

Reads every ``.spiderbench/records/*.json`` a benchmark run left and writes,
per workload, its parameters, graph seeds and reason, the median and spread
(interquartile range over median) of each end-to-end metric, the shape
digests seen, and the layer mix: the share of mine time in Stage I, outside
every stage span, and in canonical labelling.  Host facts (``nproc``, Python
and numpy versions) and the traced run's overhead ride along.  The benchmark
itself never writes this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RECORDS = HERE.parent / ".spiderbench" / "records"


def spread(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else None


def summarise(name, records):
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    out = {"why": WORKLOADS[name].why, "params": WORKLOADS[name].params(),
           "seeds_run": sorted({r["seed"] for r in records}),
           "code_digests": sorted({r["code_digest"] for r in records})}
    if plain:
        metrics = {}
        for metric in plain[0]["end_to_end"]:
            values = [r["end_to_end"][metric][0] for r in plain]
            metrics[metric] = {"median": statistics.median(values), "spread": spread(values),
                               "unit": plain[0]["end_to_end"][metric][1], "runs": len(values)}
        out["end_to_end"] = metrics
        out["stage_mix_untraced"] = {
            stage: statistics.median(r["stage_mix"][stage] for r in plain)
            for stage in plain[0]["stage_mix"]
        }
    if traced:
        def share(record, metric):
            return record["per_layer"][metric][0] / record["traced_mine_s"]

        out["layer_mix_traced"] = {
            metric: statistics.median(share(r, metric) for r in traced)
            for metric in ("stage1.s", "mine.unspanned.s", "canonical.code.s")
        }
        out["trace_overhead_ratio"] = statistics.median(
            r["per_layer"]["trace.overhead_ratio"][0] for r in traced)
        out["traced_digest_matches"] = all(
            r["traced_code_digest"] == r["code_digest"] for r in traced)
        out["per_layer_traced"] = {
            k: v[0] for k, v in traced[-1]["per_layer"].items()}
    return out


def main() -> int:
    import numpy

    records = [json.loads(p.read_text()) for p in sorted(RECORDS.glob("*.json"))]
    if not records:
        print(f"no run records under {RECORDS}", file=sys.stderr)
        return 1
    summary = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "workloads": {
            name: summarise(name, [r for r in records if r["workload"] == name])
            for name in WORKLOADS if any(r["workload"] == name for r in records)
        },
    }
    (HERE / "RECORD.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'RECORD.json'} from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
