"""One benchmark run: generate → mine → store → warm read → serve, then metrics.

Every mined result is checked (:mod:`check`) before its time is used; a
failed check, a cache hit that differs from the fresh result, a served answer
that differs from the facade's, a non-200 or a timeout is a failed operation,
never a crash.

An untraced run measures in ``ROUNDS`` rounds (mining pass, warm reads, a
slice of the low-rate load) so every time metric is sampled at several
points of the run; on a host whose speed drifts for seconds at a time, that
is what keeps runs comparable.  A traced run mines once untraced, once with
the layer wrappers installed (the two shape digests must agree), then offers
the low, high and top rates in turn.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import check
import loadgen
import tracing
from serving import Server, request_pool
from workloads import LIMIT_MS, MINE, Workload

SETUP_REPS = 3
ROUNDS = 3
#: Warm (cache-hit) reads per run, spread evenly over graphs and rounds.
WARM_READS = 450
POOL_SIZE = 200
#: Share of ``--seconds`` given to the low, high and top rate steps of a
#: traced run; an untraced run offers only the low rate, for all of it.
STEP_SHARES = (0.4, 0.4, 0.2)

_clock = time.perf_counter


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def op(self, ok: bool, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)
        return ok


def _config(store=None, mode="readwrite"):
    from repro.core import SpiderMineConfig
    from repro.core.config import CachePolicy

    config = SpiderMineConfig(**MINE)
    return replace(config, cache=CachePolicy.at(store, mode=mode)) if store else config


def _mine_all(graphs, tally: Tally, rec=None, seeds=()):
    """Mine every graph once (fig-test configuration: serial, csr, no cache)."""
    from repro.core import SpiderMine

    results, seconds = [], []
    for index, graph in enumerate(graphs):
        scope = rec.in_scope(f"mine.{seeds[index]}") if rec is not None else nullcontext()
        start = _clock()
        with scope:
            result = SpiderMine(graph, _config()).mine()
        seconds.append(_clock() - start)
        found = check.problems(graph, result.patterns, MINE["min_support"], MINE["k"],
                               MINE["d_max"])
        tally.op(not found, "; ".join(found[:3]))
        results.append(result)
    return results, seconds


def _store(graphs, results, store: Path) -> float:
    from repro.catalog.cache import RunCache

    start = _clock()
    cache = RunCache(store)
    for graph, result in zip(graphs, results):
        cache.store_result(graph, _config(store), result)
    return _clock() - start


def _warm(graphs, results, store: Path, reads: int, best: Dict[int, float],
          tally: Tally) -> None:
    """Cache-hit mines; keeps each graph's fastest read in ``best``."""
    from repro.core import SpiderMine

    for _ in range(max(1, -(-reads // len(graphs)))):
        for index, (graph, result) in enumerate(zip(graphs, results)):
            start = _clock()
            hit = SpiderMine(graph, _config(store, mode="readonly")).mine()
            elapsed = (_clock() - start) * 1000.0
            ok = (hit.cache_info or {}).get("status") == "hit" and (
                hit.digest() == result.digest())
            if tally.op(ok, "warm read is not a hit equal to the fresh result"):
                best[index] = min(elapsed, best.get(index, elapsed))


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run(w: Workload, seed: int, seconds: float, trace: bool, out: Path,
        src: Path, workers: int, server_cpus=None) -> Dict:
    work = out / f"run-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    servers: List[Server] = []
    try:
        return _run(w, seed, seconds, trace, work, src, workers, tally, servers, server_cpus)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def _run(w, seed, seconds, trace, work, src, workers, tally, servers, server_cpus) -> Dict:
    from repro.api import open_catalog

    record: Dict = {"workload": w.name, "seed": seed, "trace": trace}

    # -- set-up 1/3: generate and freeze the graph set ---------------------
    gen_s, freeze_s = [], []
    for _ in range(SETUP_REPS):
        start = _clock()
        datasets = [w.generate(gs) for gs in w.graph_seeds]
        mid = _clock()
        graphs = [d.graph.freeze() for d in datasets]
        gen_s.append(_clock() - start)
        freeze_s.append(_clock() - mid)

    results, first_s = _mine_all(graphs, tally)
    passes = [first_s]
    digest = record["code_digest"] = check.code_digest(results)

    rec = tracing.Recorder() if trace else None
    best: Dict[int, float] = {}
    if trace:
        undo = tracing.install(rec)
        try:
            traced, traced_s = _mine_all(graphs, tally, rec, w.graph_seeds)
            record["traced_code_digest"] = check.code_digest(traced)
            record["traced_mine_s"] = sum(traced_s)
            tally.op(record["traced_code_digest"] == digest,
                     "traced digest differs from untraced")
            with rec.in_scope("store"):
                store_s = [_store(graphs, results, work / f"store{i}")
                           for i in range(SETUP_REPS)]
            with rec.in_scope("warm"):
                _warm(graphs, results, work / f"store{SETUP_REPS - 1}", WARM_READS, best,
                      tally)
        finally:
            tracing.uninstall(undo)
    else:
        # -- set-up 2/3: write the results into fresh stores ---------------
        store_s = [_store(graphs, results, work / f"store{i}") for i in range(SETUP_REPS)]
    store = work / f"store{SETUP_REPS - 1}"

    # -- set-up 3/3: start the server until /healthz answers ---------------
    start_s = []
    for rep in range(SETUP_REPS):
        start = _clock()
        server = Server(store, src, server_cpus)
        servers.append(server)
        start_s.append(_clock() - start)
        if rep < SETUP_REPS - 1:
            server.stop()
    setup = [g + s + t for g, s, t in zip(gen_s, store_s, start_s)]

    # -- parity before any clock: every request of the pool, once ----------
    catalog = open_catalog(store, read_only=True)
    requests, expected = request_pool(catalog, random.Random(seed), POOL_SIZE)
    for request, answer in zip(requests, expected):
        status, body = server.request(*request)
        tally.op(status == 200 and body == answer,
                 f"parity: {request[0]} {request[1]} answered {status}")
    sent = [0]

    def send(i: int) -> bool:
        index = (sent[0] + i) % len(requests)
        status, body = server.request(*requests[index])
        return status == 200 and body == expected[index]

    def step(rate: float, length: float) -> loadgen.Step:
        done = loadgen.run_step(send, rate, length, workers, LIMIT_MS)
        sent[0] += done.attempted
        tally.attempted += done.attempted
        tally.failed += done.failures
        return done

    if trace:
        steps = [step(rate, seconds * share)
                 for rate, share in zip((w.low_rps, w.high_rps, w.top_rps), STEP_SHARES)]
        low = steps[0]
    else:
        # -- the measured rounds -------------------------------------------
        steps = []
        for round_index in range(ROUNDS):
            if 0 < round_index < w.mine_passes:
                again, again_s = _mine_all(graphs, tally)
                tally.op(check.code_digest(again) == digest, "repeated mining pass differs")
                passes.append(again_s)
            _warm(graphs, results, store, WARM_READS // ROUNDS, best, tally)
            steps.append(step(w.low_rps, seconds / ROUNDS))
        low = loadgen.Step(rate=w.low_rps, limit_ms=LIMIT_MS)
        for part in steps:
            low.latencies_ms += part.latencies_ms
            low.lags_ms += part.lags_ms
            low.failures += part.failures

    stats, flat = server.json("/stats"), server.json("/metrics")
    rss = server.peak_rss_mb() if w.rss_of == "server" else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    # Host noise only ever adds time: per graph the fastest pass / read counts.
    mine_s = [min(times) for times in zip(*passes)]
    record["mine_passes_s"] = [sum(times) for times in passes]
    record["stage_mix"] = _stage_mix(results, first_s)
    lags = low.lags_ms + (steps[1].lags_ms if trace else [])
    serving = {"p50_ms.low": (low.p(50), "ms"), "p99_ms.low": (low.p(99), "ms")}
    if trace:
        met = [s.rate for s in steps if s.met]
        serving.update({
            "p50_ms.high": (steps[1].p(50), "ms"),
            "p99_ms.high": (steps[1].p(99), "ms"),
            "max_rps": (max(met) if met else 0.0, "1/s"),
        })
    record["end_to_end"] = {
        "setup_s": (statistics.median(setup), "s"),
        "mine_s": (sum(mine_s), "s"),
        "cache_hit_ms": (statistics.median(best.values()), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "largest_vertices": (sum(r.patterns[0].num_vertices for r in results if r.patterns),
                             "count"),
        "topk_vertices": (sum(p.num_vertices for r in results for p in r.patterns), "count"),
        **serving,
        "failed_ratio": (tally.failed / max(1, tally.attempted), "ratio"),
        "gen.lag_p99_ms": (loadgen.percentile(lags, 99), "ms"),
    }
    record["steps"] = [
        {"rate": s.rate, "attempted": s.attempted, "failures": s.failures, "met": s.met,
         "p50_ms": s.p(50), "p99_ms": s.p(99), "lag_p99_ms": loadgen.percentile(s.lags_ms, 99)}
        for s in steps
    ]
    if trace:
        record["per_layer"] = {
            **_per_layer(rec, traced, sum(traced_s) / sum(first_s), freeze_s, store,
                         len(graphs), stats, flat),
            **{name: record["end_to_end"][name] for name in (
                "p99_ms.low", "p50_ms.high", "p99_ms.high", "max_rps", "gen.lag_p99_ms")},
        }
        record["spans"] = rec.to_dict()
    record["attempted"], record["failed"], record["notes"] = (
        tally.attempted, tally.failed, tally.notes)
    return record


def _stage_mix(results, seconds) -> Dict[str, float]:
    """Share of mine wall time per stage span and outside them."""
    wall = sum(seconds)
    stages = {"stage1_spiders": 0.0, "stage2_identification": 0.0, "stage3_recovery": 0.0}
    for result in results:
        for name in stages:
            stages[name] += result.statistics.stage_durations.get(name, 0.0)
    mix = {name: value / wall for name, value in stages.items()}
    mix["unspanned"] = 1.0 - sum(mix.values())
    return mix


def _per_layer(rec, traced, overhead, freeze_s, store, runs, stats, flat) -> Dict:
    totals = rec.totals()
    counters = rec.counters

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    out: Dict = {}

    def span(metric):
        out[f"{metric}.calls"] = (calls(metric), "count")
        out[f"{metric}.s"] = (self_s(metric), "s")

    stage_total = sum(total_s(f"mine.stage{i}") for i in (1, 2, 3))
    out["stage1.s"] = (total_s("mine.stage1"), "s")
    out["stage1.spiders"] = (sum(r.statistics.num_spiders for r in traced), "count")
    span("spider.head_code")
    span("support.is_frequent")
    out["support.frequent_ratio"] = (
        counters.get("support.frequent", 0) / max(1, counters.get("support.tested", 0)), "ratio")
    span("overlap.conflict_graph")
    span("overlap.mis")
    span("growth.grow")
    out["growth.candidates"] = (
        sum(r.statistics.num_candidates_generated for r in traced), "count")
    span("growth.occurrence_code")
    span("growth.occurrence_support")
    out["mine.unspanned.s"] = (total_s("mine") - stage_total, "s")
    span("report.to_pattern")
    span("report.diameter")
    span("canonical.code")
    span("iso.pattern")
    span("iso.data")
    out["iso.candidate_tests"] = (counters.get("iso.candidate_tests", 0), "count")
    span("kernels")
    out["freeze.s"] = (statistics.median(freeze_s), "s")
    span("cache.store")
    out["cache.load.ms"] = (1000.0 * total_s("cache.load") / max(1, calls("cache.load")), "ms")
    out["graph_digest.ms"] = (
        1000.0 * total_s("graph_digest") / max(1, calls("cache.load") + calls("cache.store")),
        "ms")
    out["store.bytes_per_run"] = (_dir_bytes(Path(store)) / runs, "bytes")

    index = stats["index_stats"]
    caches = stats["caches"]
    out["query.seed_checks"] = (index["seed_checks"], "count")
    out["query.seed_rejection_ratio"] = (
        index["seed_rejections"] / max(1, index["seed_checks"]), "ratio")
    out["query.matcher_calls"] = (index["matcher_calls"], "count")
    out["query.payload_loads"] = (index["payload_loads"], "count")
    for cache_name in ("payload", "index"):
        c = caches[cache_name]
        out[f"lru.{cache_name}.hit_ratio"] = (c["hits"] / max(1, c["hits"] + c["misses"]),
                                              "ratio")
    for route in ("top_k", "label", "contains", "contains_batch"):
        count = flat.get(f"http.latency_seconds.{route}.count", 0)
        total = flat.get(f"http.latency_seconds.{route}.sum", 0.0)
        out[f"server.{route}.mean_ms"] = (1000.0 * total / max(1, count), "ms")
    out["server.requests"] = (flat.get("http.requests", 0), "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def dump(record: Dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=list))
