#!/usr/bin/env python3
"""Perf smoke test: graph backends, the parallel engine, the catalog, the
overlap engine, the candidate-domain subgraph matcher, the vectorized
numpy kernel layer, the catalog serving tier and the telemetry layer.

Eight measurement suites:

* **backend** — dict vs csr on (a) a BFS-distance sweep from a fixed sample
  of sources and (b) a light Stage-I spider-mining pass over one
  Barabási–Albert power-law graph; written to ``BENCH_graph_backend.json``.
* **parallel** — serial vs ``--workers N`` process-pool execution of a heavy
  Stage-I pass (the embarrassingly parallel stage the engine fans out);
  written to ``BENCH_parallel_mining.json`` together with the host CPU count,
  because the achievable speedup is bounded by physical cores.
* **catalog** — cold full SpiderMine run (mine + store into a fresh catalog)
  vs warm cache hit of the same key, plus catalog query latency; written to
  ``BENCH_catalog.json``.  The warm hit must re-serve a result with the
  *same digest* as the cold mine — asserted before timing is trusted.
* **overlap** — inverted-index conflict-graph construction
  (``repro.patterns.overlap.EmbeddingIndex``) vs the O(n²) all-pairs
  reference on a dense label class of a two-label random graph; written to
  ``BENCH_overlap_index.json``.  Wall-clock on a loaded runner is noisy, so
  the JSON also records the *asymptotic* counters: all-pairs intersection
  tests vs posting pair touches, i.e. the pair tests the index provably never
  performs.  The two constructions must produce identical conflict graphs —
  the suite asserts digest parity (``conflict_digest``) and prints
  ``overlap parity: ok`` for the CI gate to grep.
* **matcher** — the candidate-domain subgraph matcher vs the pre-refactor
  reference (``repro.graph._matcher_reference``) on a dense two-label ER
  graph, free search plus the Stage-I-shaped anchored batch (every head
  anchor of a label, one domain build); written to ``BENCH_matcher.json``.
  Wall-clock on a loaded runner is noisy, so the JSON records the
  *asymptotic* counters — per-candidate feasibility tests performed by each
  engine, i.e. the tests domain filtering and the anchored BFS order provably
  eliminate — and asserts the dense-class elimination stays ≥ 80%.  Embedding
  parity is digest-checked (``matcher_digest``) across the reference, the
  dict path and the CSR index-space path (plus dict-path *sequence* equality,
  the invariant that keeps mining digests stable), and the suite prints
  ``matcher parity: ok`` for the CI gate to grep.  Free-search timings are
  best-of-``TIMING_REPEATS`` and the vectorized CSR path must not be
  slower than the reference engine (full profile; the quick CI graph is
  too small to amortise the kernel precompute and gets
  ``QUICK_GATE_SLACK`` headroom) — the regression gate the kernel layer
  exists to pass.
* **kernels** — the numpy kernel layer (``repro.graph.kernels``): the
  kernel-backed CSR free search vs the reference engine (digest parity and
  an ascending index-space sequence asserted), plus per-kernel
  micro-timings (domain seeding, arc consistency, sorted intersection, bulk
  row filtering, posting-pair merge) against naive scalar references on
  inputs lifted from the same dense-class workload;
  written to ``BENCH_kernels.json``.  Every kernel's output is parity-checked
  before its clock is trusted, and the suite prints ``kernel parity: ok``
  for the CI gate to grep.
* **serving** — the catalog serving tier: batch containment over the
  persisted needle-side pattern index vs the pre-index cold path (fresh
  process per needle, domains re-seeded per (pattern, needle) pair), plus a
  live ``repro serve`` HTTP round trip whose ``/contains/batch`` response
  must be byte-identical to serialising the facade's answer; written to
  ``BENCH_serving.json``.  Result parity (indexed vs unindexed vs HTTP) is
  asserted before any clock is trusted, the full profile additionally gates
  indexed < cold, and the suite prints ``serve parity: ok`` for CI to grep.
* **obs** — the ``repro.obs`` telemetry layer's overhead budget: full
  SpiderMine runs with telemetry off (the ``NullRegistry``/``NullTracer``
  defaults) vs fully instrumented (live registry *and* span tracer), best-of
  repeats; written to ``BENCH_obs.json``.  Result digests must be
  bit-identical across off/metrics/metrics+trace — the suite prints
  ``telemetry parity: ok`` for the CI gate to grep — and on the full
  profile the instrumented wall-clock must stay within
  ``OBS_MAX_OVERHEAD`` (2%) of the uninstrumented run (the quick CI graph
  mines in well under a second, where scheduler noise dwarfs the
  instrumentation, so quick only asserts parity).

Run:  python benchmarks/perf_smoke.py             (full, ~minutes)
      python benchmarks/perf_smoke.py --quick     (CI smoke, small graph)

All profiles assert result parity — backends must agree, parallel runs must
be bit-identical to serial, cache hits bit-identical to cold mines — before
trusting the clock, so the smoke doubles as an end-to-end integration check.
Not collected by pytest (no ``test_`` prefix): timings carry no thresholds;
CI only requires this script to finish and uploads the JSON as an artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import CachePolicy, SpiderMine, SpiderMineConfig  # noqa: E402
from repro.api import open_catalog  # noqa: E402
from repro.core import mine_spiders  # noqa: E402
from repro.graph import (  # noqa: E402
    barabasi_albert_graph,
    erdos_renyi_graph,
    freeze,
    synthetic_single_graph,
)
from repro.parallel import ExecutionPolicy  # noqa: E402

EDGES_PER_VERTEX = 2
NUM_LABELS = 40
SEED = 7
BACKEND_RESULT_PATH = REPO_ROOT / "BENCH_graph_backend.json"
PARALLEL_RESULT_PATH = REPO_ROOT / "BENCH_parallel_mining.json"
CATALOG_RESULT_PATH = REPO_ROOT / "BENCH_catalog.json"
OVERLAP_RESULT_PATH = REPO_ROOT / "BENCH_overlap_index.json"
MATCHER_RESULT_PATH = REPO_ROOT / "BENCH_matcher.json"
KERNELS_RESULT_PATH = REPO_ROOT / "BENCH_kernels.json"
SERVING_RESULT_PATH = REPO_ROOT / "BENCH_serving.json"
OBS_RESULT_PATH = REPO_ROOT / "BENCH_obs.json"

#: Repetitions for best-of wall-clock measurements (shared-host noise makes
#: single-shot comparisons meaningless; the minimum is the honest signal).
TIMING_REPEATS = 5

#: Free-search wall-clock gate: on the full profile the vectorized CSR path
#: must beat the pre-domain reference outright; the quick CI graph is too
#: small to amortise the domain-build/candidate-adjacency precompute, so
#: there it only has to stay within this factor of the reference — still a
#: hard stop for gross regressions like the pre-kernel 1.8x loss.
QUICK_GATE_SLACK = 1.5


def assert_free_search_gate(profile, csr_seconds, ref_seconds):
    bound = ref_seconds if profile == "full" else ref_seconds * QUICK_GATE_SLACK
    assert csr_seconds <= bound, (
        f"free-search regression ({profile}): vectorized csr "
        f"{csr_seconds:.4f}s exceeds the reference bound {bound:.4f}s "
        f"(reference {ref_seconds:.4f}s)"
    )

#: profile -> (graph vertices, free-search embedding cap) for the matcher
#: suite; one-in-ten vertices carries the rare label so the dense class
#: dominates and the anchored workload sweeps thousands of head anchors.
MATCHER_PROFILES = {
    "full": (3000, 20000),
    "quick": (800, 20000),
}
MATCHER_MIN_ELIMINATED = 0.80

#: profile -> (graph vertices, embedding cap) for the overlap suite; two
#: labels make one label class dense enough that a path pattern has
#: thousands of embeddings, while the flat Erdős–Rényi degree distribution
#: keeps their overlap realistic (each embedding conflicts with a local
#: handful, not with everything through one hub).
OVERLAP_PROFILES = {
    "full": (3000, 2000),
    "quick": (800, 600),
}

#: profile -> (num_vertices, num_labels, large patterns, mining config kwargs)
CATALOG_PROFILES = {
    "full": (2000, 120, 4, dict(min_support=2, k=6, d_max=6, seed=0)),
    "quick": (500, 60, 2, dict(min_support=2, k=4, d_max=6, seed=0)),
}
QUERY_REPEATS = 50

#: profile -> (graph kwargs like CATALOG_PROFILES, number of batch needles)
SERVING_PROFILES = {
    "full": (2000, 120, 4, dict(min_support=2, k=6, d_max=6, seed=0), 24),
    "quick": (500, 60, 2, dict(min_support=2, k=4, d_max=6, seed=0), 8),
}

#: profile -> (graph kwargs like CATALOG_PROFILES, best-of repeat count)
OBS_PROFILES = {
    "full": (2000, 120, 4, dict(min_support=2, k=6, d_max=6, seed=0), 3),
    "quick": (500, 60, 2, dict(min_support=2, k=4, d_max=6, seed=0), 2),
}

#: Telemetry overhead budget: instrumented mining (live registry + tracer)
#: may cost at most this fraction over the uninstrumented run, gated on the
#: full profile only (quick graphs mine too fast to measure 2% honestly).
OBS_MAX_OVERHEAD = 0.02

#: profile -> (num_vertices, bfs_sources,
#:             backend stage1 (support, size, emb cap),
#:             parallel stage1 (support, size, emb cap))
PROFILES = {
    "full": (100_000, 25, (60, 3, 100), (30, 4, 400)),
    "quick": (10_000, 5, (30, 3, 100), (12, 4, 200)),
}


def spider_digest(spiders) -> str:
    """Process-independent fingerprint of a Stage-I result, order included."""
    blob = "\n".join(
        f"{s.spider_code()}|{len(s.embeddings)}" for s in spiders
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def time_bfs_sweep(graph, sources):
    from repro.graph import bfs_distances

    start = time.perf_counter()
    checksum = 0
    for source in sources:
        checksum += len(bfs_distances(graph, source))
    return time.perf_counter() - start, checksum


def time_stage1(graph, params, execution=None):
    support, size, emb_cap = params
    start = time.perf_counter()
    spiders = mine_spiders(
        graph,
        min_support=support,
        radius=1,
        max_spider_size=size,
        max_embeddings_per_pattern=emb_cap,
        execution=execution,
    )
    return time.perf_counter() - start, spiders


def run_backend_suite(profile, mutable, frozen, freeze_time, graph_meta):
    num_vertices, bfs_sources, stage1_params, _ = PROFILES[profile]
    sources = list(range(0, num_vertices, num_vertices // bfs_sources))[:bfs_sources]
    results = {}
    for name, graph in (("dict", mutable), ("csr", frozen)):
        bfs_seconds, checksum = time_bfs_sweep(graph, sources)
        stage1_seconds, spiders = time_stage1(graph, stage1_params)
        results[name] = {
            "bfs_sweep_seconds": round(bfs_seconds, 4),
            "bfs_checksum": checksum,
            "stage1_seconds": round(stage1_seconds, 4),
            "stage1_spiders": len(spiders),
            "stage1_digest": spider_digest(spiders),
        }
        print(
            f"{name:>4}: BFS sweep {bfs_seconds:.2f}s over {len(sources)} sources, "
            f"Stage I {stage1_seconds:.2f}s ({len(spiders)} spiders)",
            flush=True,
        )

    # Both backends must agree before the timings mean anything.
    assert results["dict"]["bfs_checksum"] == results["csr"]["bfs_checksum"]
    assert results["dict"]["stage1_digest"] == results["csr"]["stage1_digest"]

    payload = {
        "benchmark": "graph_backend_perf_smoke",
        "profile": profile,
        "graph": graph_meta,
        "freeze_seconds": round(freeze_time, 4),
        "stage1_params": {
            "min_support": stage1_params[0],
            "max_spider_size": stage1_params[1],
            "max_embeddings_per_pattern": stage1_params[2],
        },
        "backends": results,
        "speedup": {
            "bfs_sweep": round(
                results["dict"]["bfs_sweep_seconds"] / results["csr"]["bfs_sweep_seconds"], 2
            ),
            "stage1": round(
                results["dict"]["stage1_seconds"] / results["csr"]["stage1_seconds"], 2
            ),
        },
    }
    BACKEND_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"backend speedup: BFS {payload['speedup']['bfs_sweep']}x, "
        f"Stage I {payload['speedup']['stage1']}x — written to {BACKEND_RESULT_PATH.name}"
    )


def run_parallel_suite(profile, frozen, workers, graph_meta):
    _, _, _, stage1_params = PROFILES[profile]
    print(f"parallel suite: serial vs {workers} workers ...", flush=True)
    serial_seconds, serial_spiders = time_stage1(frozen, stage1_params)
    serial_digest = spider_digest(serial_spiders)
    print(
        f"serial:     {serial_seconds:.2f}s ({len(serial_spiders)} spiders)", flush=True
    )
    parallel_seconds, parallel_spiders = time_stage1(
        frozen, stage1_params, execution=ExecutionPolicy.process_pool(workers)
    )
    parallel_digest = spider_digest(parallel_spiders)
    print(
        f"{workers} workers:  {parallel_seconds:.2f}s ({len(parallel_spiders)} spiders)",
        flush=True,
    )

    # The determinism guarantee, end to end, before any timing is recorded.
    assert parallel_digest == serial_digest, "parallel mining diverged from serial"

    speedup = round(serial_seconds / parallel_seconds, 2)
    payload = {
        "benchmark": "parallel_mining_perf_smoke",
        "profile": profile,
        "graph": graph_meta,
        "stage1_params": {
            "min_support": stage1_params[0],
            "max_spider_size": stage1_params[1],
            "max_embeddings_per_pattern": stage1_params[2],
        },
        "workers": workers,
        "host_cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": speedup,
        "spiders": len(serial_spiders),
        "result_digest": serial_digest,
        "note": (
            "end-to-end Stage-I mining, serial vs process pool sharing one "
            "zero-copy CSR snapshot; speedup is bounded by host_cpu_count — "
            "a single-core host cannot exceed ~1x regardless of workers"
        ),
    }
    PARALLEL_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"parallel speedup: {speedup}x at {workers} workers "
        f"on {os.cpu_count()} CPU(s) — written to {PARALLEL_RESULT_PATH.name}"
    )


def run_catalog_suite(profile):
    """Cold mine-and-store vs warm cache hit, plus query latency."""
    num_vertices, labels, num_large, mine_kwargs = CATALOG_PROFILES[profile]
    print(
        f"catalog suite: synthetic graph |V|={num_vertices}, cold vs warm ...",
        flush=True,
    )
    data = synthetic_single_graph(
        num_vertices=num_vertices,
        num_labels=labels,
        average_degree=2.0,
        num_large_patterns=num_large,
        large_pattern_vertices=12,
        large_pattern_support=2,
        num_small_patterns=4,
        small_pattern_vertices=3,
        small_pattern_support=2,
        seed=SEED,
    )
    graph = freeze(data.graph)

    with tempfile.TemporaryDirectory(prefix="bench-catalog-") as store_dir:
        config = SpiderMineConfig(cache=CachePolicy.at(store_dir), **mine_kwargs)

        start = time.perf_counter()
        cold = SpiderMine(graph, config).mine()
        cold_seconds = time.perf_counter() - start
        assert cold.cache_info["status"] == "stored"
        print(
            f"cold mine+store: {cold_seconds:.2f}s "
            f"({len(cold.patterns)} patterns, largest |V|={cold.largest_size_vertices})",
            flush=True,
        )

        start = time.perf_counter()
        warm = SpiderMine(graph, config).mine()
        warm_seconds = time.perf_counter() - start
        assert warm.cache_info["status"] == "hit"
        # The guarantee the whole subsystem rests on, end to end.
        assert warm.digest() == cold.digest(), "cache hit diverged from cold mine"
        print(f"warm cache hit:  {warm_seconds:.4f}s (digest verified)", flush=True)

        query = open_catalog(store_dir).query
        start = time.perf_counter()
        for _ in range(QUERY_REPEATS):
            top = query.top_k(mine_kwargs["k"], by="vertices")
        query_seconds = (time.perf_counter() - start) / QUERY_REPEATS
        assert top
        print(
            f"top-k query:     {query_seconds * 1000:.2f}ms averaged over "
            f"{QUERY_REPEATS} calls",
            flush=True,
        )

    payload = {
        "benchmark": "catalog_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "synthetic_single_graph",
            "num_vertices": num_vertices,
            "num_labels": labels,
            "num_large_patterns": num_large,
            "seed": SEED,
        },
        "mining_config": mine_kwargs,
        "cold_mine_seconds": round(cold_seconds, 4),
        "warm_hit_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 1),
        "query_top_k_seconds": round(query_seconds, 6),
        "query_repeats": QUERY_REPEATS,
        "num_patterns": len(cold.patterns),
        "result_digest": cold.digest()[:16],
        "note": (
            "cold = full SpiderMine + catalog insert into a fresh store; warm = "
            "content-addressed cache hit of the same (graph, config, version) "
            "key, asserted bit-identical (same result digest) before timing; "
            "query = CatalogQuery.top_k over the stored run's index summaries"
        ),
    }
    CATALOG_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"catalog speedup: {payload['speedup']}x warm over cold — "
        f"written to {CATALOG_RESULT_PATH.name}"
    )


def run_overlap_suite(profile):
    """Index-built vs all-pairs conflict graphs on a dense label class."""
    from repro.graph import LabeledGraph
    from repro.patterns import EmbeddingIndex, Pattern, conflict_digest

    num_vertices, embedding_cap = OVERLAP_PROFILES[profile]
    print(
        f"overlap suite: |V|={num_vertices} two-label ER graph, "
        f"up to {embedding_cap} embeddings ...",
        flush=True,
    )
    graph = erdos_renyi_graph(num_vertices, 4.0, 2, seed=SEED)
    # A 2-edge path inside the dense label class: its embeddings overlap on
    # shared middle/end vertices AND on shared data edges, so both conflict
    # notions are exercised non-trivially.
    pattern_graph = LabeledGraph()
    label = graph.label(0)  # the generator's labels cycle, so label 0 is dense
    for i in range(3):
        pattern_graph.add_vertex(i, label)
    pattern_graph.add_edge(0, 1)
    pattern_graph.add_edge(1, 2)
    pattern = Pattern(graph=pattern_graph)
    pattern.recompute_embeddings(graph, limit=embedding_cap)
    embeddings = pattern.embeddings
    print(f"dense class: {len(embeddings)} distinct-image embeddings", flush=True)

    results = {}
    for name, edge_based in (("vertex_conflict", False), ("edge_conflict", True)):
        index = EmbeddingIndex.from_embeddings(embeddings, pattern.graph)
        _ = index.images(edge_based)  # image memoisation outside the clock
        start = time.perf_counter()
        fast = index.conflict_graph(edge_based=edge_based)
        index_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reference = index.conflict_graph_all_pairs(edge_based=edge_based)
        all_pairs_seconds = time.perf_counter() - start
        fast_digest = conflict_digest(fast)
        assert fast_digest == conflict_digest(reference), (
            f"overlap parity FAILED ({name}): index-built conflict graph "
            "diverged from the all-pairs reference"
        )
        stats = index.pair_stats(edge_based=edge_based, conflict=fast)
        results[name] = {
            "index_seconds": round(index_seconds, 4),
            "all_pairs_seconds": round(all_pairs_seconds, 4),
            "speedup": round(all_pairs_seconds / max(index_seconds, 1e-9), 2),
            "parity_digest": fast_digest,
            **stats,
        }
        print(
            f"{name}: index {index_seconds:.3f}s vs all-pairs "
            f"{all_pairs_seconds:.3f}s ({results[name]['speedup']}x); "
            f"{stats['pair_tests_avoided']} of {stats['all_pairs_tests']} "
            f"pair tests avoided",
            flush=True,
        )

    payload = {
        "benchmark": "overlap_index_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "erdos_renyi",
            "num_vertices": num_vertices,
            "num_edges": graph.num_edges,
            "average_degree": 4.0,
            "num_labels": 2,
            "seed": SEED,
        },
        "pattern": "two-edge path in the dense label class",
        "num_embeddings": len(embeddings),
        **results,
        "note": (
            "index-built vs all-pairs conflict-graph construction over the "
            "same memoised images, digest-verified identical; on a "
            "single-CPU shared host the asymptotic counters (pair_tests_"
            "avoided = all-pairs intersection tests the inverted index never "
            "performs) are the stable signal, wall-clock is corroboration"
        ),
    }
    OVERLAP_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # Reached only when every per-notion digest assert above passed.
    print(
        f"overlap parity: ok "
        f"(vertex digest {results['vertex_conflict']['parity_digest']}, "
        f"edge digest {results['edge_conflict']['parity_digest']}) — "
        f"written to {OVERLAP_RESULT_PATH.name}"
    )


def best_of(make_engine, run):
    """Best-of-``TIMING_REPEATS`` wall-clock for ``run(make_engine())``.

    Returns ``(seconds, result, engine)`` — the minimum time, plus the last
    repeat's result and engine so callers can read counters off it.
    """
    seconds = []
    result = engine = None
    for _ in range(TIMING_REPEATS):
        engine = make_engine()
        start = time.perf_counter()
        result = run(engine)
        seconds.append(time.perf_counter() - start)
    return min(seconds), result, engine


def run_matcher_suite(profile):
    """Domain matcher vs pre-refactor reference on a dense two-label class."""
    from repro.graph import LabeledGraph, SubgraphMatcher, matcher_digest
    from repro.graph._matcher_reference import ReferenceSubgraphMatcher

    num_vertices, embedding_cap = MATCHER_PROFILES[profile]
    print(
        f"matcher suite: |V|={num_vertices} two-label ER graph "
        "(9:1 dense:rare), free + anchored batch ...",
        flush=True,
    )
    base = erdos_renyi_graph(num_vertices, 4.0, 1, seed=SEED)
    graph = LabeledGraph()
    for i in range(num_vertices):
        graph.add_vertex(i, "B" if i % 10 == 0 else "A")
    for u, v in base.edges():
        graph.add_edge(u, v)
    frozen = freeze(graph)
    # A two-edge path ending in the rare label: the free matching order roots
    # at the rare end, so anchoring at the dense-label head is exactly the
    # shape whose old anchored order degenerated to per-anchor label scans.
    pattern = LabeledGraph()
    pattern.add_vertex(0, "A")
    pattern.add_vertex(1, "A")
    pattern.add_vertex(2, "B")
    pattern.add_edge(0, 1)
    pattern.add_edge(1, 2)

    # ---- free search: reference vs domain matcher, both backends ---------
    ref_free_seconds, ref_free, reference = best_of(
        lambda: ReferenceSubgraphMatcher(pattern, graph),
        lambda m: m.find_embeddings(limit=embedding_cap),
    )
    ref_free_tests = reference.candidate_tests

    dict_free_seconds, dict_free, dict_matcher = best_of(
        lambda: SubgraphMatcher(pattern, graph),
        lambda m: m.find_embeddings(limit=embedding_cap),
    )
    csr_free_seconds, csr_free, csr_matcher = best_of(
        lambda: SubgraphMatcher(pattern, frozen),
        lambda m: m.find_embeddings(limit=embedding_cap),
    )

    # Parity before any number is trusted: the dict path must reproduce the
    # reference *sequence* (the mining-digest invariant), the csr path the
    # same embedding *set*.
    assert dict_free == ref_free, "matcher parity FAILED: dict path diverged"
    free_digest = matcher_digest(ref_free)
    assert matcher_digest(csr_free) == free_digest, (
        "matcher parity FAILED: csr path diverged from the reference set"
    )
    # The regression gate the kernel layer exists to pass: the vectorized
    # CSR free search must not lose wall-clock to the pre-domain reference
    # engine (best-of minima, so shared-host noise is already filtered out).
    assert_free_search_gate(profile, csr_free_seconds, ref_free_seconds)

    # ---- anchored batch: per-anchor reference vs one domain build --------
    anchors = sorted(graph.vertices_with_label("A"), key=repr)
    start = time.perf_counter()
    ref_anchored = []
    ref_anchor_tests = 0
    ref_fallbacks = 0
    for t_anchor in anchors:
        per_anchor = ReferenceSubgraphMatcher(pattern, graph)
        ref_anchored.extend(per_anchor.find_embeddings(anchor=(0, t_anchor)))
        ref_anchor_tests += per_anchor.candidate_tests
        ref_fallbacks += per_anchor.pool_fallbacks
    ref_anchored_seconds = time.perf_counter() - start

    anchored_results = {}
    for name, target in (("dict", graph), ("csr", frozen)):
        start = time.perf_counter()
        batch_matcher = SubgraphMatcher(pattern, target)
        batch = [m for _, m in batch_matcher.iter_anchored(0, t_anchors=anchors)]
        seconds = time.perf_counter() - start
        assert matcher_digest(batch) == matcher_digest(ref_anchored), (
            f"matcher parity FAILED: anchored batch ({name}) diverged"
        )
        assert batch_matcher.stats.pool_fallbacks == 0, (
            "anchored BFS order regressed: label-scan fallbacks observed"
        )
        anchored_results[name] = {
            "seconds": round(seconds, 4),
            "candidate_tests": batch_matcher.stats.candidate_tests,
            "domain_prunes": batch_matcher.stats.domain_prunes,
        }
    # Anchoring at every dense-label head finds every embedding exactly once.
    assert matcher_digest(ref_anchored) == free_digest

    new_tests = {
        name: results["candidate_tests"] + {
            "dict": dict_matcher, "csr": csr_matcher
        }[name].stats.candidate_tests
        for name, results in anchored_results.items()
    }
    ref_tests_total = ref_free_tests + ref_anchor_tests
    eliminated = {
        name: round(1.0 - tests / max(ref_tests_total, 1), 4)
        for name, tests in new_tests.items()
    }
    anchored_eliminated = round(
        1.0 - anchored_results["csr"]["candidate_tests"] / max(ref_anchor_tests, 1), 4
    )
    for name, fraction in eliminated.items():
        assert fraction >= MATCHER_MIN_ELIMINATED, (
            f"domain filtering eliminated only {fraction:.1%} of candidate "
            f"feasibility tests on the {name} path (need ≥ "
            f"{MATCHER_MIN_ELIMINATED:.0%})"
        )

    payload = {
        "benchmark": "matcher_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "erdos_renyi",
            "num_vertices": num_vertices,
            "num_edges": graph.num_edges,
            "average_degree": 4.0,
            "labels": {"A": len(graph.vertices_with_label("A")),
                       "B": len(graph.vertices_with_label("B"))},
            "seed": SEED,
        },
        "pattern": "two-edge path A-A-B (head in the dense class)",
        "num_embeddings": len(ref_free),
        "free_search": {
            "reference_seconds": round(ref_free_seconds, 4),
            "dict_seconds": round(dict_free_seconds, 4),
            "csr_seconds": round(csr_free_seconds, 4),
            "reference_candidate_tests": ref_free_tests,
            "dict_candidate_tests": dict_matcher.stats.candidate_tests,
            "csr_candidate_tests": csr_matcher.stats.candidate_tests,
        },
        "anchored_batch": {
            "num_anchors": len(anchors),
            "reference_seconds": round(ref_anchored_seconds, 4),
            "reference_candidate_tests": ref_anchor_tests,
            "reference_pool_fallbacks": ref_fallbacks,
            **{f"{name}_{key}": value
               for name, results in anchored_results.items()
               for key, value in results.items()},
            "eliminated_vs_reference": anchored_eliminated,
        },
        "candidate_tests_eliminated": eliminated,
        "parity_digest": free_digest,
        "note": (
            "domain matcher vs pre-refactor reference on the same queries, "
            "digest-verified identical embeddings (dict path sequence-"
            "identical); on a single-CPU shared host the candidate-test "
            "counters are the stable signal, wall-clock is corroboration; "
            "the anchored batch amortises one domain build over all head "
            "anchors of the dense label (the Stage-I access pattern)"
        ),
    }
    MATCHER_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"anchored: reference {ref_anchor_tests} candidate tests "
        f"({ref_fallbacks} label-scan fallbacks) vs domain batch "
        f"{anchored_results['csr']['candidate_tests']} "
        f"({anchored_eliminated:.1%} eliminated)",
        flush=True,
    )
    # Reached only when every parity assert above passed.
    print(
        f"matcher parity: ok (digest {free_digest}, "
        f"{min(eliminated.values()):.1%} of candidate tests eliminated) — "
        f"written to {MATCHER_RESULT_PATH.name}"
    )


def run_kernels_suite(profile):
    """Numpy kernel layer: kernel-backed free search and per-kernel timings."""
    from bisect import bisect_left
    from collections import Counter

    from repro.graph import LabeledGraph, SubgraphMatcher, kernels, matcher_digest
    from repro.graph._matcher_reference import ReferenceSubgraphMatcher
    from repro.patterns import EmbeddingIndex

    import numpy as np

    num_vertices, embedding_cap = MATCHER_PROFILES[profile]
    print(
        f"kernels suite: |V|={num_vertices} two-label ER graph, "
        "end-to-end + per-kernel micro-timings ...",
        flush=True,
    )
    base = erdos_renyi_graph(num_vertices, 4.0, 1, seed=SEED)
    graph = LabeledGraph()
    for i in range(num_vertices):
        graph.add_vertex(i, "B" if i % 10 == 0 else "A")
    for u, v in base.edges():
        graph.add_edge(u, v)
    frozen = freeze(graph)
    pattern = LabeledGraph()
    pattern.add_vertex(0, "A")
    pattern.add_vertex(1, "A")
    pattern.add_vertex(2, "B")
    pattern.add_edge(0, 1)
    pattern.add_edge(1, 2)

    # ---- end-to-end free search: reference vs kernel-backed CSR ----------
    ref_seconds, ref_free, _ = best_of(
        lambda: ReferenceSubgraphMatcher(pattern, graph),
        lambda m: m.find_embeddings(limit=embedding_cap),
    )
    kernel_seconds, kernel_free, kernel_matcher = best_of(
        lambda: SubgraphMatcher(pattern, frozen),
        lambda m: m.find_embeddings(limit=embedding_cap),
    )
    # The CSR path ascends its candidate pools, so the embeddings, read as
    # target-index tuples in matching order, must strictly ascend (the
    # mining-digest invariant); the set must equal the reference's.
    keys = [
        tuple(frozen.index_of(m[p]) for p in kernel_matcher._order)
        for m in kernel_free
    ]
    assert all(a < b for a, b in zip(keys, keys[1:])), (
        "kernel parity FAILED: vectorized free search sequence does not "
        "ascend in index space"
    )
    digest = matcher_digest(ref_free)
    assert matcher_digest(kernel_free) == digest, (
        "kernel parity FAILED: vectorized free search diverged from the "
        "reference set"
    )
    assert_free_search_gate(profile, kernel_seconds, ref_seconds)
    print(
        f"free search: reference {ref_seconds:.4f}s, vectorized csr "
        f"{kernel_seconds:.4f}s ({len(kernel_free)} embeddings)",
        flush=True,
    )

    # ---- per-kernel micro-timings on inputs lifted from that workload ----
    offsets, neighbors, label_ids = frozen.csr_numpy()
    offsets_list = list(frozen.offsets)
    neighbors_list = list(frozen.neighbor_indices)
    labels_list = list(frozen.label_ids)

    def row(u):
        return neighbors_list[offsets_list[u]:offsets_list[u + 1]]

    def timed(fn):
        seconds = []
        result = None
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - start)
        return min(seconds), result

    micro = {}

    def record(name, work, numpy_fn, scalar_fn, check):
        numpy_seconds, numpy_result = timed(numpy_fn)
        scalar_seconds, scalar_result = timed(scalar_fn)
        assert check(numpy_result, scalar_result), (
            f"kernel parity FAILED: {name} diverged from its scalar reference"
        )
        micro[name] = {
            "work": work,
            "numpy_seconds": round(numpy_seconds, 6),
            "scalar_seconds": round(scalar_seconds, 6),
            "speedup": round(scalar_seconds / max(numpy_seconds, 1e-9), 2),
        }
        print(
            f"{name}: numpy {numpy_seconds * 1000:.2f}ms vs scalar "
            f"{scalar_seconds * 1000:.2f}ms ({micro[name]['speedup']}x)",
            flush=True,
        )

    lid_a = frozen.label_table.index("A")
    lid_b = frozen.label_table.index("B")
    dense = frozen.label_members_np("A")
    rare = frozen.label_members_np("B")

    # seed filter: pattern vertex 1 needs degree ≥ 2, one A and one B neighbor.
    needed = [(lid_a, 1), (lid_b, 1)]

    def seed_scalar():
        kept = []
        for m in dense.tolist():
            nbrs = row(m)
            if len(nbrs) < 2:
                continue
            counts = Counter(labels_list[x] for x in nbrs)
            if all(counts.get(lid, 0) >= c for lid, c in needed):
                kept.append(m)
        return kept

    record(
        "seed_domain",
        {"members": int(dense.size)},
        lambda: kernels.seed_domain(dense, 2, needed, offsets, neighbors, label_ids),
        seed_scalar,
        lambda a, b: a.tolist() == b,
    )

    dom_mid = kernels.seed_domain(dense, 2, needed, offsets, neighbors, label_ids)
    dom_rare = rare

    def ac_scalar():
        rare_list = dom_rare.tolist()
        kept = []
        for m in dom_mid.tolist():
            for x in row(m):
                j = bisect_left(rare_list, x)
                if j < len(rare_list) and rare_list[j] == x:
                    kept.append(m)
                    break
        return kept

    record(
        "ac_filter",
        {"dom_a": int(dom_mid.size), "dom_b": int(dom_rare.size)},
        lambda: kernels.ac_filter(dom_mid, dom_rare, offsets, neighbors),
        ac_scalar,
        lambda a, b: a.tolist() == b,
    )

    probe_rows = [np.asarray(row(m), dtype=np.int64) for m in dom_mid.tolist()[:512]]

    def intersect_scalar():
        dense_list = dense.tolist()
        out = 0
        for arr in probe_rows:
            for x in arr.tolist():
                j = bisect_left(dense_list, x)
                if j < len(dense_list) and dense_list[j] == x:
                    out += 1
        return out

    record(
        "intersect_sorted",
        {"rows": len(probe_rows)},
        lambda: sum(
            int(kernels.intersect_sorted(arr, dense).size) for arr in probe_rows
        ),
        intersect_scalar,
        lambda a, b: a == b,
    )

    def filter_rows_scalar():
        allowed = set(dense.tolist())
        flat = []
        bounds = [0]
        for m in dom_mid.tolist():
            flat.extend(x for x in row(m) if x in allowed)
            bounds.append(len(flat))
        return flat, bounds

    record(
        "filter_rows",
        {"members": int(dom_mid.size)},
        lambda: kernels.filter_rows(dom_mid, dense, offsets, neighbors),
        filter_rows_scalar,
        lambda a, b: a[0].tolist() == b[0] and a[1].tolist() == b[1],
    )

    index = EmbeddingIndex(
        vertex_images=[frozenset(m.values()) for m in kernel_free]
    )
    postings = list(index.vertex_map.values())

    def merge_scalar():
        pairs = set()
        for ids in postings:
            for a in range(1, len(ids)):
                for b in range(a):
                    pairs.add((ids[b], ids[a]))
        return pairs

    record(
        "merge_postings",
        {"postings": len(postings), "ids": len(kernel_free)},
        lambda: kernels.merge_postings(postings, len(kernel_free)),
        merge_scalar,
        lambda a, b: set(zip(a[0].tolist(), a[1].tolist())) == b,
    )

    payload = {
        "benchmark": "kernels_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "erdos_renyi",
            "num_vertices": num_vertices,
            "num_edges": graph.num_edges,
            "average_degree": 4.0,
            "labels": {"A": len(graph.vertices_with_label("A")),
                       "B": len(graph.vertices_with_label("B"))},
            "seed": SEED,
        },
        "pattern": "two-edge path A-A-B (head in the dense class)",
        "timing_repeats": TIMING_REPEATS,
        "free_search": {
            "reference_seconds": round(ref_seconds, 4),
            "vectorized_csr_seconds": round(kernel_seconds, 4),
            "num_embeddings": len(kernel_free),
            "parity_digest": digest,
        },
        "kernels": micro,
        "note": (
            "end-to-end free search (best-of minima) of the reference "
            "engine and the vectorized CSR path — digest parity and an "
            "ascending index-space sequence asserted, vectorized ≤ "
            "reference gated; micro rows compare each kernel against a naive scalar "
            "reference on inputs lifted from the same dense-class workload, "
            "output-parity-checked before the clock is trusted; per-call "
            "kernels (intersect_sorted) can lose on tiny CSR rows — numpy "
            "call overhead dwarfs four-element intersections — which is "
            "exactly why the matcher batches that work through filter_rows "
            "at domain-build time instead of intersecting inside the search "
            "loop"
        ),
    }
    KERNELS_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # Reached only when every parity assert above passed.
    print(
        f"kernel parity: ok (digest {digest}, vectorized free search "
        f"{ref_seconds / max(kernel_seconds, 1e-9):.2f}x reference) — "
        f"written to {KERNELS_RESULT_PATH.name}"
    )


def run_serving_suite(profile):
    """Indexed batch containment vs the pre-index cold path, plus HTTP parity."""
    import urllib.request

    from repro.catalog import canonical_json
    from repro.graph import LabeledGraph
    from repro.graph.io import graph_to_dict

    num_vertices, labels, num_large, mine_kwargs, num_needles = SERVING_PROFILES[
        profile
    ]
    print(
        f"serving suite: |V|={num_vertices} synthetic graph, "
        f"{num_needles} batch needles, cold vs indexed ...",
        flush=True,
    )
    data = synthetic_single_graph(
        num_vertices=num_vertices,
        num_labels=labels,
        average_degree=2.0,
        num_large_patterns=num_large,
        large_pattern_vertices=12,
        large_pattern_support=2,
        num_small_patterns=4,
        small_pattern_vertices=3,
        small_pattern_support=2,
        seed=SEED,
    )
    graph = freeze(data.graph)

    def bfs_subgraph(pattern_graph, size):
        """A deterministic connected ``size``-vertex subgraph of a pattern."""
        start_vertex = min(pattern_graph.vertices(), key=repr)
        keep = [start_vertex]
        frontier = [start_vertex]
        while frontier and len(keep) < size:
            for n in sorted(pattern_graph.neighbors(frontier.pop(0)), key=repr):
                if len(keep) < size and n not in keep:
                    keep.append(n)
                    frontier.append(n)
        sub = LabeledGraph()
        for v in keep:
            sub.add_vertex(v, pattern_graph.label(v))
        for u, v in pattern_graph.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as store_dir:
        config = SpiderMineConfig(cache=CachePolicy.at(store_dir), **mine_kwargs)
        result = SpiderMine(graph, config).mine()
        assert result.patterns, "serving suite needs stored patterns"

        seed_catalog = open_catalog(store_dir)
        records = seed_catalog.top_k(k=len(result.patterns))
        needles = []
        while len(needles) < num_needles:
            record = records[len(needles) % len(records)]
            size = 2 + (len(needles) % 3)  # 2-4 vertex needles
            needle = bfs_subgraph(seed_catalog.load_pattern(record).graph, size)
            if len(needles) % 4 == 3:  # every 4th needle is a guaranteed miss
                miss = LabeledGraph()
                for v in needle.vertices():
                    miss.add_vertex(v, "no-such-label")
                for u, v in needle.edges():
                    miss.add_edge(u, v)
                needle = miss
            needles.append(needle)

        # Cold baseline: what N independent pre-index queries cost — a fresh
        # handle per needle (payload caches start empty, as in one CLI
        # invocation per query) running the per-(pattern, needle) re-seeding
        # path.
        start = time.perf_counter()
        cold_results = []
        for needle in needles:
            fresh = open_catalog(store_dir).query
            cold_results.append(fresh._containing_unindexed(needle))
        cold_seconds = time.perf_counter() - start

        # Indexed: one fresh handle answers the whole batch in one pass over
        # the persisted sidecars.
        indexed_catalog = open_catalog(store_dir)
        start = time.perf_counter()
        batch = indexed_catalog.contains_batch(needles)
        indexed_seconds = time.perf_counter() - start
        stats = indexed_catalog.stats.to_dict()

        # Parity before the clock is trusted.
        assert batch == cold_results, (
            "serve parity FAILED: indexed batch containment diverged from "
            "the unindexed reference"
        )
        # The index was read, never derived: mining persisted the sidecar.
        assert stats["index_builds"] == 0, "mine-time sidecar missing"

        # HTTP round trip: the served bytes must equal serialising the
        # facade's own answer.
        handle = open_catalog(store_dir, read_only=True).serve(
            port=0, background=True
        )
        try:
            payload = json.dumps(
                {"graphs": [graph_to_dict(n) for n in needles]}
            ).encode("utf-8")
            request = urllib.request.Request(
                handle.url + "/contains/batch",
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            start = time.perf_counter()
            with urllib.request.urlopen(request, timeout=60) as response:
                served = response.read().decode("utf-8")
            http_seconds = time.perf_counter() - start
        finally:
            handle.close()
        expected = canonical_json([[r.to_dict() for r in grp] for grp in batch])
        assert served == expected, (
            "serve parity FAILED: HTTP /contains/batch bytes diverged from "
            "the facade's serialised answer"
        )

    hits = sum(1 for grp in batch if grp)
    speedup = round(cold_seconds / max(indexed_seconds, 1e-9), 2)
    if profile == "full":
        # The point of persisting the index: the batch path must beat N
        # cold per-needle queries outright on the real profile (the quick
        # CI graph is too small for the gap to dominate process noise).
        assert indexed_seconds < cold_seconds, (
            f"serving regression: indexed batch {indexed_seconds:.4f}s not "
            f"faster than the cold per-needle path {cold_seconds:.4f}s"
        )
    payload = {
        "benchmark": "serving_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "synthetic_single_graph",
            "num_vertices": num_vertices,
            "num_labels": labels,
            "num_large_patterns": num_large,
            "seed": SEED,
        },
        "mining_config": mine_kwargs,
        "num_stored_patterns": len(result.patterns),
        "num_needles": len(needles),
        "needles_with_matches": hits,
        "cold_unindexed_seconds": round(cold_seconds, 4),
        "indexed_batch_seconds": round(indexed_seconds, 4),
        "speedup": speedup,
        "http_batch_seconds": round(http_seconds, 4),
        "index_stats": stats,
        "note": (
            "cold = one fresh pre-index query per needle (matcher re-derives "
            "target-side seeding per (pattern, needle) pair, payloads "
            "re-read); indexed = one contains_batch over the mine-time "
            "persisted pattern-index sidecars; both answer identically "
            "(asserted) and the HTTP /contains/batch bytes equal the "
            "serialised facade answer (asserted)"
        ),
    }
    SERVING_RESULT_PATH.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"cold {cold_seconds:.3f}s vs indexed batch {indexed_seconds:.3f}s "
        f"({speedup}x) over {len(needles)} needles "
        f"({stats['seed_rejections']} of {stats['seed_checks']} seed checks "
        f"rejected without a matcher call)",
        flush=True,
    )
    # Reached only when every parity assert above passed.
    print(
        f"serve parity: ok (indexed/unindexed/HTTP agree on "
        f"{len(needles)} needles, {hits} with matches) — "
        f"written to {SERVING_RESULT_PATH.name}"
    )


def run_obs_suite(profile):
    """Instrumented vs uninstrumented mining: digest parity + overhead gate."""
    from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer

    num_vertices, labels, num_large, mine_kwargs, repeats = OBS_PROFILES[profile]
    print(
        f"obs suite: |V|={num_vertices} synthetic graph, best-of-{repeats} "
        "instrumented vs uninstrumented mine ...",
        flush=True,
    )
    data = synthetic_single_graph(
        num_vertices=num_vertices,
        num_labels=labels,
        average_degree=2.0,
        num_large_patterns=num_large,
        large_pattern_vertices=12,
        large_pattern_support=2,
        num_small_patterns=4,
        small_pattern_vertices=3,
        small_pattern_support=2,
        seed=SEED,
    )
    graph = freeze(data.graph)
    config = SpiderMineConfig(**mine_kwargs)

    def mine_once(registry=None, tracer=None):
        with use_registry(registry), use_tracer(tracer):
            start = time.perf_counter()
            result = SpiderMine(graph, config).mine()
            return time.perf_counter() - start, result

    times = {"off": [], "metrics": [], "trace": []}
    digests = {"off": set(), "metrics": set(), "trace": set()}
    registry = tracer = None
    for _ in range(repeats):
        seconds, result = mine_once()
        times["off"].append(seconds)
        digests["off"].add(result.digest())

        seconds, result = mine_once(registry=MetricsRegistry())
        times["metrics"].append(seconds)
        digests["metrics"].add(result.digest())

        registry, tracer = MetricsRegistry(), Tracer()
        seconds, result = mine_once(registry=registry, tracer=tracer)
        times["trace"].append(seconds)
        digests["trace"].add(result.digest())

    assert digests["off"] == digests["metrics"] == digests["trace"], (
        "telemetry parity FAILED: enabling the registry/tracer changed the "
        f"mining digest ({digests})"
    )
    assert len(digests["off"]) == 1, (
        f"telemetry parity FAILED: mining itself was nondeterministic ({digests})"
    )
    # The instrumented runs must actually have instrumented something, or
    # the overhead number (and the parity) are vacuous.
    assert registry.flat().get("mine.runs") == 1, "registry never populated"
    assert [s.name for s in tracer.roots()] == [
        "mine.stage1",
        "mine.stage2",
        "mine.stage3",
        "mine.report",
    ], "span tree missing stages"

    plain = min(times["off"])
    instrumented = min(times["trace"])  # registry AND tracer: the worst case
    overhead = instrumented / max(plain, 1e-9) - 1.0
    if profile == "full":
        assert overhead <= OBS_MAX_OVERHEAD, (
            f"telemetry overhead regression: instrumented mine "
            f"{instrumented:.4f}s is {overhead * 100.0:.2f}% over the "
            f"uninstrumented {plain:.4f}s (budget "
            f"{OBS_MAX_OVERHEAD * 100.0:.0f}%)"
        )

    payload = {
        "benchmark": "obs_perf_smoke",
        "profile": profile,
        "graph": {
            "model": "synthetic_single_graph",
            "num_vertices": num_vertices,
            "num_labels": labels,
            "num_large_patterns": num_large,
            "seed": SEED,
        },
        "mining_config": mine_kwargs,
        "repeats": repeats,
        "uninstrumented_seconds": round(plain, 4),
        "metrics_only_seconds": round(min(times["metrics"]), 4),
        "instrumented_seconds": round(instrumented, 4),
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": OBS_MAX_OVERHEAD,
        "budget_enforced": profile == "full",
        "sample_metrics": registry.flat(),
        "note": (
            "uninstrumented = NullRegistry/NullTracer defaults (one "
            "attribute check per instrumented call site); instrumented = "
            "live MetricsRegistry AND span Tracer (the mine --telemetry "
            "worst case); best-of-N wall-clock; digests asserted "
            "bit-identical across off/metrics/metrics+trace before any "
            "clock is trusted"
        ),
    }
    OBS_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"uninstrumented {plain:.3f}s vs instrumented {instrumented:.3f}s "
        f"({overhead * 100.0:+.2f}% overhead, budget "
        f"{OBS_MAX_OVERHEAD * 100.0:.0f}% on full)",
        flush=True,
    )
    # Reached only when every parity assert above passed.
    print(
        f"telemetry parity: ok (digest identical off/metrics/trace over "
        f"{repeats} repeat(s)) — written to {OBS_RESULT_PATH.name}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-graph smoke profile for CI: must not crash, parity still asserted",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count for the parallel suite (default 4)",
    )
    parser.add_argument(
        "--skip-parallel",
        action="store_true",
        help="skip the parallel suite (BENCH_parallel_mining.json untouched)",
    )
    parser.add_argument(
        "--skip-catalog",
        action="store_true",
        help="skip the catalog suite (BENCH_catalog.json untouched)",
    )
    parser.add_argument(
        "--skip-overlap",
        action="store_true",
        help="skip the overlap suite (BENCH_overlap_index.json untouched)",
    )
    parser.add_argument(
        "--skip-matcher",
        action="store_true",
        help="skip the matcher suite (BENCH_matcher.json untouched)",
    )
    parser.add_argument(
        "--skip-kernels",
        action="store_true",
        help="skip the kernels suite (BENCH_kernels.json untouched)",
    )
    parser.add_argument(
        "--skip-serve",
        action="store_true",
        help="skip the serving suite (BENCH_serving.json untouched)",
    )
    parser.add_argument(
        "--skip-obs",
        action="store_true",
        help="skip the telemetry suite (BENCH_obs.json untouched)",
    )
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"
    num_vertices, _, _, _ = PROFILES[profile]

    print(
        f"[{profile}] generating BA graph: |V|={num_vertices}, m={EDGES_PER_VERTEX} ...",
        flush=True,
    )
    build_start = time.perf_counter()
    mutable = barabasi_albert_graph(num_vertices, EDGES_PER_VERTEX, NUM_LABELS, seed=SEED)
    build_time = time.perf_counter() - build_start
    freeze_start = time.perf_counter()
    frozen = freeze(mutable)
    freeze_time = time.perf_counter() - freeze_start
    print(
        f"built in {build_time:.2f}s (|E|={mutable.num_edges}), frozen in {freeze_time:.2f}s",
        flush=True,
    )
    graph_meta = {
        "model": "barabasi_albert",
        "num_vertices": num_vertices,
        "num_edges": mutable.num_edges,
        "edges_per_vertex": EDGES_PER_VERTEX,
        "num_labels": NUM_LABELS,
        "seed": SEED,
    }

    run_backend_suite(profile, mutable, frozen, freeze_time, graph_meta)
    if not args.skip_parallel:
        run_parallel_suite(profile, frozen, args.workers, graph_meta)
    if not args.skip_catalog:
        run_catalog_suite(profile)
    if not args.skip_overlap:
        run_overlap_suite(profile)
    if not args.skip_matcher:
        run_matcher_suite(profile)
    if not args.skip_kernels:
        run_kernels_suite(profile)
    if not args.skip_serve:
        run_serving_suite(profile)
    if not args.skip_obs:
        run_obs_suite(profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
