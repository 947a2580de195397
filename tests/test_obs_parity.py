"""Telemetry is provably result-neutral: digests are bit-identical.

The load-bearing invariant of ``repro.obs``: enabling the metrics registry,
or the registry *and* the span tracer (the CLI's ``--trace``), must never
change what is mined.  This sweep pins ``MiningResult.digest()`` —
a SHA-256 over every pattern's canonical code, support and embeddings —
across telemetry × {off (NullRegistry), metrics, metrics+trace}, on both
graph backends and both execution modes (serial and a 2-worker process
pool, which exercises the worker span-tree merge path).
"""

from __future__ import annotations

import pytest

from repro.core import SpiderMine, SpiderMineConfig
from repro.graph import freeze, synthetic_single_graph
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.parallel import ExecutionPolicy

MODES = ("off", "metrics", "trace")


@pytest.fixture(scope="module")
def planted():
    return synthetic_single_graph(
        num_vertices=120,
        num_labels=30,
        average_degree=2.0,
        num_large_patterns=2,
        large_pattern_vertices=10,
        large_pattern_support=2,
        num_small_patterns=2,
        small_pattern_vertices=3,
        small_pattern_support=2,
        seed=5,
        max_pattern_diameter=6,
    )


def _mine_digest(graph, workers: int, mode: str):
    """One mining run under the given telemetry mode; returns (digest, registry, tracer)."""
    execution = (
        ExecutionPolicy()
        if workers == 1
        else ExecutionPolicy(mode="process", n_workers=workers)
    )
    config = SpiderMineConfig(min_support=2, k=5, d_max=6, seed=0, execution=execution)
    registry = MetricsRegistry() if mode != "off" else None
    tracer = Tracer() if mode == "trace" else None
    with use_registry(registry), use_tracer(tracer):
        result = SpiderMine(graph, config).mine()
    return result.digest(), registry, tracer


@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize("workers", [1, 2])
def test_digests_identical_across_telemetry_modes(planted, backend, workers):
    graph = planted.graph if backend == "dict" else freeze(planted.graph)

    digests = {}
    collected = {}
    for mode in MODES:
        digests[mode], registry, tracer = _mine_digest(graph, workers, mode)
        collected[mode] = (registry, tracer)

    assert digests["metrics"] == digests["off"]
    assert digests["trace"] == digests["off"]

    # Guard against a vacuous pass: the instrumented runs must actually
    # have instrumented something.
    registry, _ = collected["metrics"]
    flat = registry.flat()
    assert flat["mine.runs"] == 1
    assert flat["mine.stage1.units"] > 0
    assert flat["mine.statistics.num_spiders"] > 0

    _, tracer = collected["trace"]
    roots = tracer.roots()
    assert [r.name for r in roots] == ["mine.stage1", "mine.stage2", "mine.stage3", "mine.report"]
    stage1 = roots[0]
    assert stage1.children, "per-unit spans missing (serial record / worker merge)"
    assert all(c.name == "mine.stage1.unit" for c in stage1.children)
    units = [c.attrs["unit"] for c in stage1.children]
    assert units == sorted(units)  # deterministic merge order


def test_cli_telemetry_matches_library_digest(planted, tmp_path):
    """mine --telemetry (registry + tracer + sidecar write) changes nothing."""
    import repro

    baseline = repro.mine(planted.graph, min_support=2, k=5, d_max=6).digest()
    with use_registry(MetricsRegistry()), use_tracer(Tracer()):
        instrumented = repro.mine(
            planted.graph, min_support=2, k=5, d_max=6, catalog=tmp_path / "cat"
        )
    assert instrumented.digest() == baseline
