"""Serial == parallel determinism guarantee of the mining engine.

The contract under test: for a fixed seed, mining with any
:class:`ExecutionPolicy` — any worker count or chunk size, on either graph
backend — returns results *bit-identical* to the serial run: same spiders,
same canonical codes, same embeddings, same order.
"""

from __future__ import annotations

import pytest

from repro.core import SpiderMine, SpiderMineConfig, SpiderMiner, merge_unit_levels
from repro.graph import freeze
from repro.parallel import ExecutionPolicy
from repro.parallel.driver import partition_units
from tests.conftest import build_path


def spider_fingerprint(spiders):
    """Everything observable about a Stage-I result, order included."""
    return [
        (s.spider_code(), s.head, s.radius, tuple(s.embeddings)) for s in spiders
    ]


def pattern_fingerprint(result):
    """Everything observable about a full-pipeline result, order included."""
    return [
        (p.code, p.support, p.num_vertices, p.num_edges, tuple(p.embeddings))
        for p in result.patterns
    ]


@pytest.fixture(scope="module")
def data_graph():
    from repro.graph import synthetic_single_graph

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
    ).graph


@pytest.fixture(scope="module")
def serial_spiders(data_graph):
    return SpiderMiner(data_graph, SpiderMineConfig(min_support=2)).mine()


class TestStageOneParity:
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial(self, data_graph, serial_spiders, backend, workers):
        graph = freeze(data_graph) if backend == "csr" else data_graph
        config = SpiderMineConfig(
            min_support=2, execution=ExecutionPolicy.process_pool(workers)
        )
        parallel = SpiderMiner(graph, config).mine()
        assert spider_fingerprint(parallel) == spider_fingerprint(serial_spiders)

    def test_chunk_size_is_invisible(self, data_graph, serial_spiders):
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, chunk_size=1),
        )
        parallel = SpiderMiner(data_graph, config).mine()
        assert spider_fingerprint(parallel) == spider_fingerprint(serial_spiders)

    def test_max_spiders_truncation_matches(self, data_graph):
        """The cap cuts the canonical merge at the same spider as the serial loop."""
        for cap in (3, 9, 25):
            serial = SpiderMiner(
                data_graph, SpiderMineConfig(min_support=2, max_spiders=cap)
            ).mine()
            parallel = SpiderMiner(
                data_graph,
                SpiderMineConfig(
                    min_support=2,
                    max_spiders=cap,
                    execution=ExecutionPolicy.process_pool(3, chunk_size=1),
                ),
            ).mine()
            assert len(parallel) <= cap
            assert spider_fingerprint(parallel) == spider_fingerprint(serial)

    def test_radius_two_parity(self, data_graph):
        serial = SpiderMiner(
            data_graph, SpiderMineConfig(min_support=2, radius=2, max_spider_size=4)
        ).mine()
        parallel = SpiderMiner(
            data_graph,
            SpiderMineConfig(
                min_support=2,
                radius=2,
                max_spider_size=4,
                execution=ExecutionPolicy.process_pool(2),
            ),
        ).mine()
        assert spider_fingerprint(parallel) == spider_fingerprint(serial)

    def test_spawn_start_method_parity(self, data_graph, serial_spiders):
        """Integer vertex ids hash identically in every process, so even the
        spawn start method (fresh interpreter, fresh string-hash seed) is
        bit-identical."""
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, start_method="spawn"),
        )
        parallel = SpiderMiner(data_graph, config).mine()
        assert spider_fingerprint(parallel) == spider_fingerprint(serial_spiders)


class TestFullPipelineParity:
    def test_top_k_patterns_identical(self, data_graph):
        """Stage I feeds Stages II/III, so end-to-end top-K results inherit
        the Stage-I guarantee on both backends."""
        serial = SpiderMine(
            data_graph, SpiderMineConfig(min_support=2, k=5, d_max=6, seed=0)
        ).mine()
        for backend in ("dict", "csr"):
            graph = freeze(data_graph) if backend == "csr" else data_graph
            config = SpiderMineConfig(
                min_support=2,
                k=5,
                d_max=6,
                seed=0,
                execution=ExecutionPolicy.process_pool(4),
            )
            parallel = SpiderMine(graph, config).mine()
            assert pattern_fingerprint(parallel) == pattern_fingerprint(serial)
            assert parallel.parameters["workers"] == 4
            assert parallel.parameters["execution_mode"] == "process"


class TestMergeAndPartitionMachinery:
    def test_partition_contiguous_covers_all_units(self):
        policy = ExecutionPolicy.process_pool(3, chunk_size=4)
        chunks = partition_units(10, policy)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_partition_empty(self):
        assert partition_units(0, ExecutionPolicy.process_pool(4)) == []

    def test_merge_is_level_major_unit_minor(self):
        unit_levels = {
            1: [["b0"], ["b1a", "b1b"]],
            0: [["a0"], ["a1"], ["a2"]],
        }
        merged = merge_unit_levels(unit_levels, max_spiders=100)
        assert merged == ["a0", "b0", "a1", "b1a", "b1b", "a2"]

    def test_merge_truncates_at_cap(self):
        unit_levels = {0: [["a0"], ["a1"]], 1: [["b0"], ["b1"]]}
        assert merge_unit_levels(unit_levels, max_spiders=3) == ["a0", "b0", "a1"]
        assert merge_unit_levels(unit_levels, max_spiders=0) == []

    def test_serial_mine_is_unit_merge(self, data_graph):
        """mine() over units is exactly mine_unit per unit + canonical merge."""
        miner = SpiderMiner(data_graph, SpiderMineConfig(min_support=2))
        unit_levels = {
            unit: miner.mine_unit(unit) for unit in range(len(miner.unit_labels()))
        }
        rebuilt = merge_unit_levels(unit_levels, miner.config.max_spiders)
        assert spider_fingerprint(rebuilt) == spider_fingerprint(miner.mine())

    def test_unit_labels_are_canonical_and_frequent(self, data_graph):
        miner = SpiderMiner(data_graph, SpiderMineConfig(min_support=2))
        labels = miner.unit_labels()
        assert labels == sorted(labels, key=repr)
        for label in labels:
            assert len(data_graph.vertices_with_label(label)) >= 2


class TestSmallGraphEdgeCases:
    def test_parallel_on_tiny_graph(self):
        graph = build_path(["A", "B", "A", "B", "A"])
        serial = SpiderMiner(graph, SpiderMineConfig(min_support=2)).mine()
        parallel = SpiderMiner(
            graph,
            SpiderMineConfig(min_support=2, execution=ExecutionPolicy.process_pool(4)),
        ).mine()
        assert spider_fingerprint(parallel) == spider_fingerprint(serial)

    def test_parallel_on_graph_with_no_frequent_labels(self):
        graph = build_path(["A", "B", "C"])
        config = SpiderMineConfig(
            min_support=2, execution=ExecutionPolicy.process_pool(4)
        )
        assert SpiderMiner(graph, config).mine() == []

    def test_parallel_on_empty_graph(self):
        from repro.graph import LabeledGraph

        config = SpiderMineConfig(
            min_support=1, execution=ExecutionPolicy.process_pool(2)
        )
        assert SpiderMiner(LabeledGraph(), config).mine() == []
