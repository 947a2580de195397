"""Failure paths and resource lifecycle of the parallel mining engine.

Covers the driver's failure contract — a worker dying mid-chunk surfaces the
*original* exception in the parent and never leaks a shared-memory segment —
plus the shared-graph export/attach round trip and policy validation.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro.core import SpiderMineConfig, SpiderMiner
from repro.graph import freeze, synthetic_single_graph
from repro.parallel import (
    ExecutionPolicy,
    attach_shared_graph,
    export_shared_graph,
)
from repro.parallel import shared_graph as shared_graph_module
from tests.conftest import build_path, build_triangle


@pytest.fixture(scope="module")
def small_graph():
    return synthetic_single_graph(
        num_vertices=80,
        num_labels=20,
        average_degree=2.0,
        num_large_patterns=1,
        large_pattern_vertices=8,
        large_pattern_support=2,
        num_small_patterns=1,
        small_pattern_vertices=3,
        small_pattern_support=2,
        seed=11,
    ).graph


@pytest.fixture
def captured_segments(monkeypatch):
    """Record the name of every segment the driver exports."""
    names = []
    original = shared_graph_module.export_shared_graph

    def recording_export(frozen):
        handle, segment = original(frozen)
        names.append(handle.name)
        return handle, segment

    # The driver resolves the symbol through its own module namespace.
    from repro.parallel import driver

    monkeypatch.setattr(driver, "export_shared_graph", recording_export)
    return names


def assert_segment_released(name: str) -> None:
    """The segment must be unlinked: re-attaching by name has to fail."""
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


class TestWorkerFailure:
    def test_worker_exception_surfaces_and_releases_memory(
        self, small_graph, captured_segments, monkeypatch
    ):
        """A worker raising mid-chunk aborts the run with the original
        exception and the parent still unlinks the shared segment."""

        def exploding_mine_unit(self, unit):
            raise ValueError(f"synthetic worker failure in unit {unit}")

        # Fork workers inherit the monkeypatched method, so the failure
        # happens inside a real worker process, mid-chunk.
        monkeypatch.setattr(SpiderMiner, "mine_unit", exploding_mine_unit)
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, start_method="fork"),
        )
        with pytest.raises(ValueError, match="synthetic worker failure"):
            SpiderMiner(small_graph, config).mine()
        assert len(captured_segments) == 1
        assert_segment_released(captured_segments[0])

    def test_partial_failure_still_releases_memory(
        self, small_graph, captured_segments, monkeypatch
    ):
        """Only some chunks fail: the healthy results are discarded, the
        exception propagates, the segment is gone."""
        original = SpiderMiner.mine_unit

        def flaky_mine_unit(self, unit):
            if unit % 2 == 1:
                raise RuntimeError("flaky unit")
            return original(self, unit)

        monkeypatch.setattr(SpiderMiner, "mine_unit", flaky_mine_unit)
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, chunk_size=1, start_method="fork"),
        )
        with pytest.raises(RuntimeError, match="flaky unit"):
            SpiderMiner(small_graph, config).mine()
        assert_segment_released(captured_segments[0])

    def test_success_leaves_no_segment_behind(self, small_graph, captured_segments):
        config = SpiderMineConfig(
            min_support=2, execution=ExecutionPolicy.process_pool(2)
        )
        spiders = SpiderMiner(small_graph, config).mine()
        assert spiders
        assert len(captured_segments) == 1
        assert_segment_released(captured_segments[0])


class TestCrossProcessDeterminismGuard:
    def string_id_graph(self):
        from repro.graph import LabeledGraph

        graph = LabeledGraph()
        for base in ("u", "v"):
            graph.add_vertex(f"{base}0", "A")
            graph.add_vertex(f"{base}1", "B")
            graph.add_edge(f"{base}0", f"{base}1")
        return graph

    def test_spawn_with_string_ids_is_refused(self):
        """Non-fork workers draw fresh string-hash seeds, so string vertex ids
        would silently break serial==parallel parity; the driver must refuse
        loudly instead."""
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, start_method="spawn"),
        )
        with pytest.raises(RuntimeError, match="integer vertex identifiers"):
            SpiderMiner(self.string_id_graph(), config).mine()

    def test_fork_with_string_ids_is_allowed(self):
        graph = self.string_id_graph()
        serial = SpiderMiner(graph, SpiderMineConfig(min_support=2)).mine()
        config = SpiderMineConfig(
            min_support=2,
            execution=ExecutionPolicy.process_pool(2, start_method="fork"),
        )
        parallel = SpiderMiner(graph, config).mine()
        assert [s.spider_code() for s in parallel] == [s.spider_code() for s in serial]
        assert [s.embeddings for s in parallel] == [s.embeddings for s in serial]


class TestSharedGraphRoundTrip:
    def test_attach_reproduces_graph(self):
        frozen = freeze(build_triangle())
        handle, segment = export_shared_graph(frozen)
        try:
            attached = attach_shared_graph(handle)
            mirror = attached.graph
            assert mirror == frozen
            assert mirror.vertex_ids == frozen.vertex_ids
            assert mirror.label_table == frozen.label_table
            assert list(mirror.edges()) == list(frozen.edges())
            for vertex in frozen.vertices():
                assert mirror.neighbors(vertex) == frozen.neighbors(vertex)
                assert mirror.label(vertex) == frozen.label(vertex)
            attached.detach()
            attached.detach()  # idempotent
        finally:
            segment.close()
            segment.unlink()
        assert_segment_released(handle.name)

    def test_attach_is_zero_copy(self):
        """The attached adjacency reads straight out of the shared segment."""
        frozen = freeze(build_path(["A", "B", "A", "B"]))
        handle, segment = export_shared_graph(frozen)
        try:
            attached = attach_shared_graph(handle)
            view = attached.graph.neighbor_indices
            assert isinstance(view, memoryview)
            assert view.obj is not None
            attached.detach()
        finally:
            segment.close()
            segment.unlink()

    def test_handle_layout_is_consistent(self):
        frozen = freeze(build_triangle())
        handle, segment = export_shared_graph(frozen)
        try:
            assert handle.total_bytes == (
                handle.offsets_bytes
                + handle.neighbors_bytes
                + handle.labels_bytes
                + handle.header_bytes
            )
            assert handle.num_vertices == 3
            assert segment.size >= handle.total_bytes
        finally:
            segment.close()
            segment.unlink()


class TestPolicyValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="execution mode"):
            ExecutionPolicy(mode="threads")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExecutionPolicy(n_workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)

    def test_rejects_unavailable_start_method(self):
        with pytest.raises(ValueError, match="start method"):
            ExecutionPolicy(start_method="teleport")

    def test_single_worker_process_pool_degrades_to_serial(self):
        policy = ExecutionPolicy.process_pool(1)
        assert policy.mode == "serial"
        assert not policy.uses_processes

    def test_config_rejects_non_policy(self):
        with pytest.raises(ValueError, match="ExecutionPolicy"):
            SpiderMineConfig(execution="process")

    def test_chunk_size_resolution(self):
        policy = ExecutionPolicy.process_pool(4)
        assert policy.resolved_chunk_size(64) == 4
        assert policy.resolved_chunk_size(3) == 1
        assert ExecutionPolicy.process_pool(2, chunk_size=7).resolved_chunk_size(64) == 7
