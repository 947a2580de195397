"""The catalog query layer (repro.catalog.query)."""

from __future__ import annotations

import pytest

from repro import CachePolicy, SpiderMine, SpiderMineConfig, open_catalog
from repro.catalog import CatalogQuery, CatalogStore
from repro.graph import LabeledGraph, synthetic_single_graph
from tests.oracles.containment_reference import UnindexedContainment


def query_for(store):
    """A CatalogQuery via the supported facade (no deprecation warning)."""
    return open_catalog(store).query


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    """A catalog holding the runs of two different configs on one graph."""
    root = tmp_path_factory.mktemp("catalog")
    graph = synthetic_single_graph(
        num_vertices=200, num_labels=30, average_degree=2.0,
        num_large_patterns=2, large_pattern_vertices=10, large_pattern_support=2,
        num_small_patterns=2, small_pattern_vertices=3, small_pattern_support=2,
        seed=5,
    ).graph
    results = {}
    for k in (2, 4):
        cfg = SpiderMineConfig(
            min_support=2, k=k, d_max=6, seed=0, cache=CachePolicy.at(root)
        )
        results[k] = SpiderMine(graph, cfg).mine()
    return CatalogStore(root), results


class TestRecords:
    def test_every_stored_pattern_is_enumerated(self, populated_store):
        store, results = populated_store
        records = list(query_for(store).records())
        expected = sum(len(r.patterns) for r in results.values())
        assert len(records) == expected
        assert all(r.num_vertices >= 1 and r.support >= 1 for r in records)
        assert all(r.algorithm == "SpiderMine" for r in records)

    def test_restrict_to_one_run(self, populated_store):
        store, results = populated_store
        query = query_for(store)
        run_ids = {r["run_id"] for r in store.list_runs(kind="result")}
        assert len(run_ids) == 2
        for run_id in run_ids:
            records = list(query.records(run_id=run_id))
            assert records
            assert {r.run_id for r in records} == {run_id}


class TestTopK:
    def test_by_vertices_is_sorted_and_capped(self, populated_store):
        store, _ = populated_store
        top = query_for(store).top_k(3, by="vertices")
        assert len(top) == 3
        sizes = [(r.num_vertices, r.num_edges) for r in top]
        assert sizes == sorted(sizes, reverse=True)

    def test_by_support(self, populated_store):
        store, _ = populated_store
        top = query_for(store).top_k(5, by="support")
        supports = [r.support for r in top]
        assert supports == sorted(supports, reverse=True)

    def test_by_edges(self, populated_store):
        store, _ = populated_store
        top = query_for(store).top_k(5, by="edges")
        edges = [r.num_edges for r in top]
        assert edges == sorted(edges, reverse=True)

    def test_deterministic_order(self, populated_store):
        store, _ = populated_store
        query = query_for(store)
        first = [(r.run_id, r.index) for r in query.top_k(10)]
        second = [(r.run_id, r.index) for r in query.top_k(10)]
        assert first == second

    def test_unknown_ranking_raises(self, populated_store):
        store, _ = populated_store
        with pytest.raises(ValueError):
            query_for(store).top_k(3, by="colour")

    def test_empty_store(self, tmp_path):
        assert query_for(tmp_path / "empty").top_k(5) == []


class TestLabelFilter:
    def test_with_label_matches_metadata(self, populated_store):
        store, results = populated_store
        query = query_for(store)
        some_label = next(iter(results[4].patterns[0].graph.labels().values()))
        records = query.with_label(some_label)
        assert records
        assert all(some_label in r.labels for r in records)

    def test_absent_label_matches_nothing(self, populated_store):
        store, _ = populated_store
        assert query_for(store).with_label("no-such-label") == []

    def test_top_k_with_label_filter(self, populated_store):
        store, results = populated_store
        some_label = next(iter(results[4].patterns[0].graph.labels().values()))
        top = query_for(store).top_k(2, label=some_label)
        assert top
        assert all(some_label in r.labels for r in top)


class TestContainment:
    def test_single_vertex_needle(self, populated_store):
        store, results = populated_store
        query = query_for(store)
        pattern = results[4].patterns[0]
        label = next(iter(pattern.graph.labels().values()))
        needle = LabeledGraph()
        needle.add_vertex(0, label)
        matches = query.containing(needle)
        assert matches
        assert all(label in r.labels for r in matches)

    def test_whole_pattern_contains_itself(self, populated_store):
        store, results = populated_store
        query = query_for(store)
        pattern = results[4].patterns[0]
        matches = query.containing(pattern)
        assert any(
            r.num_vertices == pattern.num_vertices
            and r.num_edges == pattern.num_edges
            for r in matches
        )

    def test_impossible_needle_matches_nothing(self, populated_store):
        store, _ = populated_store
        needle = LabeledGraph()
        needle.add_vertex(0, "no-such-label")
        needle.add_vertex(1, "no-such-label")
        needle.add_edge(0, 1)
        assert query_for(store).containing(needle) == []


class TestLoadPattern:
    def test_materialises_graph_and_embeddings(self, populated_store):
        store, results = populated_store
        query = query_for(store)
        record = query.top_k(1)[0]
        pattern = query.load_pattern(record)
        assert pattern.num_vertices == record.num_vertices
        assert pattern.num_edges == record.num_edges
        assert pattern.support == record.support
        assert pattern.embeddings


class TestBatchContainment:
    def _needles(self, results):
        """A mixed bag: pattern subgraph, single vertex, impossible label."""
        pattern = results[4].patterns[0]
        label = next(iter(pattern.graph.labels().values()))
        single = LabeledGraph()
        single.add_vertex(0, label)
        impossible = LabeledGraph()
        impossible.add_vertex(0, "no-such-label")
        impossible.add_vertex(1, "no-such-label")
        impossible.add_edge(0, 1)
        return [pattern, single, impossible]

    def test_batch_equals_independent_calls(self, populated_store):
        store, results = populated_store
        needles = self._needles(results)
        batch = query_for(store).contains_batch(needles)
        fresh = query_for(store)
        singles = [fresh.containing(n) for n in needles]
        assert [[r.to_dict() for r in group] for group in batch] == [
            [r.to_dict() for r in group] for group in singles
        ]

    def test_batch_matches_unindexed_reference(self, populated_store):
        store, results = populated_store
        needles = self._needles(results)
        query = query_for(store)
        batch = query.contains_batch(needles)
        reference = UnindexedContainment(query_for(store))
        expected = [reference.containing(n) for n in needles]
        assert batch == expected
        # The index is read, never derived, and only admits matcher calls
        # the unindexed path would make too.
        assert query.stats.index_builds == 0
        assert 0 < query.stats.matcher_calls <= reference.matcher_calls

    def test_batch_loads_each_run_index_once(self, populated_store):
        """N needles must not re-seed domains per (pattern, needle) pair:
        one sidecar load per stored run answers the whole batch."""
        store, results = populated_store
        query = query_for(store)
        needles = self._needles(results) * 3
        query.contains_batch(needles)
        num_runs = len(store.list_runs(kind="result"))
        index_reads = query.stats.index_loads + query.stats.index_builds
        assert 1 <= index_reads <= num_runs
        # Mined runs persisted their sidecar, so nothing was rebuilt.
        assert query.stats.index_builds == 0
        # Every matcher call was admitted by a prior index seed check.
        assert query.stats.seed_checks >= query.stats.matcher_calls > 0

    def test_empty_batch(self, populated_store):
        store, _ = populated_store
        assert query_for(store).contains_batch([]) == []

    def test_empty_needle_matches_nothing(self, populated_store):
        store, _ = populated_store
        assert query_for(store).contains_batch([LabeledGraph()]) == [[]]


class TestDeprecationShim:
    def test_direct_construction_warns(self, tmp_path):
        with pytest.warns(DeprecationWarning, match="open_catalog"):
            query = CatalogQuery(tmp_path / "cat")
        assert query.top_k(1) == []

    def test_facade_construction_does_not_warn(self, tmp_path, recwarn):
        query_for(tmp_path / "cat").top_k(1)
        assert not [w for w in recwarn if w.category is DeprecationWarning]
