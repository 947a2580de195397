"""Unit tests for the growth engine (Occurrence, SpiderGrow, CheckMerge)."""

from __future__ import annotations

import pytest

from repro.core import (
    GrowthEngine,
    Occurrence,
    SpiderMine,
    SpiderMineConfig,
    build_spider_index,
    mine_spiders,
    occurrence_code,
    occurrence_support,
    occurrences_to_pattern,
)
from repro.graph import LabeledGraph, SubgraphMatcher
from repro.graph.labeled_graph import normalise_edge
from repro.patterns import SupportMeasure


def ladder_graph() -> LabeledGraph:
    """Two copies of a 6-vertex labeled path (a simple 'large pattern' with support 2)."""
    graph = LabeledGraph()
    labels = ["A", "B", "C", "D", "E", "F"]
    for base in (0, 100):
        for i, label in enumerate(labels):
            graph.add_vertex(base + i, label)
        for i in range(len(labels) - 1):
            graph.add_edge(base + i, base + i + 1)
    return graph


class TestOccurrence:
    def test_from_vertices_edges_normalises(self):
        occ = Occurrence.from_vertices_edges({2, 1}, {(2, 1)})
        assert occ.edges == frozenset({(1, 2)})
        assert occ.num_vertices == 2
        assert occ.num_edges == 1

    def test_union_and_overlap(self):
        a = Occurrence.from_vertices_edges({1, 2}, {(1, 2)})
        b = Occurrence.from_vertices_edges({2, 3}, {(2, 3)})
        c = Occurrence.from_vertices_edges({7, 8}, {(7, 8)})
        assert a.overlaps(b)
        assert not a.overlaps(c)
        union = a.union(b)
        assert union.vertices == frozenset({1, 2, 3})
        assert union.num_edges == 2

    def test_occurrence_code_matches_isomorphic_occurrences(self):
        graph = ladder_graph()
        occ_a = Occurrence.from_vertices_edges({0, 1}, {(0, 1)})
        occ_b = Occurrence.from_vertices_edges({100, 101}, {(100, 101)})
        assert occurrence_code(graph, occ_a) == occurrence_code(graph, occ_b)


class TestOccurrenceSupport:
    def test_disjoint_occurrences(self):
        occs = [
            Occurrence.from_vertices_edges({1, 2}, {(1, 2)}),
            Occurrence.from_vertices_edges({3, 4}, {(3, 4)}),
        ]
        assert occurrence_support(occs, SupportMeasure.HARMFUL_OVERLAP) == 2
        assert occurrence_support(occs, SupportMeasure.EDGE_DISJOINT) == 2
        assert occurrence_support(occs, SupportMeasure.EMBEDDING_IMAGES) == 2

    def test_vertex_overlapping_occurrences(self):
        occs = [
            Occurrence.from_vertices_edges({1, 2}, {(1, 2)}),
            Occurrence.from_vertices_edges({2, 3}, {(2, 3)}),
        ]
        assert occurrence_support(occs, SupportMeasure.HARMFUL_OVERLAP) == 1
        assert occurrence_support(occs, SupportMeasure.EDGE_DISJOINT) == 2

    def test_duplicate_occurrences_counted_once(self):
        occ = Occurrence.from_vertices_edges({1, 2}, {(1, 2)})
        assert occurrence_support([occ, occ], SupportMeasure.EMBEDDING_IMAGES) == 1


class TestOccurrencesToPattern:
    def test_pattern_and_embeddings(self):
        graph = ladder_graph()
        occs = [
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 1), (1, 2)}),
            Occurrence.from_vertices_edges({100, 101, 102}, {(100, 101), (101, 102)}),
        ]
        pattern = occurrences_to_pattern(graph, occs)
        assert pattern.num_vertices == 3
        assert pattern.num_edges == 2
        assert pattern.support == 2
        assert pattern.verify_embeddings(graph)

    def test_empty_occurrences_raises(self):
        with pytest.raises(ValueError):
            occurrences_to_pattern(ladder_graph(), [])

    def test_pattern_is_numbered_by_canonical_position(self):
        graph = ladder_graph()
        occs = [Occurrence.from_vertices_edges({2, 3, 4}, {(2, 3), (3, 4)})]
        pattern = occurrences_to_pattern(graph, occs)
        assert sorted(pattern.graph.vertices()) == [0, 1, 2]
        assert pattern.code == occurrence_code(graph, occs[0])

    def test_harmful_overlap_embeddings_land_on_their_occurrences(self):
        """Overlapping occurrences of a symmetric pattern: A-paths through B hubs."""
        graph = LabeledGraph()
        for v, label in enumerate("ABAABA"):
            graph.add_vertex(v, label)
        for u, v in [(0, 1), (1, 2), (2, 4), (3, 4), (4, 5), (1, 3)]:
            graph.add_edge(u, v)
        occs = [
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 1), (1, 2)}),
            Occurrence.from_vertices_edges({3, 4, 5}, {(3, 4), (4, 5)}),
            Occurrence.from_vertices_edges({2, 4, 5}, {(2, 4), (4, 5)}),
            Occurrence.from_vertices_edges({0, 1, 3}, {(0, 1), (1, 3)}),
            # A repeat of the first: counted once.
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 1), (1, 2)}),
        ]
        pattern = occurrences_to_pattern(graph, occs, SupportMeasure.HARMFUL_OVERLAP)
        assert_embeddings_land_on(pattern, occs[:4])
        assert pattern.verify_embeddings(graph)

    @pytest.mark.parametrize("measure", [
        SupportMeasure.EDGE_DISJOINT, SupportMeasure.HARMFUL_OVERLAP,
    ])
    def test_same_vertices_different_edges(self, measure):
        """Three A-A-A paths on one triangle of a same-label 4-clique."""
        graph = LabeledGraph()
        for v in range(4):
            graph.add_vertex(v, "A")
        for u in range(4):
            for v in range(u + 1, 4):
                graph.add_edge(u, v)
        occs = [
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 1), (1, 2)}),
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 2), (1, 2)}),
            Occurrence.from_vertices_edges({0, 1, 2}, {(0, 1), (0, 2)}),
            Occurrence.from_vertices_edges({1, 2, 3}, {(1, 3), (2, 3)}),
        ]
        pattern = occurrences_to_pattern(graph, occs, measure)
        if measure is SupportMeasure.EDGE_DISJOINT:
            assert_embeddings_land_on(pattern, occs)
        else:
            assert_embeddings_land_on(pattern, [occs[0], occs[3]])
        assert pattern.verify_embeddings(graph)

    def test_mismatched_codes_raise(self):
        graph = ladder_graph()
        occs = [
            Occurrence.from_vertices_edges({0, 1}, {(0, 1)}),
            Occurrence.from_vertices_edges({1, 2}, {(1, 2)}),
        ]
        with pytest.raises(ValueError, match="differs"):
            occurrences_to_pattern(graph, occs)

    @pytest.mark.parametrize("measure", [
        SupportMeasure.HARMFUL_OVERLAP, SupportMeasure.EDGE_DISJOINT,
    ])
    def test_mining_builds_no_matcher(self, planted_dataset, monkeypatch, measure):
        def refuse(self, *args, **kwargs):
            raise AssertionError("mining built a SubgraphMatcher")

        monkeypatch.setattr(SubgraphMatcher, "__init__", refuse)
        config = SpiderMineConfig(
            min_support=2, k=5, d_max=6, seed=0, support_measure=measure
        )
        result = SpiderMine(planted_dataset.graph, config).mine()
        assert result.patterns
        for pattern in result.patterns:
            assert pattern.verify_embeddings(planted_dataset.graph)


def assert_embeddings_land_on(pattern, occurrences):
    """Embedding ``i`` maps the pattern onto exactly ``occurrences[i]``."""
    assert len(pattern.embeddings) == len(occurrences)
    pattern_edges = list(pattern.graph.edges())
    for embedding, occ in zip(pattern.embeddings, occurrences):
        mapping = embedding.to_dict()
        assert set(mapping.values()) == occ.vertices
        assert {normalise_edge(mapping[u], mapping[v]) for u, v in pattern_edges} == occ.edges


def make_engine(graph, **config_kwargs):
    config = SpiderMineConfig(min_support=2, k=5, d_max=6, **config_kwargs)
    spiders = mine_spiders(graph, min_support=2, radius=config.radius)
    index = build_spider_index(spiders)
    return GrowthEngine(graph, index, config), spiders, config


class TestGrowthEngine:
    def test_seed_entries_group_by_code(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        assert entries
        for code, entry in entries.items():
            assert entry.code == code
            assert entry.occurrences

    def test_grow_increases_max_size(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        before = max(max(o.num_vertices for o in e.occurrences) for e in entries.values())
        grown = engine.grow(entries)
        after = max(max(o.num_vertices for o in e.occurrences) for e in grown.values())
        assert after >= before

    def test_grown_entries_remain_frequent(self):
        graph = ladder_graph()
        engine, spiders, config = make_engine(graph)
        entries = engine.seed_entries(spiders)
        grown = engine.grow(entries)
        for entry in grown.values():
            assert occurrence_support(entry.occurrences, config.support_measure) >= 2

    def test_repeated_growth_converges_to_full_pattern(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        for _ in range(5):
            entries = engine.grow(entries)
        best = max(max(o.num_vertices for o in e.occurrences) for e in entries.values())
        assert best == 6  # the full planted 6-vertex path

    def test_merge_flags_set_when_lineages_meet(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        for _ in range(3):
            entries = engine.grow(entries)
        assert any(e.merged for e in entries.values())

    def test_merge_disabled(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        grown = engine.grow(entries, merge_enabled=False)
        assert engine.merge_events == 0
        assert grown

    def test_unextendable_entry_carried_forward(self):
        graph = LabeledGraph()
        # Two isolated frequent edges with a unique label pair: nothing to grow into.
        for base in (0, 10):
            graph.add_vertex(base, "X")
            graph.add_vertex(base + 1, "Y")
            graph.add_edge(base, base + 1)
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        grown = engine.grow(entries)
        best = max(max(o.num_vertices for o in e.occurrences) for e in grown.values())
        assert best == 2  # carried over, not lost

    def test_max_patterns_per_iteration_cap(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph, max_patterns_per_iteration=3)
        entries = engine.seed_entries(spiders)
        grown = engine.grow(entries)
        assert len(grown) <= 3

    def test_subsumption_pruning_removes_contained_entries(self):
        graph = ladder_graph()
        engine, spiders, _ = make_engine(graph)
        entries = engine.seed_entries(spiders)
        for _ in range(4):
            entries = engine.grow(entries)
        # After convergence the 6-vertex path dominates; smaller sub-paths that
        # are fully covered must have been pruned away.
        sizes = sorted(
            max(o.num_vertices for o in e.occurrences) for e in entries.values()
        )
        assert sizes[-1] == 6
        assert len([s for s in sizes if s <= 2]) == 0
