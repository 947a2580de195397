"""Tests for the shared overlap engine (repro.patterns.overlap).

The engine is digest-critical: every support value — hence every mining
result digest and catalog cache key — flows through its conflict graphs.
The property tests here pin the two parity contracts the refactor rests on:

* the inverted-index conflict graph equals the all-pairs reference
  construction (same adjacency, same 0..n-1 key order), and
* ``occurrence_support`` agrees with ``harmful_overlap_support`` when both
  are computed from the same embeddings.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Occurrence, occurrence_support
from repro.graph import (
    LabeledGraph,
    degeneracy_ordered_independent_set,
    greedy_maximum_independent_set,
)
from repro.patterns import (
    EmbeddingIndex,
    Embedding,
    Pattern,
    SupportMeasure,
    conflict_digest,
    harmful_overlap_support,
    independent_set_size,
    max_independent_set,
)
from tests.oracles.overlap_reference import conflict_graph_all_pairs

COMMON_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = ["A", "B"]


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def embedded_patterns(draw):
    """A small dense-ish labeled graph plus a tiny pattern with its embeddings."""
    n = draw(st.integers(min_value=2, max_value=7))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(i, draw(st.sampled_from(LABELS)))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(i, j)
    size = draw(st.integers(min_value=1, max_value=3))
    pattern_graph = LabeledGraph()
    for i in range(size):
        pattern_graph.add_vertex(i, draw(st.sampled_from(LABELS)))
        if i:
            pattern_graph.add_edge(i - 1, i)
    pattern = Pattern(graph=pattern_graph)
    pattern.recompute_embeddings(graph, limit=40)
    return pattern


@st.composite
def conflict_graphs(draw):
    """Random undirected adjacency dicts keyed 0..n-1."""
    n = draw(st.integers(min_value=0, max_value=12))
    adjacency = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


# --------------------------------------------------------------------------- #
# EmbeddingIndex basics
# --------------------------------------------------------------------------- #
class TestEmbeddingIndex:
    def _chain_pattern_and_embeddings(self):
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_edge(0, 1)
        embeddings = [
            Embedding.from_dict({0: 0, 1: 1}),
            Embedding.from_dict({0: 1, 1: 2}),
            Embedding.from_dict({0: 3, 1: 4}),
        ]
        return pattern, embeddings

    def test_inverted_maps(self):
        pattern, embeddings = self._chain_pattern_and_embeddings()
        index = EmbeddingIndex.from_embeddings(embeddings, pattern)
        assert len(index) == 3
        assert index.vertex_map[1] == [0, 1]
        assert index.vertex_map[3] == [2]
        assert index.edge_map[(0, 1)] == [0]
        assert index.edge_map[(1, 2)] == [1]

    def test_conflict_graph_vertex_based(self):
        pattern, embeddings = self._chain_pattern_and_embeddings()
        index = EmbeddingIndex.from_embeddings(embeddings, pattern)
        assert index.conflict_graph(edge_based=False) == {0: {1}, 1: {0}, 2: set()}
        assert index.conflict_graph(edge_based=True) == {0: set(), 1: set(), 2: set()}

    def test_from_occurrences(self):
        occs = [
            Occurrence.from_vertices_edges({1, 2}, {(1, 2)}),
            Occurrence.from_vertices_edges({2, 3}, {(2, 3)}),
        ]
        index = EmbeddingIndex.from_occurrences(occs)
        assert index.conflict_graph(edge_based=False) == {0: {1}, 1: {0}}
        assert index.conflict_graph(edge_based=True) == {0: set(), 1: set()}


# --------------------------------------------------------------------------- #
# parity properties
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(pattern=embedded_patterns(), edge_based=st.booleans())
def test_index_conflict_graph_equals_all_pairs(pattern, edge_based):
    """The tentpole contract: inverted-index build == O(n²) reference build."""
    index = EmbeddingIndex.from_embeddings(pattern.embeddings, pattern.graph)
    fast = index.conflict_graph(edge_based=edge_based)
    reference = conflict_graph_all_pairs(index.images(edge_based))
    assert fast == reference
    assert list(fast) == list(reference)  # same 0..n-1 key insertion order
    assert conflict_digest(fast) == conflict_digest(reference)


@COMMON_SETTINGS
@given(pattern=embedded_patterns())
def test_occurrence_support_matches_harmful_overlap_support(pattern):
    """Occurrence-level and embedding-level harmful overlap must agree."""
    occurrences = [
        Occurrence.from_embedding(pattern.graph, e) for e in pattern.embeddings
    ]
    assert occurrence_support(
        occurrences, SupportMeasure.HARMFUL_OVERLAP
    ) == harmful_overlap_support(pattern.embeddings, pattern.graph)


@COMMON_SETTINGS
@given(pattern=embedded_patterns())
def test_edge_disjoint_occurrence_and_embedding_paths_agree(pattern):
    from repro.patterns import edge_disjoint_support

    occurrences = [
        Occurrence.from_embedding(pattern.graph, e) for e in pattern.embeddings
    ]
    assert occurrence_support(
        occurrences, SupportMeasure.EDGE_DISJOINT
    ) == edge_disjoint_support(pattern.embeddings, pattern.graph)


# --------------------------------------------------------------------------- #
# independent sets
# --------------------------------------------------------------------------- #
@COMMON_SETTINGS
@given(adjacency=conflict_graphs())
def test_degeneracy_greedy_is_independent_and_bounded(adjacency):
    chosen = degeneracy_ordered_independent_set(adjacency)
    for v in chosen:
        assert not (adjacency[v] & chosen)
    # Lower-bounded by nothing smaller than... and never above the exact MIS.
    exact = max_independent_set(adjacency, exact_limit=12)
    assert len(chosen) <= len(exact)
    # Isolated vertices are always picked.
    isolated = {v for v, n in adjacency.items() if not n}
    assert isolated <= chosen


@COMMON_SETTINGS
@given(adjacency=conflict_graphs())
def test_degeneracy_greedy_is_deterministic(adjacency):
    assert degeneracy_ordered_independent_set(
        adjacency
    ) == degeneracy_ordered_independent_set({v: set(n) for v, n in adjacency.items()})


def test_degeneracy_greedy_beats_static_greedy_on_a_skewed_instance():
    """The motivating case: updating degrees after removals pays off.

    A hub adjacent to many leaves, where the leaves are also chained in
    pairs: after the first removals the static initial degrees mislead the
    classic greedy, while the degeneracy order re-ranks and picks more.
    """
    rng = random.Random(3)
    n = 40
    adjacency = {i: set() for i in range(n)}

    def connect(a, b):
        adjacency[a].add(b)
        adjacency[b].add(a)

    for i in range(1, n):
        if rng.random() < 0.4:
            connect(0, i)
    for i in range(1, n - 1, 2):
        connect(i, i + 1)
    degen = degeneracy_ordered_independent_set(adjacency)
    static = greedy_maximum_independent_set(adjacency)
    assert len(degen) >= len(static)


def test_independent_set_size_switches_to_greedy_above_limit():
    # A 20-clique: exact would find 1; the greedy fallback must also find 1.
    clique = {i: set(range(20)) - {i} for i in range(20)}
    assert independent_set_size(clique, exact_limit=18) == 1
    # An empty conflict graph of the same size keeps everything.
    empty = {i: set() for i in range(20)}
    assert independent_set_size(empty, exact_limit=18) == 20
