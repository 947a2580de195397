"""The integer-row canonical labelling equals the graph-based reference exactly.

``tests/oracles/canonical_reference.py`` keeps the earlier implementation
that worked over ``LabeledGraph`` objects.  Order and code must match it for
every graph — including the same-label stars, cliques and cycles that
exercise twin pruning and branching — and for head-tagged spider codes and
occurrence codes, which no longer build a graph at all.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.growth import Occurrence, occurrence_code
from repro.graph import LabeledGraph, canonical_code, canonical_order
from repro.patterns.spider import head_distinguished_code
from tests.oracles.canonical_reference import (
    reference_code,
    reference_head_code,
    reference_order,
)

PARITY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _edges_for(shape: str, n: int, draw) -> list:
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n >= 3 else [(0, 1)][: n - 1]
    if shape == "two-cycles":
        half = n // 2
        first = [(i, (i + 1) % half) for i in range(half)] if half >= 3 else []
        rest = n - half
        second = [(half + i, half + (i + 1) % rest) for i in range(rest)] if rest >= 3 else []
        return first + second
    return [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]


@st.composite
def labelled_graphs(draw):
    """Small graphs whose insertion order, vertex names and repr order all differ."""
    shape = draw(st.sampled_from(["star", "clique", "cycle", "two-cycles", "random"]))
    n = draw(st.integers(min_value=0 if shape == "random" else 1, max_value=8))
    same_label = shape != "random" and draw(st.booleans())
    labels = ["A"] * n if same_label else [draw(st.sampled_from("AAB")) for _ in range(n)]
    # Names mix ints and strings so repr order is neither numeric nor insertion.
    pool = draw(st.permutations([7, 12, 100, 3, "v10", "v9", "b", "a2", 41, "z"]))
    names = list(pool[:n])
    insertion = draw(st.permutations(list(range(n))))
    graph = LabeledGraph()
    for i in insertion:
        graph.add_vertex(names[i], labels[i])
    for u, v in _edges_for(shape, n, draw):
        if u != v and not graph.has_edge(names[u], names[v]):
            graph.add_edge(names[u], names[v])
    return graph


@PARITY_SETTINGS
@given(graph=labelled_graphs())
def test_order_and_code_equal_the_reference(graph):
    assert canonical_order(graph) == reference_order(graph)
    assert canonical_code(graph) == reference_code(graph)


@PARITY_SETTINGS
@given(graph=labelled_graphs(), pick=st.integers(min_value=0, max_value=10))
def test_head_tagged_code_equals_the_reference(graph, pick):
    vertices = list(graph.vertices())
    if not vertices:
        return
    head = vertices[pick % len(vertices)]
    assert head_distinguished_code(graph, head) == reference_head_code(graph, head)


@PARITY_SETTINGS
@given(graph=labelled_graphs())
def test_occurrence_code_equals_the_reference(graph):
    occurrence = Occurrence.from_vertices_edges(graph.vertices(), graph.edges())
    assert occurrence_code(graph, occurrence) == reference_code(graph)


def test_fixed_symmetric_shapes_equal_the_reference():
    """Deterministic cases: large twin classes and vertex-transitive graphs."""
    def build(n, edges, label="A"):
        graph = LabeledGraph()
        for v in reversed(range(n)):
            graph.add_vertex(v, label)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    shapes = [
        build(9, [(0, i) for i in range(1, 9)]),                          # star K1,8
        build(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]),     # clique K7
        build(10, [(i, (i + 1) % 10) for i in range(10)]),                 # cycle C10
        build(8, [(i, (i + 1) % 4) for i in range(4)]
              + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]),             # 2 x C4
        build(6, [(i, j) for i in range(3) for j in range(3, 6)]),         # K3,3
    ]
    for graph in shapes:
        assert canonical_order(graph) == reference_order(graph)
        assert canonical_code(graph) == reference_code(graph)
        for head in graph.vertices():
            assert head_distinguished_code(graph, head) == reference_head_code(graph, head)
