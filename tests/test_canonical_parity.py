"""The integer-row canonical labelling equals the graph-based reference exactly.

``tests/oracles/canonical_reference.py`` keeps the earlier implementation
that worked over ``LabeledGraph`` objects.  Order and code must match it for
every graph — including the same-label stars, cliques and cycles that
exercise twin pruning and branching, and the many-label graphs whose
initial colouring is already discrete — and for head-tagged spider codes and
occurrence codes, which no longer build a graph at all.
"""

from __future__ import annotations

import gc

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SpiderMineConfig
from repro.core.growth import GrowthEngine, Occurrence, occurrence_code
from repro.graph import LabeledGraph, canonical_code, canonical_order
from repro.graph.canonical import CodeTable
from repro.patterns.spider import head_distinguished_canonical, head_distinguished_code
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


@st.composite
def many_label_graphs(draw):
    """Up to 30 vertices over many labels: mostly discrete initial colourings, long rows."""
    n = draw(st.integers(min_value=0, max_value=30))
    names = draw(st.permutations(list(range(n)) + [f"v{i}" for i in range(n)]))[:n]
    labels = [draw(st.integers(min_value=0, max_value=3 * n)) for _ in range(n)]
    density = draw(st.sampled_from([0.08, 0.2, 0.5]))
    graph = LabeledGraph()
    for name, label in zip(names, labels):
        graph.add_vertex(name, label)
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(min_value=0, max_value=1)) < density:
                graph.add_edge(names[i], names[j])
    return graph


def _subgraph(graph, edges) -> LabeledGraph:
    sub = LabeledGraph()
    for v in graph.vertices():
        sub.add_vertex(v, graph.label(v))
    for u, v in edges:
        sub.add_edge(u, v)
    return sub


@PARITY_SETTINGS
@given(graph=st.one_of(labelled_graphs(), many_label_graphs()))
def test_order_and_code_equal_the_reference(graph):
    assert canonical_order(graph) == reference_order(graph)
    assert canonical_code(graph) == reference_code(graph)


@PARITY_SETTINGS
@given(
    graph=st.one_of(labelled_graphs(), many_label_graphs()),
    pick=st.integers(min_value=0, max_value=30),
)
def test_head_tagged_code_equals_the_reference(graph, pick):
    vertices = list(graph.vertices())
    if not vertices:
        return
    head = vertices[pick % len(vertices)]
    assert head_distinguished_code(graph, head) == reference_head_code(graph, head)
    order, code = head_distinguished_canonical(graph, head)
    assert code == reference_head_code(graph, head)
    assert sorted(order, key=repr) == sorted(vertices, key=repr)


@PARITY_SETTINGS
@given(graph=st.one_of(labelled_graphs(), many_label_graphs()), data=st.data())
def test_occurrence_code_equals_the_reference(graph, data):
    """Over the frozen data graph, with and without its code table.

    The occurrence keeps a subset of the graph's edges, so it is not the
    induced subgraph of its vertices.
    """
    edges = [e for e in graph.edges() if data.draw(st.booleans())]
    occurrence = Occurrence.from_vertices_edges(graph.vertices(), edges)
    expected = reference_code(_subgraph(graph, edges))
    frozen = graph.freeze()
    assert occurrence_code(graph, occurrence) == expected
    assert occurrence_code(frozen, occurrence) == expected
    assert occurrence_code(frozen, occurrence, CodeTable(frozen)) == expected


def test_codes_follow_each_graph_when_a_freed_graph_id_is_reused():
    """Two data graphs coded one after the other in one process.

    The first graph (and its engine) is freed before the second, with the
    same vertex names but other labels, is built; a code table kept beyond
    its graph's life (say, a module cache keyed on ``id(graph)``) would code
    the second graph's occurrences with the first graph's labels.
    """
    def engine_codes(labels):
        graph = LabeledGraph()
        for v, label in enumerate(labels):
            graph.add_vertex(v, label)
        for v in range(1, len(labels)):
            graph.add_edge(v - 1, v)
        frozen = graph.freeze()
        engine = GrowthEngine(frozen, {}, SpiderMineConfig())
        occurrence = Occurrence.from_vertices_edges(graph.vertices(), graph.edges())
        return engine._code(occurrence), reference_code(graph)

    first, first_expected = engine_codes(["A", "B", "C", "D"])
    gc.collect()
    second, second_expected = engine_codes(["D", "D", "A", "B"])
    assert first == first_expected
    assert second == second_expected
    assert first != second


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
