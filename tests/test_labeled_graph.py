"""Unit tests for the LabeledGraph substrate."""

from __future__ import annotations

import pytest

from repro.graph import GraphError, LabeledGraph, graph_from_edges


class TestConstruction:
    def test_empty_graph(self):
        graph = LabeledGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.vertices()) == []
        assert list(graph.edges()) == []

    def test_add_vertex_and_label(self):
        graph = LabeledGraph()
        graph.add_vertex("v", "A")
        assert "v" in graph
        assert graph.label("v") == "A"
        assert graph.num_vertices == 1

    def test_add_vertex_idempotent_same_label(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        graph.add_vertex(1, "A")
        assert graph.num_vertices == 1

    def test_add_vertex_conflicting_label_raises(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        with pytest.raises(GraphError):
            graph.add_vertex(1, "B")

    def test_add_edge_requires_vertices(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        with pytest.raises(GraphError):
            graph.add_edge(1, 2)

    def test_add_edge_and_neighbors(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        graph.add_vertex(2, "B")
        graph.add_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)
        assert graph.neighbors(1) == frozenset({2})
        assert graph.num_edges == 1

    def test_add_edge_duplicate_is_noop(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        graph.add_vertex(2, "B")
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_graph_from_edges(self):
        graph = graph_from_edges([(1, 2), (2, 3)], {1: "A", 2: "B", 3: "C", 4: "D"})
        assert graph.num_vertices == 4
        assert graph.num_edges == 2
        assert graph.degree(4) == 0

    def test_graph_from_edges_missing_label_raises(self):
        with pytest.raises(GraphError):
            graph_from_edges([(1, 2)], {1: "A"})


class TestRemoval:
    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge(0, 99)

    def test_remove_vertex_removes_incident_edges(self, triangle):
        triangle.remove_vertex(0)
        assert 0 not in triangle
        assert triangle.num_edges == 1
        assert triangle.num_vertices == 2

    def test_remove_missing_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_vertex(42)

    def test_label_index_updated_on_removal(self, triangle):
        label = triangle.label(0)
        triangle.remove_vertex(0)
        assert 0 not in triangle.vertices_with_label(label)


class TestInspection:
    def test_label_counts(self, two_copy_graph):
        counts = two_copy_graph.label_counts()
        assert counts["A"] == 2
        assert counts["Z"] == 1

    def test_vertices_with_label(self, two_copy_graph):
        assert two_copy_graph.vertices_with_label("A") == frozenset({0, 10})
        assert two_copy_graph.vertices_with_label("missing") == frozenset()

    def test_degree_and_average_degree(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.average_degree() == pytest.approx(2.0)
        assert triangle.max_degree() == 2

    def test_degree_missing_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.degree(42)

    def test_degree_sequence(self, star3):
        assert star3.degree_sequence() == [3, 1, 1, 1]

    def test_density(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_density_small_graphs(self):
        graph = LabeledGraph()
        assert graph.density() == 0.0
        graph.add_vertex(0, "A")
        assert graph.density() == 0.0

    def test_edges_listed_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        normalised = {tuple(sorted(e)) for e in edges}
        assert normalised == {(0, 1), (0, 2), (1, 2)}

    def test_label_missing_vertex_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.label(99)

    def test_len_and_iter(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_equality(self, triangle):
        assert triangle == triangle.copy()
        other = triangle.copy()
        other.remove_edge(0, 1)
        assert triangle != other

    def test_graphs_unhashable(self, triangle):
        with pytest.raises(TypeError):
            hash(triangle)

    def test_subgraph_induced(self, two_copy_graph):
        sub = two_copy_graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_subgraph_unknown_vertex_raises(self, triangle):
        from repro.graph import GraphError
        with pytest.raises(GraphError):
            triangle.subgraph([0, 99])

    def test_edge_subgraph(self, triangle):
        sub = triangle.edge_subgraph([(0, 1)])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1

    def test_edge_subgraph_missing_edge_raises(self, path4):
        with pytest.raises(GraphError):
            path4.edge_subgraph([(0, 3)])

    def test_relabeled_default(self, two_copy_graph):
        renamed = two_copy_graph.relabeled()
        assert set(renamed.vertices()) == set(range(two_copy_graph.num_vertices))
        assert renamed.num_edges == two_copy_graph.num_edges
        assert renamed.label_counts() == two_copy_graph.label_counts()

    def test_relabeled_explicit_mapping(self, triangle):
        mapping = {0: "x", 1: "y", 2: "z"}
        renamed = triangle.relabeled(mapping)
        assert renamed.has_edge("x", "y")
        assert renamed.label("x") == triangle.label(0)


class TestTraversalHelpers:
    def test_bfs_within_radius(self, path4):
        dist = path4.bfs_within(0, 2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_bfs_within_zero(self, path4):
        assert path4.bfs_within(2, 0) == {2: 0}

    def test_bfs_within_negative_raises(self, path4):
        with pytest.raises(GraphError):
            path4.bfs_within(0, -1)

    def test_bfs_within_missing_source_raises(self, path4):
        with pytest.raises(GraphError):
            path4.bfs_within(77, 1)

    def test_neighborhood_subgraph(self, star3):
        sub = star3.neighborhood_subgraph(0, 1)
        assert sub.num_vertices == 4
        assert sub.num_edges == 3
        leaf_sub = star3.neighborhood_subgraph(1, 1)
        assert leaf_sub.num_vertices == 2
