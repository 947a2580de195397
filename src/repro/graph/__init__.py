"""Labeled-graph substrate for the SpiderMine reproduction.

Public surface:

* :class:`LabeledGraph` and :func:`graph_from_edges` — the mutable builder;
* :class:`FrozenGraph`, :func:`freeze` / :func:`thaw` — the immutable CSR
  snapshot the miners run on, and :class:`GraphView`, the read-only protocol
  both backends implement;
* traversal / metric helpers (:func:`diameter`, :func:`bfs_distances`, ...);
* :func:`canonical_code` / :func:`canonical_form` — canonical labeling;
* :class:`SubgraphMatcher` (candidate-domain engine), :func:`find_embeddings`,
  :func:`find_anchored_embeddings`, :func:`are_isomorphic`,
  :func:`matcher_digest` — the cross-backend parity fingerprint;
* random graph models and the paper's synthetic injection recipe;
* plain-text / JSON I/O;
* :mod:`~repro.graph.kernels` — the numpy kernels behind the CSR hot paths
  (domain seeding, arc consistency, row intersection, posting merge).
"""

from .labeled_graph import GraphError, LabeledGraph, graph_from_edges, normalise_edge
from .view import GraphView
from .frozen import GRAPH_BACKENDS, FrozenGraph, coerce_backend, freeze, thaw
from .algorithms import (
    bfs_distances,
    center_vertices,
    connected_components,
    degeneracy_ordered_independent_set,
    degree_histogram,
    diameter,
    eccentricity,
    effective_diameter,
    exact_maximum_independent_set,
    graph_radius,
    greedy_maximum_independent_set,
    is_connected,
    is_r_bounded_from,
    radius_from,
    shortest_path_length,
    spanning_tree_edges,
    triangles,
)
from .canonical import are_isomorphic_by_code, canonical_code, canonical_form, canonical_order
from .isomorphism import (
    MatcherStats,
    SubgraphMatcher,
    are_isomorphic,
    count_automorphisms,
    embedding_edge_image,
    embedding_image,
    find_anchored_embeddings,
    find_embeddings,
    matcher_digest,
    subgraph_exists,
)
from .generators import (
    InjectedPattern,
    SyntheticSingleGraph,
    assign_random_labels,
    barabasi_albert_graph,
    erdos_renyi_graph,
    inject_pattern,
    label_alphabet,
    random_connected_pattern,
    synthetic_single_graph,
)
from . import io
from . import kernels

__all__ = [
    "GraphError",
    "LabeledGraph",
    "graph_from_edges",
    "normalise_edge",
    "GraphView",
    "FrozenGraph",
    "GRAPH_BACKENDS",
    "coerce_backend",
    "freeze",
    "thaw",
    "bfs_distances",
    "center_vertices",
    "connected_components",
    "degeneracy_ordered_independent_set",
    "degree_histogram",
    "diameter",
    "eccentricity",
    "effective_diameter",
    "exact_maximum_independent_set",
    "graph_radius",
    "greedy_maximum_independent_set",
    "is_connected",
    "is_r_bounded_from",
    "radius_from",
    "shortest_path_length",
    "spanning_tree_edges",
    "triangles",
    "are_isomorphic_by_code",
    "canonical_code",
    "canonical_form",
    "canonical_order",
    "MatcherStats",
    "SubgraphMatcher",
    "are_isomorphic",
    "count_automorphisms",
    "embedding_edge_image",
    "embedding_image",
    "find_anchored_embeddings",
    "find_embeddings",
    "matcher_digest",
    "subgraph_exists",
    "InjectedPattern",
    "SyntheticSingleGraph",
    "assign_random_labels",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "inject_pattern",
    "label_alphabet",
    "random_connected_pattern",
    "synthetic_single_graph",
    "io",
]
