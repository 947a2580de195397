"""Reference canonical labelling over ``LabeledGraph`` objects.

This is the dict-and-graph implementation that ``repro.graph.canonical``
shipped before it moved to integer rows.  It is kept verbatim as a test
oracle: the package's ``canonical_order`` / ``canonical_code`` /
``head_distinguished_code`` must return exactly what these functions return,
order for order and byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.graph.labeled_graph import LabeledGraph, Vertex

HEAD_TAG = "★"


def _refine(graph: LabeledGraph, colors: Dict[Vertex, int]) -> Dict[Vertex, int]:
    """Iteratively refine ``colors`` until stable (1-WL with initial colours)."""
    vertices = list(graph.vertices())
    current = dict(colors)
    while True:
        signatures = {}
        for v in vertices:
            neighbor_colors = sorted(current[u] for u in graph.neighbors(v))
            signatures[v] = (current[v], tuple(neighbor_colors))
        # Re-index signatures to compact integers, ordered by signature value.
        ordered = sorted(set(signatures.values()))
        index = {sig: i for i, sig in enumerate(ordered)}
        refined = {v: index[signatures[v]] for v in vertices}
        if refined == current:
            return refined
        current = refined


def _initial_colors(graph: LabeledGraph) -> Dict[Vertex, int]:
    vertices = list(graph.vertices())
    keys = {v: (repr(graph.label(v)), graph.degree(v)) for v in vertices}
    ordered = sorted(set(keys.values()))
    index = {key: i for i, key in enumerate(ordered)}
    return {v: index[keys[v]] for v in vertices}


def _color_classes(colors: Dict[Vertex, int]) -> List[List[Vertex]]:
    classes: Dict[int, List[Vertex]] = {}
    for v, c in colors.items():
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def _code_for_order(graph: LabeledGraph, order: Sequence[Vertex]) -> str:
    """Serialise the graph under a total vertex order into a code string."""
    label_part = ",".join(repr(graph.label(v)) for v in order)
    edge_bits: List[str] = []
    n = len(order)
    for i in range(n):
        u = order[i]
        nbrs = graph.neighbors(u)
        row = ["1" if order[j] in nbrs else "0" for j in range(i + 1, n)]
        edge_bits.append("".join(row))
    return label_part + "|" + "|".join(edge_bits)


def _canonical_order(graph: LabeledGraph) -> List[Vertex]:
    """Find the vertex order whose code is lexicographically smallest."""
    vertices = list(graph.vertices())
    if not vertices:
        return []

    best_code: Optional[str] = None
    best_order: List[Vertex] = []

    def search(colors: Dict[Vertex, int]) -> None:
        nonlocal best_code, best_order
        colors = _refine(graph, colors)
        classes = _color_classes(colors)
        target = next((c for c in classes if len(c) > 1), None)
        if target is None:
            order = sorted(vertices, key=lambda v: colors[v])
            code = _code_for_order(graph, order)
            if best_code is None or code < best_code:
                best_code = code
                best_order = order
            return
        # Individualise each vertex of the first non-singleton class.  Vertices
        # of the class that are *twins* (identical open or closed labeled
        # neighbourhoods) are interchangeable by an automorphism that swaps
        # only the two of them, so branching on one representative per twin
        # group is enough — this is what keeps stars/cliques of same-label
        # vertices (common in label-poor graphs) from exploding the search.
        new_color = max(colors.values()) + 1
        seen_twin_keys = set()
        for v in sorted(target, key=repr):
            neighbors = graph.neighbors(v)
            open_key = ("o", frozenset(neighbors))
            closed_key = ("c", frozenset(neighbors | {v}))
            if open_key in seen_twin_keys or closed_key in seen_twin_keys:
                continue
            seen_twin_keys.add(open_key)
            seen_twin_keys.add(closed_key)
            branched = dict(colors)
            branched[v] = new_color
            search(branched)

    search(_initial_colors(graph))
    return best_order


def reference_order(graph: LabeledGraph) -> List[Vertex]:
    return _canonical_order(graph)


def reference_code(graph: LabeledGraph) -> str:
    return _code_for_order(graph, _canonical_order(graph))


def reference_head_code(graph: LabeledGraph, head: Vertex) -> str:
    """The head-tagged spider code, built through a tagged copy of ``graph``."""
    tagged = LabeledGraph()
    for v in graph.vertices():
        label = graph.label(v)
        if v == head:
            label = f"{label}{HEAD_TAG}"
        tagged.add_vertex(v, label)
    for u, v in graph.edges():
        tagged.add_edge(u, v)
    return reference_code(tagged)
