"""Canonical forms for small labeled graphs.

Graph miners constantly need to answer "have I generated this pattern
before?".  The expensive way is pairwise isomorphism testing; the standard
trick — used by gSpan's DFS codes and by our SpiderMine implementation — is to
map every pattern to a *canonical code*: a string such that two labeled graphs
receive the same string iff they are isomorphic.

For the small graphs that appear as patterns (tens of vertices) a refinement +
backtracking canonicalisation is plenty fast and, unlike heuristic codes, is
exact.  The algorithm:

1. Colour vertices by (label, degree) and iteratively refine colours by the
   multiset of neighbour colours (1-dimensional Weisfeiler–Leman).
2. If the colouring is discrete we are done; otherwise branch on every vertex
   of the first non-singleton colour class (individualisation-refinement) and
   keep the lexicographically smallest resulting adjacency code.

Everything runs over **integer rows**: vertex ``i`` is the ``i``-th vertex
of the input, ``labels[i]`` is the ``repr`` of its label and ``rows[i]`` the
frozenset of its neighbours' indices.  One pass, :func:`_canonical`, returns
the winning order *and* its code together, so no code is serialised twice and
no graph object is built.  Callers that hold a vertex set and an edge set
(occurrences in the growth engine, head-tagged spiders) use
:func:`labelled_code` directly.

Branching contract: the members of the target colour class are tried in
``repr`` order of the original vertex names (``rank``), and the first order
that reaches the smallest code wins.  The code never depends on this order;
the returned *order* does, among automorphic alternatives, so it is fixed.

The resulting :func:`canonical_code` is used as a dict key everywhere patterns
are deduplicated, and :func:`canonical_form` returns an isomorphic copy of the
graph on vertices ``0..n-1`` in canonical order.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .labeled_graph import Label, LabeledGraph, Vertex

Rows = Sequence[FrozenSet[int]]


def _refine(rows: Rows, colors: List[int]) -> List[int]:
    """Iteratively refine ``colors`` until stable (1-WL with initial colours)."""
    current = colors
    while True:
        signatures = [
            (current[v], tuple(sorted([current[u] for u in row])))
            for v, row in enumerate(rows)
        ]
        # Re-index signatures to compact integers, ordered by signature value.
        index = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = [index[sig] for sig in signatures]
        if refined == current:
            return refined
        current = refined


def _code_for_order(labels: Sequence[str], rows: Rows, order: Sequence[int]) -> str:
    """Serialise the graph under a total vertex order into a code string."""
    n = len(order)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    edge_bits: List[str] = []
    for i, u in enumerate(order):
        row = ["0"] * (n - i - 1)
        for w in rows[u]:
            j = position[w] - i - 1
            if j >= 0:
                row[j] = "1"
        edge_bits.append("".join(row))
    return ",".join([labels[v] for v in order]) + "|" + "|".join(edge_bits)


def _canonical(labels: Sequence[str], rows: Rows, rank: Sequence[int]) -> Tuple[List[int], str]:
    """The canonical ``(order, code)`` of an integer-row graph, in one search."""
    n = len(labels)
    keys = [(labels[v], len(rows[v])) for v in range(n)]
    index = {key: i for i, key in enumerate(sorted(set(keys)))}
    best_code: Optional[str] = None
    best_order: List[int] = []

    def search(colors: List[int]) -> None:
        nonlocal best_code, best_order
        colors = _refine(rows, colors)
        # Refined colours are compact (0..k-1), so the colouring is discrete
        # exactly when every index is used.
        if max(colors, default=-1) == n - 1:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            code = _code_for_order(labels, rows, order)
            if best_code is None or code < best_code:
                best_code = code
                best_order = order
            return
        classes: dict = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = next(classes[c] for c in sorted(classes) if len(classes[c]) > 1)
        # Individualise each vertex of the first non-singleton class.  Vertices
        # of the class that are *twins* (identical open or closed labeled
        # neighbourhoods) are interchangeable by an automorphism that swaps
        # only the two of them, so branching on one representative per twin
        # group is enough — this is what keeps stars/cliques of same-label
        # vertices (common in label-poor graphs) from exploding the search.
        new_color = len(classes)
        seen_twin_keys = set()
        for v in sorted(target, key=rank.__getitem__):
            neighbors = rows[v]
            open_key = ("o", neighbors)
            closed_key = ("c", neighbors | {v})
            if open_key in seen_twin_keys or closed_key in seen_twin_keys:
                continue
            seen_twin_keys.add(open_key)
            seen_twin_keys.add(closed_key)
            branched = list(colors)
            branched[v] = new_color
            search(branched)

    if n:
        search([index[key] for key in keys])
    else:
        best_code = _code_for_order(labels, rows, [])
    return best_order, best_code


def _repr_rank(vertices: Sequence[Vertex]) -> List[int]:
    """``rank[i]`` is vertex ``i``'s position in a stable ``repr`` sort."""
    rank = [0] * len(vertices)
    for r, i in enumerate(sorted(range(len(vertices)), key=lambda i: repr(vertices[i]))):
        rank[i] = r
    return rank


def labelled_code(
    vertices: Iterable[Vertex],
    label: Callable[[Vertex], Label],
    edges: Iterable[Tuple[Vertex, Vertex]],
) -> str:
    """Canonical code of the graph on ``vertices`` with ``edges``, labelled by ``label``.

    Equal to :func:`canonical_code` of the :class:`LabeledGraph` built from
    the same parts, without building it.  Every edge endpoint must be one of
    ``vertices``.
    """
    vertices = list(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency: List[List[int]] = [[] for _ in vertices]
    for u, v in edges:
        a, b = index[u], index[v]
        adjacency[a].append(b)
        adjacency[b].append(a)
    rows = [frozenset(adj) for adj in adjacency]
    labels = [repr(label(v)) for v in vertices]
    return _canonical(labels, rows, _repr_rank(vertices))[1]


def _graph_canonical(graph: LabeledGraph) -> Tuple[List[Vertex], str]:
    vertices = list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    rows = [frozenset([index[u] for u in graph.neighbors(v)]) for v in vertices]
    labels = [repr(graph.label(v)) for v in vertices]
    order, code = _canonical(labels, rows, _repr_rank(vertices))
    return [vertices[i] for i in order], code


def canonical_order(graph: LabeledGraph) -> List[Vertex]:
    """The canonical vertex ordering of ``graph`` (stable across isomorphic copies)."""
    return _graph_canonical(graph)[0]


def canonical_code(graph: LabeledGraph) -> str:
    """A string equal for two labeled graphs iff they are isomorphic."""
    return _graph_canonical(graph)[1]


def canonical_form(graph: LabeledGraph) -> LabeledGraph:
    """An isomorphic copy of ``graph`` on vertices ``0..n-1`` in canonical order."""
    order = canonical_order(graph)
    mapping = {v: i for i, v in enumerate(order)}
    return graph.relabeled(mapping)


def are_isomorphic_by_code(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact labeled-graph isomorphism decided through canonical codes."""
    if first.num_vertices != second.num_vertices or first.num_edges != second.num_edges:
        return False
    if first.label_counts() != second.label_counts():
        return False
    return canonical_code(first) == canonical_code(second)
