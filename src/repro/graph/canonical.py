"""Canonical forms for small labeled graphs.

Graph miners constantly need to answer "have I generated this pattern
before?".  The expensive way is pairwise isomorphism testing; the standard
trick — used by gSpan's DFS codes and by our SpiderMine implementation — is to
map every pattern to a *canonical code*: a string such that two labeled graphs
receive the same string iff they are isomorphic.

For the small graphs that appear as patterns (tens of vertices) a refinement +
backtracking canonicalisation is plenty fast and, unlike heuristic codes, is
exact.  The algorithm:

1. Colour vertices by (label, degree).  If that colouring is already
   discrete — common when labels are many — refinement would be the
   identity and nothing branches: the order is the colour order, done.
2. Otherwise iteratively refine colours by the multiset of neighbour colours
   (1-dimensional Weisfeiler–Leman).
3. If the refined colouring is discrete we are done; otherwise branch on
   every vertex of the first non-singleton colour class
   (individualisation-refinement) and keep the lexicographically smallest
   resulting adjacency code.

Everything runs over **integer rows**: vertex ``i`` is the ``i``-th vertex
of the input, ``labels[i]`` is the ``repr`` of its label and ``rows[i]`` the
set of its neighbours' indices.  One pass, :func:`_canonical`, returns the
winning order *and* its code together, so no code is serialised twice and no
graph object is built.  Callers that hold a vertex set and an edge set use
:func:`labelled_canonical` (head-tagged spiders keep its order to align two
candidates); a caller that codes many subsets of one data graph (the growth
engine's occurrences) builds that graph's :class:`CodeTable` once and codes
through it.

Branching contract: the members of the target colour class are tried in
``repr`` order of the original vertex names (``rank``), and the first order
that reaches the smallest code wins.  The code never depends on this order;
the returned *order* does, among automorphic alternatives, so it is fixed.

The resulting :func:`canonical_code` is used as a dict key everywhere patterns
are deduplicated, and :func:`canonical_form` returns an isomorphic copy of the
graph on vertices ``0..n-1`` in canonical order.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .labeled_graph import Label, LabeledGraph, Vertex
from .view import GraphView

Rows = Sequence[AbstractSet[int]]


def _refine(rows: Rows, colors: List[int]) -> List[int]:
    """Iteratively refine compact ``colors`` until stable (1-WL with initial colours).

    A vertex's signature is its colour plus the sorted colours of its
    neighbours; the new colours number the distinct signatures in sorted
    order.  The first component already orders a singleton class against
    every other signature, so its neighbour tuple is left empty: the
    numbering is the same and only non-singleton classes pay the sort.  A
    pass that splits no class is the identity, so the loop stops there.
    """
    current = colors
    count = max(colors) + 1
    while True:
        sizes = [0] * count
        for c in current:
            sizes[c] += 1
        get = current.__getitem__
        signatures = [
            (c, tuple(sorted(map(get, rows[v]))) if sizes[c] > 1 else ())
            for v, c in enumerate(current)
        ]
        distinct = sorted(set(signatures))
        if len(distinct) == count:
            return current
        index = {sig: i for i, sig in enumerate(distinct)}
        current = [index[sig] for sig in signatures]
        count = len(distinct)


def _code_for_order(labels: Sequence[str], rows: Rows, order: Sequence[int]) -> str:
    """Serialise the graph under a total vertex order into a code string.

    The code is the labels in order, then one row per position ``i`` with a
    ``0``/``1`` cell per later position, each row followed by ``|``.  All
    rows share one byte buffer: row ``i``'s cell for position ``p`` sits at
    ``base + p``, and the buffer's spare last byte takes the final ``|``.
    """
    n = len(order)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    cells = bytearray(b"0") * ((n - 1) * (n + 2) // 2 + 1)
    base = -1
    for i, u in enumerate(order):
        for p in map(position.__getitem__, rows[u]):
            if p > i:
                cells[base + p] = 49  # "1"
        cells[base + n] = 124  # "|"
        base += n - i - 1
    return ",".join([labels[v] for v in order]) + "|" + cells[:-1].decode()


def _canonical(labels: Sequence[str], rows: Rows, rank: Sequence[int]) -> Tuple[List[int], str]:
    """The canonical ``(order, code)`` of an integer-row graph, in one search."""
    n = len(labels)
    keys = [(labels[v], len(rows[v])) for v in range(n)]
    distinct = sorted(set(keys))
    if len(distinct) == n:
        # A discrete initial colouring is stable (refinement is the identity)
        # and leaves nothing to branch on: the order is the colour order.
        order = sorted(range(n), key=keys.__getitem__)
        return order, _code_for_order(labels, rows, order)
    index = {key: i for i, key in enumerate(distinct)}
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
            neighbors = frozenset(rows[v])
            open_key = ("o", neighbors)
            closed_key = ("c", neighbors | {v})
            if open_key in seen_twin_keys or closed_key in seen_twin_keys:
                continue
            seen_twin_keys.add(open_key)
            seen_twin_keys.add(closed_key)
            branched = list(colors)
            branched[v] = new_color
            search(branched)

    search([index[key] for key in keys])
    return best_order, best_code


def _rows(vertices: Sequence[Vertex], edges: Iterable[Tuple[Vertex, Vertex]]) -> List[Set[int]]:
    """Neighbour-index rows of the graph on ``vertices`` (positions) with ``edges``."""
    index = {v: i for i, v in enumerate(vertices)}
    rows: List[Set[int]] = [set() for _ in vertices]
    for u, v in edges:
        a, b = index[u], index[v]
        rows[a].add(b)
        rows[b].add(a)
    return rows


def _repr_rank(vertices: Sequence[Vertex]) -> List[int]:
    """``rank[i]`` is vertex ``i``'s position in a stable ``repr`` sort."""
    rank = [0] * len(vertices)
    for r, i in enumerate(sorted(range(len(vertices)), key=lambda i: repr(vertices[i]))):
        rank[i] = r
    return rank


def labelled_canonical(
    vertices: Iterable[Vertex],
    label: Callable[[Vertex], Label],
    edges: Iterable[Tuple[Vertex, Vertex]],
) -> Tuple[List[Vertex], str]:
    """Canonical vertex order and code of the graph on ``vertices`` with ``edges``.

    Works from the parts, without building a :class:`LabeledGraph`;
    :func:`canonical_order` and :func:`canonical_code` pass a graph's own.
    Every edge endpoint must be one of ``vertices``.  Two graphs with equal
    codes are isomorphic through ``dict(zip(order_1, order_2))``: position
    ``i`` of both orders carries the same label and the same adjacency row.
    """
    vertices = list(vertices)
    labels = [repr(label(v)) for v in vertices]
    order, code = _canonical(labels, _rows(vertices, edges), _repr_rank(vertices))
    return [vertices[i] for i in order], code


class CodeTable:
    """Codes vertex/edge subsets of one graph from per-vertex data built once.

    Holds each vertex's label ``repr`` and its rank in a stable ``repr`` sort
    of all the graph's vertices, so coding a subset (a growth occurrence)
    repeats neither the label lookups nor the sort.  :meth:`code` equals the
    code of :func:`labelled_canonical` over the graph's labels byte for
    byte: a subset's ranks order it as its own ``repr`` sort would, up to
    vertices of equal ``repr``, and the branching order only picks among
    automorphic orders, never the code.  The table belongs to whoever builds it and lives as
    long as that owner, so it never outlives (or is mistaken for) its graph.
    """

    def __init__(self, graph: GraphView) -> None:
        vertices = list(graph.vertices())
        self._labels = {v: repr(graph.label(v)) for v in vertices}
        self._rank = {v: r for r, v in enumerate(sorted(vertices, key=repr))}

    def code(
        self, vertices: Iterable[Vertex], edges: Iterable[Tuple[Vertex, Vertex]]
    ) -> str:
        """Canonical code of the subgraph on ``vertices`` with ``edges``."""
        vertices = list(vertices)
        labels = [self._labels[v] for v in vertices]
        rank = [self._rank[v] for v in vertices]
        return _canonical(labels, _rows(vertices, edges), rank)[1]


def canonical_order(graph: LabeledGraph) -> List[Vertex]:
    """The canonical vertex ordering of ``graph`` (stable across isomorphic copies)."""
    return labelled_canonical(graph.vertices(), graph.label, graph.edges())[0]


def canonical_code(graph: LabeledGraph) -> str:
    """A string equal for two labeled graphs iff they are isomorphic."""
    return labelled_canonical(graph.vertices(), graph.label, graph.edges())[1]


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
