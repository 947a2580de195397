"""Vertex-labeled undirected graph used throughout the SpiderMine reproduction.

The paper's input is a single massive vertex-labeled network.  ``LabeledGraph``
is a light-weight adjacency-set representation with a label index so that
label-constrained traversals (the inner loop of every miner in this package)
stay O(degree) instead of O(|V|).

Vertices are arbitrary hashable identifiers (ints in all generators).  Edges
are undirected and stored once per endpoint.  Self-loops are rejected because
none of the mining algorithms in the paper consider them; parallel edges are
impossible by construction (adjacency sets).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Vertex = Hashable
Label = Hashable
Edge = Tuple[Vertex, Vertex]


def normalise_edge(u: Vertex, v: Vertex) -> Edge:
    """Canonical endpoint order for an undirected edge: repr-lower first.

    Every place that stores or compares concrete data-graph edges — embedding
    edge images, growth occurrences, canonical graph emission — must use this
    one helper so the orderings can never drift apart.
    """
    return (u, v) if repr(u) <= repr(v) else (v, u)


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class LabeledGraph:
    """An undirected graph whose vertices carry labels.

    The SpiderMine paper works on undirected graphs (the Jeti call graph is
    treated as a labeled undirected graph), so there is no directed variant.
    """

    __slots__ = (
        "_labels",
        "_adj",
        "_label_index",
        "_num_edges",
        "_neighbor_cache",
        "_label_set_cache",
        "_serial",
        "_next_serial",
        "_mutations",
    )

    def __init__(self) -> None:
        self._labels: Dict[Vertex, Label] = {}
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._label_index: Dict[Label, Set[Vertex]] = {}
        self._num_edges = 0
        # Memoised neighbors() / vertices_with_label() frozensets, invalidated
        # on mutation.  Built in canonical (repr-sorted) insertion order so the
        # returned sets iterate identically across backends — see
        # FrozenGraph.neighbors.
        self._neighbor_cache: Dict[Vertex, FrozenSet[Vertex]] = {}
        self._label_set_cache: Dict[Label, FrozenSet[Vertex]] = {}
        # Monotonic insertion serial per vertex: lets subgraph() recover
        # insertion order for a small selection without scanning the graph.
        self._serial: Dict[Vertex, int] = {}
        self._next_serial = 0
        # Monotonic structural-mutation counter: external memoisers (e.g.
        # Embedding.edge_image) use (graph identity, mutation_count) as a
        # cache token that every add/remove invalidates — including rewrites
        # that leave num_vertices/num_edges unchanged.
        self._mutations = 0

    @property
    def mutation_count(self) -> int:
        """Bumped by every structural mutation; a token for external caches."""
        return self._mutations

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: Vertex, label: Label) -> None:
        """Add ``vertex`` with ``label``; re-adding with the same label is a no-op."""
        if vertex in self._labels:
            if self._labels[vertex] != label:
                raise GraphError(
                    f"vertex {vertex!r} already exists with label "
                    f"{self._labels[vertex]!r}, cannot relabel to {label!r}"
                )
            return
        self._labels[vertex] = label
        self._adj[vertex] = set()
        self._label_index.setdefault(label, set()).add(vertex)
        self._label_set_cache.pop(label, None)
        self._serial[vertex] = self._next_serial
        self._next_serial += 1
        self._mutations += 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``.  Both endpoints must exist."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if u not in self._labels or v not in self._labels:
            missing = u if u not in self._labels else v
            raise GraphError(f"vertex {missing!r} must be added before the edge")
        if v in self._adj[u]:
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._neighbor_cache.pop(u, None)
        self._neighbor_cache.pop(v, None)
        self._mutations += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}`` if present; raise if absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._neighbor_cache.pop(u, None)
        self._neighbor_cache.pop(v, None)
        self._mutations += 1

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges in O(deg) time.

        Neighbors are unlinked directly instead of going through
        :meth:`remove_edge`, whose per-edge membership re-checks would make
        vertex removal quadratic in dense neighborhoods.
        """
        if vertex not in self._labels:
            raise GraphError(f"vertex {vertex!r} does not exist")
        incident = self._adj.pop(vertex)
        self._neighbor_cache.pop(vertex, None)
        for neighbor in incident:
            self._adj[neighbor].discard(vertex)
            self._neighbor_cache.pop(neighbor, None)
        self._num_edges -= len(incident)
        label = self._labels.pop(vertex)
        self._label_index[label].discard(vertex)
        self._label_set_cache.pop(label, None)
        if not self._label_index[label]:
            del self._label_index[label]
        del self._serial[vertex]
        self._mutations += 1

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._labels)

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge exactly once, in canonical order.

        Edges are emitted at their earlier-added endpoint, later endpoints in
        insertion order — exactly the order ``FrozenGraph.edges`` produces
        from its index-sorted rows, so consumers that truncate or tie-break
        on edge order behave identically on both backends.
        """
        position = {v: i for i, v in enumerate(self._labels)}
        for u in self._labels:
            u_position = position[u]
            later = [v for v in self._adj[u] if position[v] > u_position]
            later.sort(key=position.__getitem__)
            for v in later:
                yield (u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def label(self, vertex: Vertex) -> Label:
        try:
            return self._labels[vertex]
        except KeyError:
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def labels(self) -> Dict[Vertex, Label]:
        """A copy of the vertex → label mapping."""
        return dict(self._labels)

    def label_set(self) -> Set[Label]:
        return set(self._label_index)

    def label_counts(self) -> Counter:
        """How many vertices carry each label."""
        return Counter({label: len(vs) for label, vs in self._label_index.items()})

    def vertices_with_label(self, label: Label) -> FrozenSet[Vertex]:
        cached = self._label_set_cache.get(label)
        if cached is None:
            members = self._label_index.get(label)
            if not members:
                return frozenset()
            # Canonical insertion order: identical layout on every backend.
            cached = frozenset(sorted(members, key=repr))
            self._label_set_cache[label] = cached
        return cached

    def neighbors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        cached = self._neighbor_cache.get(vertex)
        if cached is None:
            try:
                adjacent = self._adj[vertex]
            except KeyError:
                raise GraphError(f"vertex {vertex!r} does not exist") from None
            # Canonical insertion order: a frozenset's iteration order depends
            # on the order its elements were inserted (collision resolution),
            # so building from a sorted sequence makes iteration identical to
            # the same set built by any other backend.
            cached = frozenset(sorted(adjacent, key=repr))
            self._neighbor_cache[vertex] = cached
        return cached

    def degree(self, vertex: Vertex) -> int:
        try:
            return len(self._adj[vertex])
        except KeyError:
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def average_degree(self) -> float:
        if not self._labels:
            return 0.0
        return 2.0 * self._num_edges / len(self._labels)

    def max_degree(self) -> int:
        if not self._labels:
            return 0
        return max(len(n) for n in self._adj.values())

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "LabeledGraph":
        other = LabeledGraph()
        other._labels = dict(self._labels)
        other._adj = {v: set(n) for v, n in self._adj.items()}
        other._label_index = {l: set(vs) for l, vs in self._label_index.items()}
        other._num_edges = self._num_edges
        other._neighbor_cache = dict(self._neighbor_cache)
        other._label_set_cache = dict(self._label_set_cache)
        other._serial = dict(self._serial)
        other._next_serial = self._next_serial
        other._mutations = self._mutations
        return other

    def subgraph(self, vertices: Iterable[Vertex]) -> "LabeledGraph":
        """The induced subgraph on ``vertices``.

        Vertices and edges are added in this graph's insertion order (not the
        hash order of the ``vertices`` set), matching ``FrozenGraph.subgraph``
        so derived subgraphs iterate identically on both backends.
        """
        selected = set(vertices)
        unknown = selected - self._labels.keys()
        if unknown:
            raise GraphError(f"vertices not in graph: {sorted(map(repr, unknown))}")
        ordered = sorted(selected, key=self._serial.__getitem__)
        position = {v: i for i, v in enumerate(ordered)}
        sub = LabeledGraph()
        for v in ordered:
            sub.add_vertex(v, self._labels[v])
        for v in ordered:
            v_position = position[v]
            later = [u for u in self._adj[v] if position.get(u, -1) > v_position]
            later.sort(key=position.__getitem__)
            for u in later:
                sub.add_edge(v, u)
        return sub

    def edge_subgraph(self, edge_list: Iterable[Edge]) -> "LabeledGraph":
        """The subgraph containing exactly ``edge_list`` and their endpoints."""
        sub = LabeledGraph()
        for u, v in edge_list:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
            sub.add_vertex(u, self._labels[u])
            sub.add_vertex(v, self._labels[v])
            sub.add_edge(u, v)
        return sub

    def relabeled(self, mapping: Optional[Dict[Vertex, Vertex]] = None) -> "LabeledGraph":
        """Return a copy with vertices renamed to 0..n-1 (or by ``mapping``)."""
        if mapping is None:
            mapping = {v: i for i, v in enumerate(sorted(self._labels, key=repr))}
        out = LabeledGraph()
        for v, label in self._labels.items():
            out.add_vertex(mapping[v], label)
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out

    # ------------------------------------------------------------------ #
    # traversal helpers used by the miners
    # ------------------------------------------------------------------ #
    def bfs_within(self, source: Vertex, radius: int) -> Dict[Vertex, int]:
        """Vertices within ``radius`` hops of ``source`` → their distance."""
        if source not in self._labels:
            raise GraphError(f"vertex {source!r} does not exist")
        if radius < 0:
            raise GraphError("radius must be non-negative")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if dist[u] == radius:
                continue
            for v in self._adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def neighborhood_subgraph(self, source: Vertex, radius: int) -> "LabeledGraph":
        """The induced subgraph on the ``radius``-ball around ``source``."""
        return self.subgraph(self.bfs_within(source, radius))

    def freeze(self) -> "FrozenGraph":
        """An immutable CSR snapshot of this graph (see :mod:`repro.graph.frozen`).

        The snapshot shares nothing with this graph: later mutations here do
        not affect it.  Freeze the data graph once after construction and run
        the miners on the snapshot; keep pattern graphs mutable.
        """
        from .frozen import FrozenGraph

        return FrozenGraph(self)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={len(self._label_index)})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality on the *identified* graph (same vertex ids)."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - graphs are not hashable
        raise TypeError("LabeledGraph is mutable and unhashable")

    def degree_sequence(self) -> List[int]:
        return sorted((len(n) for n in self._adj.values()), reverse=True)

    def density(self) -> float:
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))


def graph_from_edges(
    edges: Iterable[Tuple[Vertex, Vertex]],
    labels: Dict[Vertex, Label],
) -> LabeledGraph:
    """Build a :class:`LabeledGraph` from an edge list plus a label map.

    Isolated vertices can be included by listing them in ``labels`` even if no
    edge mentions them.
    """
    graph = LabeledGraph()
    for vertex, label in labels.items():
        graph.add_vertex(vertex, label)
    for u, v in edges:
        if u not in labels or v not in labels:
            missing = u if u not in labels else v
            raise GraphError(f"edge endpoint {missing!r} has no label")
        graph.add_edge(u, v)
    return graph
