"""Immutable CSR snapshot of a labeled graph — the mining-time backend.

A :class:`FrozenGraph` is built once from a mutable
:class:`~repro.graph.labeled_graph.LabeledGraph` (or any
:class:`~repro.graph.view.GraphView`) and never changes afterwards:

* vertex identifiers are mapped onto dense indices ``0..n-1`` (insertion
  order is preserved so traversal order matches the builder);
* labels are interned into an integer table, one small int per vertex;
* adjacency is compressed-sparse-row: one ``array`` of offsets and one flat
  ``array`` of neighbor indices, each row sorted ascending so edge membership
  is O(log d) by bisection;
* the label → vertices index plus label/degree histograms are precomputed.

The public surface speaks *original vertex identifiers* and matches
:class:`LabeledGraph`'s read API exactly (it satisfies
:class:`~repro.graph.view.GraphView`), so every miner runs on either backend
unchanged.  The index-space accessors (:meth:`index_of`, :attr:`offsets`,
:attr:`neighbor_indices`, :meth:`bfs_levels`) are the fast path used by
:mod:`repro.graph.algorithms` to keep BFS-shaped kernels in flat int arrays.

Use :func:`freeze` / :func:`thaw` to move between the two representations:
the data graph is frozen once after construction and shared by all stages,
while pattern graphs stay small and mutable.

Memory note: ``neighbors()`` / ``label()`` / ``vertices_with_label()`` memoise
their id-space results lazily, so a workload that probes the whole graph
grows the snapshot back toward dict-backend memory — a deliberate
throughput-for-memory trade.  Kernels that must stay compact should use the
index-space accessors (:meth:`neighbor_row`, :meth:`bfs_levels`), which never
populate the caches.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .kernels import as_index_array
from .labeled_graph import Edge, GraphError, Label, LabeledGraph, Vertex
from .view import GraphView

__all__ = ["FrozenGraph", "freeze", "thaw", "coerce_backend", "GRAPH_BACKENDS"]

#: Backend names accepted by :func:`coerce_backend` and the CLI ``--backend``.
GRAPH_BACKENDS = ("dict", "csr")


def _index_typecode(num_vertices: int) -> str:
    """Smallest array typecode that can hold a vertex index."""
    return "i" if num_vertices <= 0x7FFFFFFF else "q"


class FrozenGraph:
    """An immutable, array-compacted vertex-labeled undirected graph."""

    __slots__ = (
        "_ids",
        "_index",
        "_label_table",
        "_label_lookup",
        "_label_ids",
        "_offsets",
        "_neighbors",
        "_num_edges",
        "_label_members",
        "_label_counts",
        "_label_sets",
        "_neighbor_sets",
        "_label_map",
        "_np_views",
        "_np_members",
    )

    def __init__(self, source: GraphView) -> None:
        ids: Tuple[Vertex, ...] = tuple(source.vertices())
        index: Dict[Vertex, int] = {v: i for i, v in enumerate(ids)}
        if len(index) != len(ids):
            raise GraphError("duplicate vertex identifiers in source graph")
        n = len(ids)

        # Intern labels: first-seen order keeps the table deterministic.
        label_table: List[Label] = []
        label_lookup: Dict[Label, int] = {}
        label_ids = array("i", [0]) * n
        label_members: Dict[int, array] = {}
        typecode = _index_typecode(n)
        for i, v in enumerate(ids):
            label = source.label(v)
            lid = label_lookup.get(label)
            if lid is None:
                lid = len(label_table)
                label_lookup[label] = lid
                label_table.append(label)
                label_members[lid] = array(typecode)
            label_ids[i] = lid
            label_members[lid].append(i)

        # CSR adjacency, rows sorted by neighbor index for O(log d) membership.
        rows: List[List[int]] = [[] for _ in range(n)]
        num_edges = 0
        for u, v in source.edges():
            ui, vi = index[u], index[v]
            rows[ui].append(vi)
            rows[vi].append(ui)
            num_edges += 1
        offsets = array("q", [0]) * (n + 1)
        neighbors = array(typecode)
        position = 0
        for i, row in enumerate(rows):
            offsets[i] = position
            row.sort()
            neighbors.extend(row)
            position += len(row)
            rows[i] = None  # type: ignore[call-overload]  # release eagerly
        offsets[n] = position

        self._ids = ids
        self._index = index
        self._label_table: Tuple[Label, ...] = tuple(label_table)
        self._label_lookup = label_lookup
        self._label_ids = label_ids
        self._offsets = offsets
        self._neighbors = neighbors
        self._num_edges = num_edges
        self._label_members = label_members
        self._label_counts = Counter(
            {label_table[lid]: len(members) for lid, members in label_members.items()}
        )
        # Lazily filled caches (the only mutable state; pure memoisation).
        self._label_sets: Dict[int, FrozenSet[Vertex]] = {}
        self._neighbor_sets: Dict[int, FrozenSet[Vertex]] = {}
        self._label_map: Optional[Dict[Vertex, Label]] = None
        self._np_views = None
        self._np_members: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # immutability
    # ------------------------------------------------------------------ #
    def _frozen_error(self, operation: str) -> GraphError:
        return GraphError(
            f"FrozenGraph is immutable: {operation} is not supported — "
            "thaw() to a LabeledGraph, mutate, then freeze() again"
        )

    def add_vertex(self, vertex: Vertex, label: Label) -> None:
        raise self._frozen_error("add_vertex")

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        raise self._frozen_error("add_edge")

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        raise self._frozen_error("remove_edge")

    def remove_vertex(self, vertex: Vertex) -> None:
        raise self._frozen_error("remove_vertex")

    @classmethod
    def from_csr_arrays(
        cls,
        ids: Tuple[Vertex, ...],
        label_table: Tuple[Label, ...],
        label_ids,
        offsets,
        neighbors,
    ) -> "FrozenGraph":
        """Rebuild a snapshot from its constituent arrays without re-deriving CSR.

        The array arguments may be ``array.array`` instances, ``numpy``
        ndarrays, or any typed buffer with the same read surface
        (``memoryview.cast`` views over a ``multiprocessing.shared_memory``
        segment, which is how worker processes re-attach a shared data graph
        without pickling it — see :mod:`repro.parallel.shared_graph`; numpy
        views over the same buffers let workers run the vectorized kernels
        without copying).  Only the derived index structures (vertex index,
        label lookup, label membership rows) are rebuilt; the heavy CSR
        payload is used as-is, so a shared-memory attach is O(|V|) and copies
        none of the adjacency.
        """
        self = cls.__new__(cls)
        n = len(ids)
        if len(offsets) != n + 1:
            raise GraphError(
                f"offsets length {len(offsets)} does not match {n} vertices"
            )
        index: Dict[Vertex, int] = {v: i for i, v in enumerate(ids)}
        if len(index) != n:
            raise GraphError("duplicate vertex identifiers in source arrays")
        typecode = _index_typecode(n)
        label_members: Dict[int, array] = {lid: array(typecode) for lid in range(len(label_table))}
        # ndarray element access returns numpy scalars; one bulk tolist()
        # keeps the membership build (and later dict lookups) on plain ints.
        lid_sequence = label_ids.tolist() if hasattr(label_ids, "tolist") else label_ids
        for i in range(n):
            label_members[lid_sequence[i]].append(i)
        self._ids = tuple(ids)
        self._index = index
        self._label_table = tuple(label_table)
        self._label_lookup = {label: lid for lid, label in enumerate(self._label_table)}
        self._label_ids = label_ids
        self._offsets = offsets
        self._neighbors = neighbors
        self._num_edges = len(neighbors) // 2
        self._label_members = label_members
        self._label_counts = Counter(
            {self._label_table[lid]: len(members) for lid, members in label_members.items()}
        )
        self._label_sets = {}
        self._neighbor_sets = {}
        self._label_map = None
        self._np_views = None
        self._np_members = {}
        return self

    # ------------------------------------------------------------------ #
    # index-space accessors (the fast path)
    # ------------------------------------------------------------------ #
    @property
    def vertex_ids(self) -> Tuple[Vertex, ...]:
        """Original vertex identifiers, position = dense index."""
        return self._ids

    @property
    def label_table(self) -> Tuple[Label, ...]:
        """Interned label values, position = label id."""
        return self._label_table

    @property
    def label_ids(self):
        """Per-vertex interned label ids, position = dense vertex index."""
        return self._label_ids

    @property
    def offsets(self) -> array:
        """CSR row offsets (length ``n + 1``)."""
        return self._offsets

    @property
    def neighbor_indices(self) -> array:
        """Flat neighbor-index array; row ``i`` is ``[offsets[i], offsets[i+1])``."""
        return self._neighbors

    def label_id(self, label: Label) -> Optional[int]:
        """Interned id of ``label``, or ``None`` if no vertex carries it.

        The index-space companion of :meth:`vertices_with_label`: kernels that
        stay in CSR index space (the domain-based subgraph matcher) compare
        per-vertex :attr:`label_ids` entries against this id instead of
        materialising id-space label sets.
        """
        try:
            return self._label_lookup.get(label)
        except TypeError:
            return None

    def label_member_indices(self, label: Label):
        """Dense indices of the vertices labeled ``label``, ascending.

        Returns the internal membership row (an ``array`` — treat it as
        read-only); an empty tuple when the label is absent.
        """
        lid = self.label_id(label)
        if lid is None:
            return ()
        return self._label_members[lid]

    def csr_numpy(self):
        """``(offsets, neighbor_indices, label_ids)`` as zero-copy numpy views.

        The views are created once (``np.frombuffer`` over the existing
        buffers — ``array.array``, shared-memory ``memoryview`` and ndarray
        inputs all map without copying) and memoised; treat them as
        read-only.  This is the array surface the vectorized kernels
        (:mod:`repro.graph.kernels`) operate on.
        """
        if self._np_views is None:
            self._np_views = (
                as_index_array(self._offsets),
                as_index_array(self._neighbors),
                as_index_array(self._label_ids),
            )
        return self._np_views

    def label_members_np(self, label: Label):
        """Ascending member indices of ``label`` as a zero-copy numpy view,
        or ``None`` when no vertex carries the label."""
        lid = self.label_id(label)
        if lid is None:
            return None
        view = self._np_members.get(lid)
        if view is None:
            view = as_index_array(self._label_members[lid])
            self._np_members[lid] = view
        return view

    def index_of(self, vertex: Vertex) -> int:
        """Dense index of ``vertex``; raises :class:`GraphError` if absent."""
        try:
            return self._index[vertex]
        except (KeyError, TypeError):
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def vertex_at(self, index: int) -> Vertex:
        return self._ids[index]

    def neighbor_row(self, index: int) -> array:
        """The sorted neighbor indices of the vertex at ``index``."""
        return self._neighbors[self._offsets[index]:self._offsets[index + 1]]

    def bfs_levels(self, source_index: int, radius: int = -1) -> List[int]:
        """BFS distances in index space: ``result[i]`` is the hop distance of
        vertex ``i`` from ``source_index``, or ``-1`` if unreached.

        ``radius >= 0`` stops the expansion after that many levels.  This is
        the kernel behind every BFS-shaped algorithm fast path; it never
        leaves flat int arrays/lists.
        """
        offsets = self._offsets
        nbrs = self._neighbors
        dist = [-1] * len(self._ids)
        dist[source_index] = 0
        frontier = [source_index]
        level = 0
        while frontier and level != radius:
            level += 1
            nxt: List[int] = []
            append = nxt.append
            for u in frontier:
                for v in nbrs[offsets[u]:offsets[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = level
                        append(v)
            frontier = nxt
        return dist

    def eccentricity_at(self, source_index: int) -> Tuple[int, int]:
        """(number of reached vertices, max BFS distance) from an index."""
        offsets = self._offsets
        nbrs = self._neighbors
        seen = bytearray(len(self._ids))
        seen[source_index] = 1
        reached = 1
        frontier = [source_index]
        level = 0
        while frontier:
            nxt: List[int] = []
            append = nxt.append
            for u in frontier:
                for v in nbrs[offsets[u]:offsets[u + 1]]:
                    if not seen[v]:
                        seen[v] = 1
                        reached += 1
                        append(v)
            if not nxt:
                break
            level += 1
            frontier = nxt
        return reached, level

    # ------------------------------------------------------------------ #
    # GraphView: size
    # ------------------------------------------------------------------ #
    def __contains__(self, vertex: Vertex) -> bool:
        try:
            return vertex in self._index
        except TypeError:
            return False

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._ids)

    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------ #
    # GraphView: vertices, edges, labels
    # ------------------------------------------------------------------ #
    def vertices(self) -> Iterator[Vertex]:
        return iter(self._ids)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge exactly once (rows are sorted, so the
        lower-index endpoint emits it)."""
        ids = self._ids
        offsets = self._offsets
        nbrs = self._neighbors
        for i in range(len(ids)):
            u = ids[i]
            for j in range(offsets[i], offsets[i + 1]):
                v = nbrs[j]
                if v > i:
                    yield (u, ids[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        ui = self._index.get(u)
        vi = self._index.get(v)
        if ui is None or vi is None:
            return False
        lo, hi = self._offsets[ui], self._offsets[ui + 1]
        if hi - lo > self._offsets[vi + 1] - self._offsets[vi]:
            ui, vi = vi, ui
            lo, hi = self._offsets[ui], self._offsets[ui + 1]
        position = bisect_left(self._neighbors, vi, lo, hi)
        return position < hi and self._neighbors[position] == vi

    def label(self, vertex: Vertex) -> Label:
        # label() is the single hottest data-graph call in the miners (one
        # probe per touched neighbor), so it gets a lazily built id → label
        # dict: one hash lookup per call, same as the mutable backend.
        mapping = self._label_map
        if mapping is None:
            mapping = self.labels()
            self._label_map = mapping
        try:
            return mapping[vertex]
        except (KeyError, TypeError):
            raise GraphError(f"vertex {vertex!r} does not exist") from None

    def labels(self) -> Dict[Vertex, Label]:
        table = self._label_table
        lids = self._label_ids
        return {v: table[lids[i]] for i, v in enumerate(self._ids)}

    def label_set(self) -> Set[Label]:
        return set(self._label_table)

    def label_counts(self) -> Counter:
        return Counter(self._label_counts)

    def vertices_with_label(self, label: Label) -> FrozenSet[Vertex]:
        try:
            lid = self._label_lookup[label]
        except (KeyError, TypeError):
            return frozenset()
        cached = self._label_sets.get(lid)
        if cached is None:
            ids = self._ids
            # Canonical (repr-sorted) insertion order: iteration then matches
            # the same set built by LabeledGraph.
            cached = frozenset(
                sorted((ids[i] for i in self._label_members[lid]), key=repr)
            )
            self._label_sets[lid] = cached
        return cached

    # ------------------------------------------------------------------ #
    # GraphView: local structure
    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        index = self.index_of(vertex)
        cached = self._neighbor_sets.get(index)
        if cached is None:
            ids = self._ids
            # Canonical (repr-sorted) insertion order — a frozenset built from
            # the same elements in the same order has the same layout, hence
            # the same iteration order as LabeledGraph.neighbors.  This is
            # what makes mining results backend-identical.
            cached = frozenset(
                sorted(
                    (
                        ids[j]
                        for j in self._neighbors[
                            self._offsets[index]:self._offsets[index + 1]
                        ]
                    ),
                    key=repr,
                )
            )
            self._neighbor_sets[index] = cached
        return cached

    def degree(self, vertex: Vertex) -> int:
        index = self.index_of(vertex)
        return self._offsets[index + 1] - self._offsets[index]

    def average_degree(self) -> float:
        if not self._ids:
            return 0.0
        return 2.0 * self._num_edges / len(self._ids)

    def max_degree(self) -> int:
        offsets = self._offsets
        if len(self._ids) == 0:
            return 0
        return max(offsets[i + 1] - offsets[i] for i in range(len(self._ids)))

    def degree_sequence(self) -> List[int]:
        offsets = self._offsets
        return sorted(
            (offsets[i + 1] - offsets[i] for i in range(len(self._ids))), reverse=True
        )

    def degree_histogram(self) -> Dict[int, int]:
        """degree → number of vertices with that degree (O(|V|) offsets walk)."""
        offsets = self._offsets
        hist: Dict[int, int] = {}
        for i in range(len(self._ids)):
            d = offsets[i + 1] - offsets[i]
            hist[d] = hist.get(d, 0) + 1
        return hist

    def density(self) -> float:
        n = len(self._ids)
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # GraphView: traversal / derived graphs
    # ------------------------------------------------------------------ #
    def bfs_within(self, source: Vertex, radius: int) -> Dict[Vertex, int]:
        """Vertices within ``radius`` hops of ``source`` → their distance."""
        if radius < 0:
            raise GraphError("radius must be non-negative")
        dist = self.bfs_levels(self.index_of(source), radius=radius)
        ids = self._ids
        return {ids[i]: d for i, d in enumerate(dist) if d >= 0}

    def neighborhood_subgraph(self, source: Vertex, radius: int) -> LabeledGraph:
        return self.subgraph(self.bfs_within(source, radius))

    def subgraph(self, vertices: Iterable[Vertex]) -> LabeledGraph:
        """The induced subgraph on ``vertices`` as a fresh mutable graph."""
        selected = set(vertices)
        unknown = selected - self._index.keys()
        if unknown:
            raise GraphError(f"vertices not in graph: {sorted(map(repr, unknown))}")
        table = self._label_table
        lids = self._label_ids
        ids = self._ids
        offsets = self._offsets
        nbrs = self._neighbors
        sub = LabeledGraph()
        indices = sorted(self._index[v] for v in selected)
        for i in indices:
            sub.add_vertex(ids[i], table[lids[i]])
        chosen = set(indices)
        for i in indices:
            u = ids[i]
            for j in range(offsets[i], offsets[i + 1]):
                v = nbrs[j]
                if v > i and v in chosen:
                    sub.add_edge(u, ids[v])
        return sub

    def edge_subgraph(self, edge_list: Iterable[Edge]) -> LabeledGraph:
        """The subgraph containing exactly ``edge_list`` and their endpoints."""
        sub = LabeledGraph()
        for u, v in edge_list:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
            sub.add_vertex(u, self.label(u))
            sub.add_vertex(v, self.label(v))
            sub.add_edge(u, v)
        return sub

    def relabeled(self, mapping: Optional[Dict[Vertex, Vertex]] = None) -> LabeledGraph:
        """A mutable copy with vertices renamed to 0..n-1 (or by ``mapping``)."""
        return self.thaw().relabeled(mapping)

    def copy(self) -> "FrozenGraph":
        """Immutable snapshots are safe to share: copy returns self."""
        return self

    def thaw(self) -> LabeledGraph:
        """An equivalent mutable :class:`LabeledGraph` (inverse of freezing)."""
        out = LabeledGraph()
        table = self._label_table
        lids = self._label_ids
        for i, v in enumerate(self._ids):
            out.add_vertex(v, table[lids[i]])
        for u, v in self.edges():
            out.add_edge(u, v)
        return out

    def freeze(self) -> "FrozenGraph":
        """Already frozen: returns self (mirrors ``LabeledGraph.freeze``)."""
        return self

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={len(self._label_table)})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality on the identified graph, across backends.

        Compares transient label dicts and normalised edge sets rather than
        per-vertex ``neighbors()`` frozensets, so a one-off comparison does
        not permanently populate either graph's memo caches.
        """
        if isinstance(other, (FrozenGraph, LabeledGraph)):
            if (
                self.num_vertices != other.num_vertices
                or self.num_edges != other.num_edges
            ):
                return False
            if self.labels() != other.labels():
                return False
            return _normalised_edge_set(self) == _normalised_edge_set(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - parity with LabeledGraph
        raise TypeError("graphs are compared structurally and are unhashable")


def _normalised_edge_set(graph) -> Set[Edge]:
    """Edges with repr-ordered endpoints, for order-independent comparison."""
    return {
        (u, v) if repr(u) <= repr(v) else (v, u) for u, v in graph.edges()
    }


# ---------------------------------------------------------------------- #
# freeze / thaw / backend coercion
# ---------------------------------------------------------------------- #
def freeze(graph) -> FrozenGraph:
    """Snapshot any graph view into a :class:`FrozenGraph`.

    Freezing an already-frozen graph is the identity (snapshots are shared,
    never copied).
    """
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph(graph)


def thaw(graph) -> LabeledGraph:
    """The mutable counterpart of :func:`freeze`.

    A :class:`FrozenGraph` is expanded back into a fresh
    :class:`LabeledGraph`; a graph that is already mutable is returned
    unchanged.
    """
    if isinstance(graph, FrozenGraph):
        return graph.thaw()
    if isinstance(graph, LabeledGraph):
        return graph
    raise GraphError(f"cannot thaw {type(graph).__name__}")


def coerce_backend(graph, backend: str):
    """Return ``graph`` in the requested backend (``"dict"`` or ``"csr"``)."""
    if backend == "csr":
        return freeze(graph)
    if backend == "dict":
        return thaw(graph)
    raise GraphError(f"unknown graph backend {backend!r}; expected one of {GRAPH_BACKENDS}")
