"""Labeled (sub)graph isomorphism on precomputed candidate domains.

Two related problems are needed by the miners:

* **graph isomorphism** between two small patterns — answered either through
  canonical codes (:mod:`repro.graph.canonical`) or by the matcher here;
* **subgraph isomorphism enumeration**: find every embedding of a pattern in
  the (much larger) data graph.  This powers support counting for the
  baselines and the verification paths of SpiderMine.

The matcher is a backtracking search in the RI/GraphQL style: before any
search starts, every pattern vertex gets a **candidate domain** — the target
vertices with the right label, enough degree, and a neighbor-label multiset
that dominates the pattern vertex's — refined by one pass of arc-consistency
over the pattern edges.  An empty domain proves *zero* embeddings with no
search at all; otherwise the search only ever tests candidates inside their
domain.  Every domain filter is sound (it removes only vertices that can
appear in no embedding), so filtering never changes *what* is enumerated,
only how much work enumeration costs.

Two search paths share the domains, chosen by target type:

* on a :class:`~repro.graph.frozen.FrozenGraph` target the whole search runs
  in **CSR index space** on the numpy kernels (:mod:`repro.graph.kernels`):
  domains are seeded and arc-consistency-refined by whole-label-class array
  kernels, and before searching, each directed pattern edge ``(q, p)`` gets
  a precomputed **candidate adjacency** — every domain member of ``q``'s
  neighbor row intersected with ``p``'s domain in one bulk
  :func:`~repro.graph.kernels.filter_rows` pass — so the per-node inner loop
  walks short pre-filtered Python lists of int indices with no label/domain
  probes at all, converting back to vertex ids only when an embedding is
  yielded.  Candidate pools ascend, so a free search yields its embeddings
  in ascending index-space order (pinned in ``tests/test_kernels.py``);
* on any other target the pre-refactor path is kept as the reference
  implementation (frozenset candidate pools, now additionally filtered by the
  domains).  Because domain filtering is pruning-only, the dict path yields
  exactly the embedding *sequence* the matcher always produced.

The two paths are pinned together by :func:`matcher_digest` — a canonical,
order-insensitive fingerprint of an embedding collection (the analogue of the
overlap engine's ``conflict_digest``): for any (pattern, target) pair the
dict-path digest must equal the csr-path digest, which the hypothesis
parity tests (``tests/test_matcher_parity.py``) assert against the
pre-domain engine, kept verbatim as a test oracle in
``tests/oracles/matcher_reference.py``.

Matching orders are connectivity-first (every vertex after the first of its
component is adjacent to an already-matched one).  Anchored searches rebuild
the BFS order *rooted at the anchor* — the pre-refactor code moved the anchor
to the front but kept the free-order tail, so mid-search vertices could lose
all mapped neighbors and silently fall back to whole-graph label scans
(:attr:`MatcherStats.pool_fallbacks` counts those; a regression test pins
them at zero for connected patterns).  :meth:`SubgraphMatcher.iter_anchored`
amortises one domain build over a whole batch of anchors — the Stage-I access
pattern, where a spider head is matched at every data vertex of one label.

Embeddings are *induced on edges* (not vertices): an embedding is an
injective map ``f`` on pattern vertices preserving labels with ``(u,v) ∈
E(P) ⇒ (f(u),f(v)) ∈ E(G)``.  That is the standard subgraph (monomorphism)
semantics used by the paper and by all compared systems.  Set
``induced=True`` for the stricter induced-subgraph semantics.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from . import kernels
from .frozen import FrozenGraph
from .labeled_graph import LabeledGraph, Vertex, normalise_edge
from .view import GraphView

Mapping = Dict[Vertex, Vertex]


@dataclass
class MatcherStats:
    """Work counters of one matcher instance (purely observational)."""

    #: candidates that reached the per-candidate feasibility check
    candidate_tests: int = 0
    #: candidates rejected by domain membership before any feasibility work.
    #: On the CSR path these are counted once per (pattern edge, neighbor
    #: row) when the candidate adjacency is built, not once per search visit
    #: as on the dict path.
    domain_prunes: int = 0
    #: label-scan candidate pools used mid-search (a vertex with no mapped
    #: neighbor after the first of its component — 0 for connected patterns
    #: under both the free and the anchored order)
    pool_fallbacks: int = 0
    #: searches answered "zero embeddings" by an empty domain, before any
    #: backtracking started
    empty_domain_cutoffs: int = 0
    #: backtracking searches actually started
    searches: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Counters as a JSON-ready dict (the :class:`~repro.obs.Snapshottable` shape)."""
        return {
            "candidate_tests": self.candidate_tests,
            "domain_prunes": self.domain_prunes,
            "pool_fallbacks": self.pool_fallbacks,
            "empty_domain_cutoffs": self.empty_domain_cutoffs,
            "searches": self.searches,
        }


class SubgraphMatcher:
    """Enumerates embeddings of ``pattern`` in ``target``.

    Candidate domains are built lazily on the first query and shared by every
    subsequent query on the same instance (including whole anchored batches),
    so reuse the matcher when asking several questions about one
    (pattern, target) pair.
    """

    def __init__(
        self,
        pattern: LabeledGraph,
        target: GraphView,
        induced: bool = False,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.induced = induced
        self.stats = MatcherStats()
        self._csr: Optional[FrozenGraph] = (
            target if isinstance(target, FrozenGraph) else None
        )
        self._order = self._matching_order()
        # Lazily built domain state.  ``_domains_ready`` distinguishes "not
        # built yet" from "built and proven empty" (``_domains is None``).
        self._domains_ready = False
        self._domains: Optional[Dict[Vertex, Set[Vertex]]] = None          # dict path
        self._domains_ix: Optional[Dict[Vertex, List[int]]] = None         # csr path
        self._domain_sets_ix: Optional[Dict[Vertex, Set[int]]] = None      # csr path
        self._domains_np: Optional[Dict[Vertex, object]] = None            # csr path
        # CSR-path memos: per directed pattern edge (q, p) the
        # domain-filtered candidate adjacency, per pattern vertex the
        # index-of-domain-member map, per matching order the search context.
        self._cand_adj: Dict[Tuple[Vertex, Vertex], tuple] = {}
        self._domain_pos: Dict[Vertex, Dict[int, int]] = {}
        self._search_contexts: Dict[Tuple[Vertex, ...], tuple] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def find_embeddings(
        self,
        limit: Optional[int] = None,
        anchor: Optional[Tuple[Vertex, Vertex]] = None,
    ) -> List[Mapping]:
        """All embeddings (pattern-vertex → target-vertex maps), up to ``limit``.

        ``anchor=(p, t)`` forces pattern vertex ``p`` to map to target vertex
        ``t`` — used when enumerating spiders around a fixed head.
        """
        return list(self.iter_embeddings(limit=limit, anchor=anchor))

    def iter_embeddings(
        self,
        limit: Optional[int] = None,
        anchor: Optional[Tuple[Vertex, Vertex]] = None,
    ) -> Iterator[Mapping]:
        if not self._query_feasible():
            return
        if not self._ensure_domains():
            return
        if anchor is not None:
            p_anchor, t_anchor = anchor
            if p_anchor not in self.pattern or t_anchor not in self.target:
                return
            if self.pattern.label(p_anchor) != self.target.label(t_anchor):
                return
            if not self._domain_contains(p_anchor, t_anchor):
                return
            order = self._anchored_order(p_anchor)
        else:
            order = self._order
        # islice checks the cap before pulling the next embedding, so
        # ``limit=0`` yields nothing and no search step runs past the cap.
        yield from islice(self._run_search(order, anchor), limit)

    def iter_anchored(
        self,
        p_anchor: Vertex,
        t_anchors: Optional[Iterable[Vertex]] = None,
        limit_per_anchor: Optional[int] = None,
    ) -> Iterator[Tuple[Vertex, Mapping]]:
        """Batch anchored enumeration: ``(t_anchor, embedding)`` pairs.

        One domain build and one anchored matching order are amortised over
        the whole batch — the Stage-I access pattern, where a spider head is
        matched at every data vertex of its label.  ``t_anchors`` defaults to
        the anchor vertex's full candidate domain in canonical (repr-sorted)
        order; anchors outside the domain yield nothing, exactly like the
        equivalent single-anchor query.
        """
        if p_anchor not in self.pattern:
            return
        if not self._query_feasible():
            return
        if not self._ensure_domains():
            return
        order = self._anchored_order(p_anchor)
        if t_anchors is None:
            anchors: Iterable[Vertex] = self._domain_ids(p_anchor)
        else:
            anchors = t_anchors
        label = self.pattern.label(p_anchor)
        for t_anchor in anchors:
            if t_anchor not in self.target:
                continue
            if self.target.label(t_anchor) != label:
                continue
            if not self._domain_contains(p_anchor, t_anchor):
                continue
            for mapping in islice(
                self._run_search(order, (p_anchor, t_anchor)), limit_per_anchor
            ):
                yield t_anchor, mapping

    def exists(self, anchor: Optional[Tuple[Vertex, Vertex]] = None) -> bool:
        """Whether at least one embedding exists."""
        for _ in self.iter_embeddings(limit=1, anchor=anchor):
            return True
        return False

    def count(self, limit: Optional[int] = None) -> int:
        """Number of embeddings (optionally capped at ``limit``)."""
        n = 0
        for _ in self.iter_embeddings(limit=limit):
            n += 1
        return n

    # ------------------------------------------------------------------ #
    # shared guards and dispatch
    # ------------------------------------------------------------------ #
    def _query_feasible(self) -> bool:
        if self.pattern.num_vertices == 0:
            return False
        if self.pattern.num_vertices > self.target.num_vertices:
            return False
        if self.pattern.num_edges > self.target.num_edges:
            return False
        return self._labels_feasible()

    def _labels_feasible(self) -> bool:
        target_counts = self.target.label_counts()
        for label, needed in self.pattern.label_counts().items():
            if target_counts.get(label, 0) < needed:
                return False
        return True

    def _run_search(
        self, order: Sequence[Vertex], anchor: Optional[Tuple[Vertex, Vertex]]
    ) -> Iterator[Mapping]:
        self.stats.searches += 1
        if self._csr is not None:
            return self._search_csr_kernels(order, anchor)
        return self._search_dict(order, anchor)

    # ------------------------------------------------------------------ #
    # matching orders
    # ------------------------------------------------------------------ #
    def _rarity_key(self):
        pattern = self.pattern
        target_counts = self.target.label_counts()

        def rarity(v: Vertex) -> Tuple[int, int, str]:
            return (
                target_counts.get(pattern.label(v), 0),
                -pattern.degree(v),
                repr(v),
            )

        return rarity

    def _expand_component(
        self, start: Vertex, remaining: Set[Vertex], order: List[Vertex], rarity
    ) -> None:
        """BFS-expand one component from ``start`` (rarity-greedy frontier)."""
        pattern = self.pattern
        order.append(start)
        remaining.discard(start)
        frontier = [v for v in pattern.neighbors(start) if v in remaining]
        while frontier:
            nxt = min(frontier, key=rarity)
            order.append(nxt)
            remaining.discard(nxt)
            frontier = [v for v in frontier if v != nxt]
            frontier.extend(
                v for v in pattern.neighbors(nxt) if v in remaining and v not in frontier
            )

    def _matching_order(self) -> List[Vertex]:
        """Connectivity-first free ordering: rarest label first, BFS-expand."""
        if self.pattern.num_vertices == 0:
            return []
        rarity = self._rarity_key()
        remaining = set(self.pattern.vertices())
        order: List[Vertex] = []
        while remaining:
            start = min(remaining, key=rarity)
            self._expand_component(start, remaining, order, rarity)
        return order

    def _anchored_order(self, p_anchor: Vertex) -> List[Vertex]:
        """Connectivity-first ordering rooted at the anchor.

        The anchor's component is BFS-expanded *from the anchor*, so every
        later vertex of that component has a mapped neighbor when its turn
        comes — the pre-refactor code reused the free-order tail here, which
        broke that invariant and degraded mid-search candidate pools to
        whole-graph label scans.  Remaining components follow the free
        construction.
        """
        rarity = self._rarity_key()
        remaining = set(self.pattern.vertices())
        order: List[Vertex] = []
        self._expand_component(p_anchor, remaining, order, rarity)
        while remaining:
            start = min(remaining, key=rarity)
            self._expand_component(start, remaining, order, rarity)
        return order

    # ------------------------------------------------------------------ #
    # candidate domains
    # ------------------------------------------------------------------ #
    def _ensure_domains(self) -> bool:
        """Build the candidate domains once; False ⇒ some domain is empty."""
        if not self._domains_ready:
            self._domains_ready = True
            if self._csr is not None:
                self._build_domains_csr_numpy()
            else:
                self._build_domains_dict()
            if (self._domains is None) and (self._domains_ix is None):
                self.stats.empty_domain_cutoffs += 1
        return (self._domains is not None) or (self._domains_ix is not None)

    def _pattern_requirements(self) -> List[Tuple[Vertex, object, int, Counter]]:
        """(vertex, label, degree, neighbor-label multiset) per pattern vertex."""
        pattern = self.pattern
        out = []
        for p in pattern.vertices():
            signature = Counter(pattern.label(q) for q in pattern.neighbors(p))
            out.append((p, pattern.label(p), pattern.degree(p), signature))
        return out

    def _ac_edges(self) -> List[Tuple[Vertex, Vertex]]:
        """Pattern edges in one fixed order for the arc-consistency pass."""
        return sorted(self.pattern.edges(), key=lambda e: (repr(e[0]), repr(e[1])))

    def _build_domains_dict(self) -> None:
        target = self.target
        signature_cache: Dict[Vertex, Counter] = {}

        def target_signature(t: Vertex) -> Counter:
            sig = signature_cache.get(t)
            if sig is None:
                sig = Counter(target.label(n) for n in target.neighbors(t))
                signature_cache[t] = sig
            return sig

        domains: Dict[Vertex, Set[Vertex]] = {}
        for p, label, degree, needed in self._pattern_requirements():
            domain: Set[Vertex] = set()
            for t in target.vertices_with_label(label):
                if target.degree(t) < degree:
                    continue
                if needed:
                    sig = target_signature(t)
                    if any(sig.get(lbl, 0) < cnt for lbl, cnt in needed.items()):
                        continue
                domain.add(t)
            if not domain:
                return
            domains[p] = domain

        # One arc-consistency pass: for each pattern edge, keep only domain
        # members with at least one neighbor in the opposite domain.
        for u, v in self._ac_edges():
            for a, b in ((u, v), (v, u)):
                dom_b = domains[b]
                kept = {
                    t
                    for t in domains[a]
                    if self._has_neighbor_in_dict(t, dom_b)
                }
                if not kept:
                    return
                domains[a] = kept
        self._domains = domains

    def _has_neighbor_in_dict(self, t: Vertex, domain: Set[Vertex]) -> bool:
        neighbors = self.target.neighbors(t)
        if len(domain) < len(neighbors):
            return any(s in neighbors for s in domain)
        return any(n in domain for n in neighbors)

    def _build_domains_csr_numpy(self) -> None:
        """Vectorized domain seeding + arc consistency (same sets as dict).

        Each pattern vertex's whole label class is filtered in one
        :func:`~repro.graph.kernels.seed_domain` call (degree + neighbor-label
        signature over gathered rows), and each arc-consistency direction is
        one :func:`~repro.graph.kernels.ac_filter` call.  Domains stay sorted
        ascending throughout, which is what keeps the search pools ascending.
        """
        g = self._csr
        assert g is not None
        offsets_np, nbrs_np, lids_np = g.csr_numpy()

        domains: Dict[Vertex, object] = {}
        for p, label, degree, needed in self._pattern_requirements():
            needed_ix = []
            feasible = True
            for lbl, cnt in needed.items():
                lid = g.label_id(lbl)
                if lid is None:
                    feasible = False
                    break
                needed_ix.append((lid, cnt))
            if not feasible:
                return
            members = g.label_members_np(label)
            if members is None or len(members) == 0:
                return
            domain = kernels.seed_domain(
                members, degree, needed_ix, offsets_np, nbrs_np, lids_np
            )
            if domain.size == 0:
                return
            domains[p] = domain

        for u, v in self._ac_edges():
            for a, b in ((u, v), (v, u)):
                kept = kernels.ac_filter(domains[a], domains[b], offsets_np, nbrs_np)
                if kept.size == 0:
                    return
                domains[a] = kept
        self._domains_np = domains
        self._domains_ix = {p: dom.tolist() for p, dom in domains.items()}
        self._domain_sets_ix = {p: set(dom) for p, dom in self._domains_ix.items()}

    def _domain_position(self, p_vertex: Vertex) -> Dict[int, int]:
        """dense index → position inside ``p_vertex``'s sorted domain (memoised)."""
        pos = self._domain_pos.get(p_vertex)
        if pos is None:
            assert self._domains_ix is not None
            pos = {t: i for i, t in enumerate(self._domains_ix[p_vertex])}
            self._domain_pos[p_vertex] = pos
        return pos

    def _candidate_adjacency(self, q: Vertex, p: Vertex) -> tuple:
        """Domain-filtered neighbor rows for the directed pattern edge (q, p).

        ``(flat, bounds, pos)``: the candidates for ``p`` given that ``q`` is
        mapped to domain member ``t`` are ``flat[bounds[k]:bounds[k+1]]`` with
        ``k = pos[t]`` — ``q``'s neighbor row intersected with ``p``'s domain,
        ascending.  Built once per matcher in one bulk
        :func:`~repro.graph.kernels.filter_rows` pass and converted to plain
        Python lists so the search inner loop stays allocation-free; row
        entries dropped here are per-visit domain/label probes the search
        never pays (counted once as ``domain_prunes``).
        """
        key = (q, p)
        cached = self._cand_adj.get(key)
        if cached is None:
            g = self._csr
            assert g is not None and self._domains_np is not None
            offsets_np, nbrs_np, _ = g.csr_numpy()
            flat, bounds, dropped = kernels.filter_rows(
                self._domains_np[q], self._domains_np[p], offsets_np, nbrs_np
            )
            self.stats.domain_prunes += dropped
            cached = (flat.tolist(), bounds.tolist(), self._domain_position(q))
            self._cand_adj[key] = cached
        return cached

    def _domain_contains(self, p_vertex: Vertex, t_vertex: Vertex) -> bool:
        if self._csr is not None:
            assert self._domain_sets_ix is not None
            try:
                index = self._csr.index_of(t_vertex)
            except Exception:
                return False
            return index in self._domain_sets_ix[p_vertex]
        assert self._domains is not None
        return t_vertex in self._domains[p_vertex]

    def _domain_ids(self, p_vertex: Vertex) -> List[Vertex]:
        """The candidate domain as vertex ids in canonical (repr-sorted) order."""
        if self._csr is not None:
            assert self._domains_ix is not None
            ids = self._csr.vertex_ids
            members = [ids[i] for i in self._domains_ix[p_vertex]]
        else:
            assert self._domains is not None
            members = list(self._domains[p_vertex])
        return sorted(members, key=repr)

    def domain_sizes(self) -> Dict[Vertex, int]:
        """Per-pattern-vertex candidate-domain sizes ({} when some domain is empty)."""
        if not self._query_feasible() or not self._ensure_domains():
            return {}
        if self._csr is not None:
            assert self._domains_ix is not None
            return {p: len(dom) for p, dom in self._domains_ix.items()}
        assert self._domains is not None
        return {p: len(dom) for p, dom in self._domains.items()}

    # ------------------------------------------------------------------ #
    # dict-backend search (the reference path, domain-filtered)
    # ------------------------------------------------------------------ #
    def _search_dict(
        self, order: Sequence[Vertex], anchor: Optional[Tuple[Vertex, Vertex]]
    ) -> Iterator[Mapping]:
        if anchor is not None:
            p_anchor, t_anchor = anchor
            initial: Mapping = {p_anchor: t_anchor}
            used = {t_anchor}
            start_index = 1
        else:
            initial = {}
            used = set()
            start_index = 0
        for mapping in self._search(order, start_index, initial, used):
            yield dict(mapping)

    def _candidates(
        self, p_vertex: Vertex, mapping: Mapping, used: Set[Vertex]
    ) -> Iterator[Vertex]:
        pattern, target = self.pattern, self.target
        stats = self.stats
        assert self._domains is not None
        domain = self._domains[p_vertex]
        label = pattern.label(p_vertex)
        mapped_neighbors = [u for u in pattern.neighbors(p_vertex) if u in mapping]
        if mapped_neighbors:
            # Candidates must be unused neighbours of every mapped pattern-neighbour.
            first = mapped_neighbors[0]
            candidate_pool = target.neighbors(mapping[first])
            for other in mapped_neighbors[1:]:
                candidate_pool = candidate_pool & target.neighbors(mapping[other])
            for t_vertex in candidate_pool:
                if t_vertex not in used and target.label(t_vertex) == label:
                    if t_vertex not in domain:
                        stats.domain_prunes += 1
                        continue
                    stats.candidate_tests += 1
                    yield t_vertex
        else:
            if mapping:
                stats.pool_fallbacks += 1
            # Iterate the label pool (canonical frozenset layout) rather than
            # the domain set, so the yielded sequence matches the reference
            # path exactly; the domain only filters.
            for t_vertex in target.vertices_with_label(label):
                if t_vertex not in used:
                    if t_vertex not in domain:
                        stats.domain_prunes += 1
                        continue
                    stats.candidate_tests += 1
                    yield t_vertex

    def _feasible(self, p_vertex: Vertex, t_vertex: Vertex, mapping: Mapping) -> bool:
        pattern, target = self.pattern, self.target
        if target.degree(t_vertex) < pattern.degree(p_vertex):
            return False
        t_neighbors = target.neighbors(t_vertex)
        for p_neighbor in pattern.neighbors(p_vertex):
            if p_neighbor in mapping and mapping[p_neighbor] not in t_neighbors:
                return False
        if self.induced:
            # No extra edges allowed between the new image and previously mapped images.
            p_neighbor_set = pattern.neighbors(p_vertex)
            for p_mapped, t_mapped in mapping.items():
                if t_mapped in t_neighbors and p_mapped not in p_neighbor_set:
                    return False
        return True

    def _search(
        self,
        order: Sequence[Vertex],
        index: int,
        mapping: Mapping,
        used: Set[Vertex],
    ) -> Iterator[Mapping]:
        if index == len(order):
            yield mapping
            return
        p_vertex = order[index]
        for t_vertex in self._candidates(p_vertex, mapping, used):
            if not self._feasible(p_vertex, t_vertex, mapping):
                continue
            mapping[p_vertex] = t_vertex
            used.add(t_vertex)
            yield from self._search(order, index + 1, mapping, used)
            del mapping[p_vertex]
            used.discard(t_vertex)

    # ------------------------------------------------------------------ #
    # CSR index-space search (the FrozenGraph path)
    # ------------------------------------------------------------------ #
    def _search_context(self, order: Sequence[Vertex]) -> tuple:
        """Per-matching-order search structures, built once per order.

        An anchored batch issues one search per anchor, so the structures
        are memoised by order rather than rebuilt per search.  For every
        position with mapped pattern neighbors the context also pins the
        **base** neighbor (the one whose candidate-adjacency rows are walked;
        the others are only probed), chosen as the earlier-mapped neighbor
        whose filtered adjacency is smallest overall.
        """
        key = tuple(order)
        context = self._search_contexts.get(key)
        if context is not None:
            return context
        pattern = self.pattern
        position = {p: i for i, p in enumerate(order)}
        earlier_neighbors: List[List[Vertex]] = []
        earlier_others: List[List[Vertex]] = []
        base_adj: List[Optional[tuple]] = []
        other_adj: List[List[tuple]] = []
        for i, p in enumerate(order):
            nbrs_p = pattern.neighbors(p)
            mapped = [q for q in nbrs_p if position[q] < i]
            earlier_neighbors.append(mapped)
            if self.induced:
                earlier_others.append(
                    [order[j] for j in range(i) if order[j] not in nbrs_p]
                )
            else:
                earlier_others.append([])
            if mapped:
                adjacencies = [(self._candidate_adjacency(q, p), q) for q in mapped]
                # Walk the base with the fewest total filtered entries; the
                # rest are membership probes, so their size barely matters.
                adjacencies.sort(key=lambda a: a[0][1][-1])
                base_adj.append(adjacencies[0])
                other_adj.append(adjacencies[1:])
            else:
                base_adj.append(None)
                other_adj.append([])
        context = (earlier_neighbors, earlier_others, base_adj, other_adj)
        self._search_contexts[key] = context
        return context

    def _search_csr_kernels(
        self, order: Sequence[Vertex], anchor: Optional[Tuple[Vertex, Vertex]]
    ) -> Iterator[Mapping]:
        """Index-space search over precomputed candidate adjacencies.

        Candidate pools are ascending row intersections, so a free search
        yields embeddings in ascending index-space order; the per-node work
        is a bounds lookup plus a used-check because label and domain
        filtering already happened in bulk.  The deepest pattern vertex is
        emitted inline — one dict copy per embedding instead of one generator
        frame.
        """
        g = self._csr
        assert g is not None and self._domains_ix is not None
        stats = self.stats
        offsets = g.offsets
        nbrs = g.neighbor_indices
        ids = g.vertex_ids
        earlier_neighbors, earlier_others, base_adj, other_adj = (
            self._search_context(order)
        )

        n_p = len(order)
        mapping_ix: Dict[Vertex, int] = {}
        used: Set[int] = set()
        start_index = 0
        if anchor is not None:
            p_anchor, t_anchor = anchor
            anchor_ix = g.index_of(t_anchor)
            mapping_ix[p_anchor] = anchor_ix
            used.add(anchor_ix)
            start_index = 1

        def row_contains(lo: int, hi: int, value: int) -> bool:
            j = bisect_left(nbrs, value, lo, hi)
            return j < hi and nbrs[j] == value

        def induced_ok(i: int, candidate: int) -> bool:
            row_lo, row_hi = offsets[candidate], offsets[candidate + 1]
            for q in earlier_others[i]:
                if row_contains(row_lo, row_hi, mapping_ix[q]):
                    return False
            return True

        induced = self.induced

        def pool(i: int) -> Iterable[int]:
            """Ascending candidates for position ``i`` (pre-filtered rows)."""
            base = base_adj[i]
            if base is None:
                if mapping_ix:
                    stats.pool_fallbacks += 1
                return self._domains_ix[order[i]]
            (flat, bounds, pos), q0 = base
            k = pos[mapping_ix[q0]]
            candidates = flat[bounds[k]:bounds[k + 1]]
            for (o_flat, o_bounds, o_pos), q in other_adj[i]:
                if not candidates:
                    break
                ok = o_pos[mapping_ix[q]]
                o_lo, o_hi = o_bounds[ok], o_bounds[ok + 1]
                candidates = [
                    c
                    for c in candidates
                    if (j := bisect_left(o_flat, c, o_lo, o_hi)) < o_hi
                    and o_flat[j] == c
                ]
            return candidates

        def search(i: int) -> Iterator[Mapping]:
            if i == n_p:  # fully anchored single-vertex pattern
                yield {p: ids[t] for p, t in mapping_ix.items()}
                return
            p = order[i]
            if i == n_p - 1:
                # Leaf level: emit embeddings inline, one dict copy each.
                prefix = {pp: ids[tt] for pp, tt in mapping_ix.items()}
                for candidate in pool(i):
                    if candidate in used:
                        continue
                    stats.candidate_tests += 1
                    if induced and not induced_ok(i, candidate):
                        continue
                    mapping = dict(prefix)
                    mapping[p] = ids[candidate]
                    yield mapping
                return
            for candidate in pool(i):
                if candidate in used:
                    continue
                stats.candidate_tests += 1
                if induced and not induced_ok(i, candidate):
                    continue
                mapping_ix[p] = candidate
                used.add(candidate)
                yield from search(i + 1)
                del mapping_ix[p]
                used.discard(candidate)

        yield from search(start_index)


# ---------------------------------------------------------------------- #
# module-level conveniences
# ---------------------------------------------------------------------- #
def find_embeddings(
    pattern: LabeledGraph,
    target: GraphView,
    limit: Optional[int] = None,
    induced: bool = False,
) -> List[Mapping]:
    """All embeddings of ``pattern`` in ``target`` (possibly capped)."""
    return SubgraphMatcher(pattern, target, induced=induced).find_embeddings(limit=limit)


def find_anchored_embeddings(
    pattern: LabeledGraph,
    target: GraphView,
    p_anchor: Vertex,
    t_anchors: Optional[Iterable[Vertex]] = None,
    limit_per_anchor: Optional[int] = None,
    induced: bool = False,
) -> Dict[Vertex, List[Mapping]]:
    """Embeddings grouped by anchor image, one domain build for the batch.

    ``t_anchors`` defaults to every feasible target vertex of the anchor's
    label (its candidate domain) in canonical order.
    """
    matcher = SubgraphMatcher(pattern, target, induced=induced)
    grouped: Dict[Vertex, List[Mapping]] = {}
    for t_anchor, mapping in matcher.iter_anchored(
        p_anchor, t_anchors=t_anchors, limit_per_anchor=limit_per_anchor
    ):
        grouped.setdefault(t_anchor, []).append(mapping)
    return grouped


def subgraph_exists(pattern: LabeledGraph, target: GraphView) -> bool:
    """Whether ``pattern`` has at least one embedding in ``target``."""
    return SubgraphMatcher(pattern, target).exists()


def are_isomorphic(first: GraphView, second: GraphView) -> bool:
    """Exact labeled graph isomorphism via bidirectional size checks + matching."""
    if first.num_vertices != second.num_vertices or first.num_edges != second.num_edges:
        return False
    if first.label_counts() != second.label_counts():
        return False
    if first.degree_sequence() != second.degree_sequence():
        return False
    return SubgraphMatcher(first, second, induced=True).exists()


def count_automorphisms(graph: LabeledGraph, limit: Optional[int] = None) -> int:
    """Number of label-preserving automorphisms of ``graph``."""
    return SubgraphMatcher(graph, graph, induced=True).count(limit=limit)


def embedding_image(mapping: Mapping) -> FrozenSet[Vertex]:
    """The set of data-graph vertices an embedding covers."""
    return frozenset(mapping.values())


def embedding_edge_image(
    pattern: LabeledGraph, mapping: Mapping
) -> FrozenSet[Tuple[Vertex, Vertex]]:
    """The set of data-graph edges an embedding covers (normalised by repr order)."""
    return frozenset(
        normalise_edge(mapping[u], mapping[v]) for u, v in pattern.edges()
    )


def matcher_digest(embeddings: Iterable[Mapping]) -> str:
    """Canonical, order-insensitive fingerprint of an embedding collection.

    Each mapping is serialised with its pairs in repr-sorted pattern-vertex
    order and the rows are sorted before hashing, so two enumerations of the
    same embedding *set* — in particular the dict-backend and the CSR
    index-space search paths — always digest identically.  This is the parity
    gate mirroring the overlap engine's ``conflict_digest``.
    """
    rows = sorted(
        "|".join(
            f"{p!r}>{g!r}"
            for p, g in sorted(mapping.items(), key=lambda kv: repr(kv[0]))
        )
        for mapping in embeddings
    )
    return hashlib.sha256(";".join(rows).encode()).hexdigest()[:16]
