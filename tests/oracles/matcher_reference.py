"""The pre-domain subgraph matcher, kept verbatim as the parity reference.

This is the VF2-style backtracking search :mod:`repro.graph.isomorphism`
shipped before the candidate-domain engine replaced it: frozenset neighbor
views, per-candidate intersection pools, and the original anchored ordering
(anchor moved to the front of the *free* matching order, which can strand
mid-search vertices without a mapped neighbor and silently fall back to
whole-graph label scans).

It exists for two jobs and must not be "improved":

* the hypothesis parity suite (``tests/test_matcher_parity.py``) asserts the
  domain matcher enumerates exactly the embedding sets this implementation
  does, across backends, semantics and anchoring;
* its ``candidate_tests`` counter is the baseline the elimination test
  measures the domain matcher's per-candidate feasibility tests against.

The only changes to the historical code are the two counters
(``candidate_tests``, ``pool_fallbacks``), which observe the search without
changing a single branch of it, and the ``limit`` cap, which is checked
before each embedding is yielded (so ``limit=0`` yields none).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.view import GraphView

Mapping = Dict[Vertex, Vertex]


class ReferenceSubgraphMatcher:
    """Enumerates embeddings of ``pattern`` in ``target`` (pre-domain engine)."""

    def __init__(
        self,
        pattern: LabeledGraph,
        target: GraphView,
        induced: bool = False,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.induced = induced
        self._order = self._matching_order()
        #: candidates that reached the per-candidate feasibility check
        self.candidate_tests = 0
        #: label-scan candidate pools used mid-search (no mapped neighbor)
        self.pool_fallbacks = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def find_embeddings(
        self,
        limit: Optional[int] = None,
        anchor: Optional[Tuple[Vertex, Vertex]] = None,
    ) -> List[Mapping]:
        return list(self.iter_embeddings(limit=limit, anchor=anchor))

    def iter_embeddings(
        self,
        limit: Optional[int] = None,
        anchor: Optional[Tuple[Vertex, Vertex]] = None,
    ) -> Iterator[Mapping]:
        if self.pattern.num_vertices == 0:
            return
        if self.pattern.num_vertices > self.target.num_vertices:
            return
        if self.pattern.num_edges > self.target.num_edges:
            return
        if not self._labels_feasible():
            return
        order = self._order
        if anchor is not None:
            p_anchor, t_anchor = anchor
            if p_anchor not in self.pattern or t_anchor not in self.target:
                return
            if self.pattern.label(p_anchor) != self.target.label(t_anchor):
                return
            order = [p_anchor] + [v for v in order if v != p_anchor]
            initial: Mapping = {p_anchor: t_anchor}
            used = {t_anchor}
            start_index = 1
        else:
            initial = {}
            used = set()
            start_index = 0

        for mapping in islice(self._search(order, start_index, initial, used), limit):
            yield dict(mapping)

    def exists(self, anchor: Optional[Tuple[Vertex, Vertex]] = None) -> bool:
        for _ in self.iter_embeddings(limit=1, anchor=anchor):
            return True
        return False

    def count(self, limit: Optional[int] = None) -> int:
        n = 0
        for _ in self.iter_embeddings(limit=limit):
            n += 1
        return n

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _labels_feasible(self) -> bool:
        target_counts = self.target.label_counts()
        for label, needed in self.pattern.label_counts().items():
            if target_counts.get(label, 0) < needed:
                return False
        return True

    def _matching_order(self) -> List[Vertex]:
        """Connectivity-first ordering: rarest label first, then BFS-expand."""
        pattern = self.pattern
        if pattern.num_vertices == 0:
            return []
        target_counts = self.target.label_counts()

        def rarity(v: Vertex) -> Tuple[int, int, str]:
            return (
                target_counts.get(pattern.label(v), 0),
                -pattern.degree(v),
                repr(v),
            )

        remaining = set(pattern.vertices())
        order: List[Vertex] = []
        while remaining:
            start = min(remaining, key=rarity)
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
        return order

    def _candidates(
        self, p_vertex: Vertex, mapping: Mapping, used: Set[Vertex]
    ) -> Iterator[Vertex]:
        pattern, target = self.pattern, self.target
        label = pattern.label(p_vertex)
        mapped_neighbors = [u for u in pattern.neighbors(p_vertex) if u in mapping]
        if mapped_neighbors:
            first = mapped_neighbors[0]
            candidate_pool = target.neighbors(mapping[first])
            for other in mapped_neighbors[1:]:
                candidate_pool = candidate_pool & target.neighbors(mapping[other])
            for t_vertex in candidate_pool:
                if t_vertex not in used and target.label(t_vertex) == label:
                    yield t_vertex
        else:
            if mapping:
                self.pool_fallbacks += 1
            for t_vertex in self.target.vertices_with_label(label):
                if t_vertex not in used:
                    yield t_vertex

    def _feasible(self, p_vertex: Vertex, t_vertex: Vertex, mapping: Mapping) -> bool:
        self.candidate_tests += 1
        pattern, target = self.pattern, self.target
        if target.degree(t_vertex) < pattern.degree(p_vertex):
            return False
        t_neighbors = target.neighbors(t_vertex)
        for p_neighbor in pattern.neighbors(p_vertex):
            if p_neighbor in mapping and mapping[p_neighbor] not in t_neighbors:
                return False
        if self.induced:
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
