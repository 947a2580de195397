"""SpiderGrow / SpiderExtend / CheckMerge — the growth engine of SpiderMine.

Stages II and III of SpiderMine repeatedly run ``SpiderGrow``: every current
pattern is extended at its boundary vertices by appending frequent spiders
(Algorithm 2/3 of the paper), and patterns whose embeddings start to overlap
are merged (Algorithm 4, ``CheckMerge``).

The engine is *occurrence-based*: a pattern is represented by the set of its
**occurrences** — the concrete (vertex set, edge set) images of its
embeddings in the data graph — grouped under the canonical code of the
occurrence subgraph.  This is equivalent to carrying abstract pattern graphs
plus embedding maps (the code identifies the abstract pattern; the occurrence
is the embedding image) but makes gluing during growth and merging trivial:
it is just a union of vertex/edge sets, with the paper's two SpiderExtend
conditions checked directly on data vertices:

* **Maximal overlap** (Algorithm 3, condition I): the spider used at boundary
  vertex ``v`` must cover every pattern edge incident to ``v``;
* **Internal integrity** (condition II): the spider must not contribute an
  edge between two vertices that are already part of the pattern occurrence.

Support is the configured single-graph measure computed over the occurrence
vertex/edge sets.  Patterns are built only at report time
(:func:`occurrences_to_pattern`), and aligned through canonical orders:
nothing in this module runs a subgraph matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

# ``canonical_code`` stays importable from this module for callers that
# patch or time it here; occurrences are coded through a ``CodeTable`` or
# ``labelled_canonical``.
from ..graph.canonical import CodeTable, canonical_code, labelled_canonical  # noqa: F401
from ..graph.labeled_graph import LabeledGraph, Vertex, normalise_edge
from ..graph.view import GraphView
from ..patterns.embedding import Embedding
from ..patterns.overlap import (
    DEFAULT_EXACT_LIMIT,
    EmbeddingIndex,
    independent_set_size,
)
from ..patterns.pattern import Pattern
from ..patterns.spider import Spider
from ..patterns.support import SupportMeasure
from .config import SpiderMineConfig

EdgeTuple = Tuple[Vertex, Vertex]

# Shared with Embedding.edge_image — one endpoint ordering, it can never drift.
_normalise_edge = normalise_edge


@dataclass(frozen=True)
class Occurrence:
    """One concrete image of a pattern in the data graph."""

    vertices: FrozenSet[Vertex]
    edges: FrozenSet[EdgeTuple]

    @classmethod
    def from_embedding(cls, pattern_graph: LabeledGraph, embedding: Embedding) -> "Occurrence":
        mapping = dict(embedding.mapping)
        vertices = frozenset(mapping.values())
        edges = frozenset(
            _normalise_edge(mapping[u], mapping[v]) for u, v in pattern_graph.edges()
        )
        return cls(vertices=vertices, edges=edges)

    @classmethod
    def from_vertices_edges(
        cls, vertices: Iterable[Vertex], edges: Iterable[EdgeTuple]
    ) -> "Occurrence":
        return cls(
            vertices=frozenset(vertices),
            edges=frozenset(_normalise_edge(u, v) for u, v in edges),
        )

    def union(self, other: "Occurrence") -> "Occurrence":
        return Occurrence(vertices=self.vertices | other.vertices, edges=self.edges | other.edges)

    def overlaps(self, other: "Occurrence", edge_based: bool = False) -> bool:
        """Pairwise conflict test under the requested overlap notion.

        Spot checks only — batch overlap scans go through the shared
        :class:`~repro.patterns.overlap.EmbeddingIndex` instead.
        """
        if edge_based:
            return bool(self.edges & other.edges)
        return bool(self.vertices & other.vertices)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class CandidateEntry:
    """A candidate pattern during growth: its occurrences plus growth metadata."""

    code: str
    occurrences: List[Occurrence]
    merged: bool = False
    frontier: Optional[Set[Vertex]] = None   # data vertices added by the last growth step


def occurrence_code(
    data_graph: GraphView, occurrence: Occurrence, table: Optional[CodeTable] = None
) -> str:
    """Canonical code of the pattern an occurrence realises.

    ``table`` is ``data_graph``'s :class:`CodeTable`, for callers that code
    many occurrences of one graph; the code is the same with or without it.
    """
    if table is None:
        return labelled_canonical(occurrence.vertices, data_graph.label, occurrence.edges)[1]
    return table.code(occurrence.vertices, occurrence.edges)


def _inside_one(
    mask: int, occurrence: Occurrence, masks: Sequence[int], bigger: Sequence[Occurrence]
) -> bool:
    """Whether ``occurrence`` lies inside one of ``bigger``, vertices and edges.

    ``mask`` and ``masks`` are the vertex masks of ``occurrence`` and of each
    of ``bigger`` (see :meth:`GrowthEngine._vmask`).
    """
    for big_mask, big in zip(masks, bigger):
        if not mask & ~big_mask and occurrence.edges <= big.edges:
            return True
    return False


# ---------------------------------------------------------------------- #
# occurrence-level support
# ---------------------------------------------------------------------- #
def occurrence_key(occurrence: Occurrence, measure: Optional[SupportMeasure] = None) -> object:
    """The identity under which ``measure`` counts an occurrence once.

    Vertex sets for the vertex-overlap measures (and when no measure is
    given); edge sets for the edge-disjoint measure, where two occurrences on
    the same vertices through different data edges are distinct witnesses.
    An edgeless occurrence keys on its vertices.
    """
    if measure is SupportMeasure.EDGE_DISJOINT:
        return ("e", occurrence.edges) if occurrence.edges else ("v", occurrence.vertices)
    return occurrence.vertices


def occurrence_support(
    occurrences: Sequence[Occurrence],
    measure: SupportMeasure,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> int:
    """Support of a pattern given its distinct occurrences.

    Occurrences are deduplicated by :func:`occurrence_key` under ``measure``.
    The conflict graph comes from the shared inverted-index overlap engine.
    """
    seen: Set[object] = set()
    items: List[Occurrence] = []
    for occ in occurrences:
        key = occurrence_key(occ, measure)
        if key in seen:
            continue
        seen.add(key)
        items.append(occ)
    if measure is SupportMeasure.EMBEDDING_IMAGES:
        return len(items)
    index = EmbeddingIndex.from_occurrences(items)
    conflict = index.conflict_graph(edge_based=measure is SupportMeasure.EDGE_DISJOINT)
    return independent_set_size(conflict, exact_limit)


def occurrences_to_pattern(
    data_graph: GraphView,
    occurrences: Sequence[Occurrence],
    measure: Optional[SupportMeasure] = None,
) -> Pattern:
    """Convert a group of same-code occurrences into a :class:`Pattern` object.

    Pattern vertex ``i`` is position ``i`` of the first occurrence's
    canonical order.  Each occurrence that is distinct under ``measure`` (see
    :func:`occurrence_key`) contributes the embedding ``i -> its own
    canonical order[i]``: equal codes make that map an isomorphism onto
    exactly the occurrence's vertices and edges (see
    :func:`~repro.graph.canonical.labelled_canonical`), so no matcher runs
    and the pattern carries the witnesses its support counted.  An
    occurrence whose code differs from the first one's raises ``ValueError``.
    """
    if not occurrences:
        raise ValueError("cannot build a pattern from zero occurrences")
    first = occurrences[0]
    order, code = labelled_canonical(first.vertices, data_graph.label, first.edges)
    position = {v: i for i, v in enumerate(order)}
    pattern_graph = LabeledGraph()
    for i, v in enumerate(order):
        pattern_graph.add_vertex(i, data_graph.label(v))
    for a, b in sorted(sorted((position[u], position[v])) for u, v in first.edges):
        pattern_graph.add_edge(a, b)
    embeddings = [Embedding.from_dict(dict(enumerate(order)))]
    seen: Set[object] = {occurrence_key(first, measure)}
    for occ in occurrences[1:]:
        key = occurrence_key(occ, measure)
        if key in seen:
            continue
        seen.add(key)
        occ_order, occ_code = labelled_canonical(occ.vertices, data_graph.label, occ.edges)
        if occ_code != code:
            raise ValueError(f"occurrence code {occ_code!r} differs from the group's {code!r}")
        embeddings.append(Embedding.from_dict(dict(enumerate(occ_order))))
    return Pattern(graph=pattern_graph, embeddings=embeddings)


# ---------------------------------------------------------------------- #
# the growth engine
# ---------------------------------------------------------------------- #
class GrowthEngine:
    """Implements SpiderGrow over a fixed data graph and Stage-I spider index."""

    def __init__(
        self,
        data_graph: GraphView,
        spider_index: Dict[Vertex, List[Tuple[Spider, Embedding]]],
        config: SpiderMineConfig,
    ) -> None:
        self.data_graph = data_graph
        self.config = config
        # Every occurrence-containment test runs on vertex masks: data vertex
        # -> its own bit, so a vertex subset test is one ``&``.
        self._bit: Dict[Vertex, int] = {
            v: 1 << i for i, v in enumerate(data_graph.vertices())
        }
        self._code_table = CodeTable(data_graph)
        # Pre-convert the spider index to occurrences once, keeping only the
        # *maximal* occurrences at each head: a spider occurrence whose vertex
        # set is contained in another occurrence at the same head can never
        # satisfy the maximal-overlap condition better than the larger one, so
        # dropping it removes redundant growth branches without losing any
        # reachable pattern.
        self._spider_occurrences: Dict[Vertex, List[Occurrence]] = {}
        for head, entries in spider_index.items():
            occs: List[Occurrence] = []
            seen: Set[FrozenSet[Vertex]] = set()
            for spider, embedding in entries:
                occ = Occurrence.from_embedding(spider.graph, embedding)
                if occ.vertices not in seen:
                    seen.add(occ.vertices)
                    occs.append(occ)
            # Larger spiders first: they satisfy maximal overlap more often and
            # grow the pattern faster (fewer, bigger steps).
            occs.sort(key=lambda o: (o.num_vertices, o.num_edges), reverse=True)
            maximal: List[Occurrence] = []
            maximal_masks: List[int] = []
            for occ in occs:
                mask = self._vmask(occ.vertices)
                if not _inside_one(mask, occ, maximal_masks, maximal):
                    maximal.append(occ)
                    maximal_masks.append(mask)
            self._spider_occurrences[head] = maximal
        # Memoised occurrence codes: the same (vertices, edges) pair is coded
        # many times across growth iterations and merge checks.
        self._code_cache: Dict[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]], str] = {}
        # Counters surfaced in MiningStatistics.
        self.merge_events = 0
        self.candidates_generated = 0

    def _code(self, occurrence: Occurrence) -> str:
        key = (occurrence.vertices, occurrence.edges)
        cached = self._code_cache.get(key)
        if cached is None:
            cached = occurrence_code(self.data_graph, occurrence, self._code_table)
            self._code_cache[key] = cached
        return cached

    def _vmask(self, vertices: FrozenSet[Vertex]) -> int:
        """The int with the bit of every vertex in ``vertices`` set (distinct bits: a sum)."""
        return sum(map(self._bit.__getitem__, vertices))

    # ------------------------------------------------------------------ #
    def seed_entries(self, seeds: Sequence[Spider]) -> Dict[str, CandidateEntry]:
        """Initial candidate entries from the randomly drawn seed spiders."""
        entries: Dict[str, CandidateEntry] = {}
        for spider in seeds:
            occurrences = [
                Occurrence.from_embedding(spider.graph, e) for e in spider.embeddings
            ]
            code = self._code(occurrences[0]) if occurrences else None
            if code is None:
                continue
            entry = entries.get(code)
            if entry is None:
                entries[code] = CandidateEntry(
                    code=code,
                    occurrences=self._dedupe(occurrences),
                    frontier=(
                        set().union(*(o.vertices for o in occurrences))
                        if occurrences
                        else set()
                    ),
                )
            else:
                entry.occurrences = self._dedupe(entry.occurrences + occurrences)
                if entry.frontier is not None:
                    for occ in occurrences:
                        entry.frontier |= occ.vertices
        return entries

    # ------------------------------------------------------------------ #
    def grow(
        self,
        entries: Dict[str, CandidateEntry],
        merge_enabled: bool = True,
    ) -> Dict[str, CandidateEntry]:
        """One SpiderGrow iteration: extend every entry, then check merges.

        Returns the next generation of candidate entries.  Entries that cannot
        be extended are carried over unchanged (a pattern that stops growing
        must not silently vanish).
        """
        config = self.config
        new_groups: Dict[str, List[Occurrence]] = {}
        new_meta: Dict[str, Dict[str, object]] = {}
        usage: Dict[Vertex, Set[str]] = {}

        for code, entry in entries.items():
            grew = False
            for occ in entry.occurrences[: config.max_occurrences_grown_per_entry]:
                for new_occ, head_used in self._extend_occurrence(occ, entry.frontier):
                    grew = True
                    new_code = self._code(new_occ)
                    new_groups.setdefault(new_code, []).append(new_occ)
                    meta = new_meta.setdefault(
                        new_code, {"merged": False, "frontier": set(), "parents": set()}
                    )
                    meta["merged"] = bool(meta["merged"]) or entry.merged
                    meta["frontier"] |= new_occ.vertices - occ.vertices  # type: ignore[operator]
                    meta["parents"].add(code)  # type: ignore[union-attr]
                    usage.setdefault(head_used, set()).add(code)
                    self.candidates_generated += 1
            if not grew:
                # Carry the unextendable entry forward untouched.
                new_groups.setdefault(code, []).extend(entry.occurrences)
                meta = new_meta.setdefault(
                    code,
                    {
                        "merged": entry.merged,
                        "frontier": set(entry.frontier or set()),
                        "parents": {code},
                    },
                )
                meta["merged"] = bool(meta["merged"]) or entry.merged

        next_entries = self._build_entries(new_groups, new_meta)

        # A pattern whose every extension fell below the support threshold must
        # not vanish: carry it forward unchanged (it is a local maximum).
        surviving_parents: Set[str] = set()
        for code, _entry in next_entries.items():
            parents = new_meta.get(code, {}).get("parents", set())
            surviving_parents |= set(parents)  # type: ignore[arg-type]
        for code, entry in entries.items():
            if code not in surviving_parents and code not in next_entries:
                next_entries[code] = entry

        if merge_enabled:
            self._check_merge(next_entries, usage)

        next_entries = self._prune_subsumed(next_entries)
        next_entries = self._enforce_caps(next_entries)
        return next_entries

    # ------------------------------------------------------------------ #
    # SpiderExtend on one occurrence
    # ------------------------------------------------------------------ #
    def _extend_occurrence(
        self,
        occurrence: Occurrence,
        frontier: Optional[Set[Vertex]],
    ) -> List[Tuple[Occurrence, Vertex]]:
        """All one-spider extensions of ``occurrence`` (the paper's SpiderExtend).

        Returns (new occurrence, boundary data vertex whose spider was used).
        """
        results: List[Tuple[Occurrence, Vertex]] = []
        boundary = occurrence.vertices if frontier is None else (occurrence.vertices & frontier)
        if not boundary:
            boundary = occurrence.vertices
        per_boundary_cap = self.config.max_extensions_per_boundary
        for head in boundary:
            incident = {e for e in occurrence.edges if head in e}
            accepted = 0
            for spider_occ in self._spider_occurrences.get(head, ()):
                new_vertices = spider_occ.vertices - occurrence.vertices
                if not new_vertices:
                    continue
                # Condition (I) — maximal overlap: the spider covers every
                # pattern edge incident to the boundary vertex.
                if not incident <= spider_occ.edges:
                    continue
                # Condition (II) — internal integrity: no spider edge may
                # connect two vertices already inside the pattern occurrence.
                violates = False
                for u, v in spider_occ.edges - occurrence.edges:
                    if u in occurrence.vertices and v in occurrence.vertices:
                        violates = True
                        break
                if violates:
                    continue
                results.append((occurrence.union(spider_occ), head))
                accepted += 1
                if accepted >= per_boundary_cap:
                    break
        return results

    # ------------------------------------------------------------------ #
    # CheckMerge
    # ------------------------------------------------------------------ #
    def _check_merge(
        self,
        entries: Dict[str, CandidateEntry],
        usage: Dict[Vertex, Set[str]],
    ) -> None:
        """Merge candidate patterns whose occurrences started to overlap.

        Detection follows the paper: two patterns are merge candidates when
        they used a spider headed at the same data vertex (``usage``) or when
        their occurrences share vertices.  Merged results are added to
        ``entries`` with ``merged=True``; the inputs are also flagged so the
        Stage-II pruning keeps them.
        """
        # The shared overlap engine's inverted vertex→ids map: merge candidates
        # are discovered per shared data vertex, so only occurrence pairs that
        # actually overlap are ever examined, and hard caps bound the work on
        # dense, label-poor graphs.
        occurrences_per_entry_indexed = 30
        pairs_per_vertex_cap = 12
        merge_unions_cap = 2000
        indexed: List[Tuple[str, Occurrence]] = []
        for code, entry in entries.items():
            for occ in entry.occurrences[:occurrences_per_entry_indexed]:
                indexed.append((code, occ))
        vertex_index = EmbeddingIndex.from_occurrences(
            occ for _, occ in indexed
        ).vertex_map

        merged_groups: Dict[str, List[Occurrence]] = {}
        merged_meta: Dict[str, Dict[str, object]] = {}
        unions_done = 0
        seen_union_keys: Set[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]]] = set()
        for vertex in sorted(vertex_index, key=repr):
            covering = [indexed[i] for i in vertex_index[vertex]]
            if len(covering) < 2 or unions_done >= merge_unions_cap:
                continue
            pairs_here = 0
            for i in range(len(covering)):
                if pairs_here >= pairs_per_vertex_cap or unions_done >= merge_unions_cap:
                    break
                code_a, occ_a = covering[i]
                for j in range(i + 1, len(covering)):
                    if pairs_here >= pairs_per_vertex_cap or unions_done >= merge_unions_cap:
                        break
                    code_b, occ_b = covering[j]
                    if code_a == code_b:
                        continue
                    entry_a = entries.get(code_a)
                    entry_b = entries.get(code_b)
                    if entry_a is None or entry_b is None:
                        continue
                    pairs_here += 1
                    union = occ_a.union(occ_b)
                    if union.vertices == occ_a.vertices or union.vertices == occ_b.vertices:
                        # One occurrence contains the other: the two growth
                        # lineages already cover overlapping ground, which is
                        # exactly the merge evidence Lemma 1 waits for — flag
                        # both patterns as merged without creating a new one.
                        entry_a.merged = True
                        entry_b.merged = True
                        continue
                    union_key = (union.vertices, union.edges)
                    if union_key in seen_union_keys:
                        continue
                    seen_union_keys.add(union_key)
                    unions_done += 1
                    new_code = self._code(union)
                    merged_groups.setdefault(new_code, []).append(union)
                    meta = merged_meta.setdefault(
                        new_code, {"merged": True, "frontier": set(), "parents": set()}
                    )
                    meta["frontier"] |= union.vertices  # type: ignore[operator]
                    meta["parents"] |= {code_a, code_b}  # type: ignore[operator]
                    entry_a.merged = True
                    entry_b.merged = True
                    self.merge_events += 1

        for code, entry in self._build_entries(merged_groups, merged_meta).items():
            existing = entries.get(code)
            if existing is None:
                entries[code] = entry
            else:
                existing.occurrences = self._dedupe(existing.occurrences + entry.occurrences)
                existing.merged = True
                if existing.frontier is not None and entry.frontier is not None:
                    existing.frontier |= entry.frontier

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _build_entries(
        self,
        groups: Dict[str, List[Occurrence]],
        meta: Dict[str, Dict[str, object]],
    ) -> Dict[str, CandidateEntry]:
        """Turn grouped occurrences into frequency-checked candidate entries."""
        config = self.config
        entries: Dict[str, CandidateEntry] = {}
        for code, occurrences in groups.items():
            deduped = self._dedupe(occurrences)
            support = occurrence_support(deduped, config.support_measure)
            if support < config.min_support:
                continue
            info = meta.get(code, {})
            entries[code] = CandidateEntry(
                code=code,
                occurrences=deduped,
                merged=bool(info.get("merged", False)),
                frontier=set(info.get("frontier", set())) or None,
            )
        return entries

    def _prune_subsumed(self, entries: Dict[str, CandidateEntry]) -> Dict[str, CandidateEntry]:
        """Drop candidates fully covered by a larger candidate.

        An entry A is *subsumed* by entry B when every occurrence of A lies
        inside a single occurrence of B, vertices and edges.  A is then a
        sub-pattern of B with no additional support evidence, so — since the
        miner only looks for the top-K *largest* patterns — keeping A merely
        multiplies the next iteration's work.  The merged flag of A is
        propagated to B so Stage-II pruning never loses merge evidence.

        Entries are visited largest first and each kept one gets a slot bit.
        A data vertex's slot mask names the kept entries with an occurrence
        on it, so AND-ing the masks over the vertices of A's smallest
        occurrence gives the candidate B's.  They are tried in code order and
        the first that subsumes A wins.  A candidate whose union vertex mask
        misses a vertex of A is rejected at once; only the rest pay the
        per-occurrence test.
        """
        if len(entries) <= 1:
            return entries
        ordered = sorted(
            entries.values(),
            key=lambda e: (
                max(o.num_vertices for o in e.occurrences),
                max(o.num_edges for o in e.occurrences),
            ),
            reverse=True,
        )
        vmask = self._vmask
        slots_on: Dict[Vertex, int] = {}
        # slot -> (kept entry, its occurrences' vertex masks, their union)
        slots: List[Tuple[CandidateEntry, List[int], int]] = []
        kept: Dict[str, CandidateEntry] = {}
        for entry in ordered:
            masks = [vmask(occ.vertices) for occ in entry.occurrences]
            union = 0
            for mask in masks:
                union |= mask
            smallest = min(entry.occurrences, key=lambda o: o.num_vertices)
            candidates = (1 << len(slots)) - 1
            for v in smallest.vertices:
                candidates &= slots_on.get(v, 0)
                if not candidates:
                    break
            tried: List[Tuple[CandidateEntry, List[int], int]] = []
            while candidates:
                low = candidates & -candidates
                tried.append(slots[low.bit_length() - 1])
                candidates ^= low
            tried.sort(key=lambda slot: slot[0].code)
            subsumed_by: Optional[CandidateEntry] = None
            for other, other_masks, other_union in tried:
                if union & ~other_union:
                    continue
                if all(
                    _inside_one(mask, occ, other_masks, other.occurrences)
                    for mask, occ in zip(masks, entry.occurrences)
                ):
                    subsumed_by = other
                    break
            if subsumed_by is not None:
                subsumed_by.merged = subsumed_by.merged or entry.merged
                continue
            bit = 1 << len(slots)
            slots.append((entry, masks, union))
            kept[entry.code] = entry
            for occ in entry.occurrences:
                for v in occ.vertices:
                    slots_on[v] = slots_on.get(v, 0) | bit
        return kept

    def _dedupe(self, occurrences: Sequence[Occurrence]) -> List[Occurrence]:
        seen: Set[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]]] = set()
        unique: List[Occurrence] = []
        for occ in occurrences:
            key = (occ.vertices, occ.edges)
            if key in seen:
                continue
            seen.add(key)
            unique.append(occ)
            if len(unique) >= self.config.max_embeddings_per_pattern:
                break
        return unique

    def _enforce_caps(self, entries: Dict[str, CandidateEntry]) -> Dict[str, CandidateEntry]:
        cap = self.config.max_patterns_per_iteration
        if len(entries) <= cap:
            return entries
        # Keep the largest candidates (ties broken by support, then code) —
        # the miner is after the top-K *largest* patterns.
        ranked = sorted(
            entries.values(),
            key=lambda e: (
                max(o.num_vertices for o in e.occurrences),
                len(e.occurrences),
                e.code,
            ),
            reverse=True,
        )
        return {entry.code: entry for entry in ranked[:cap]}
