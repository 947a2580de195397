"""The shared overlap engine: one conflict-graph builder for every support path.

Single-graph support is an independent-set computation over a *conflict
graph*: embeddings (or growth occurrences) are nodes, and two nodes conflict
when their images overlap — on a shared data-graph **vertex** for the
harmful-overlap measure, on a shared data-graph **edge** for the
edge-disjoint measure.  Before this module existed, ``patterns/support.py``
and ``core/growth.py`` each built that graph with independent O(n²) all-pairs
intersection tests over recomputed images; on a dense label class with
hundreds of embeddings per pattern those scans dominate the whole mine.

:class:`EmbeddingIndex` replaces the pairwise scans with inverted maps —
``vertex → [embedding ids]`` and ``edge → [embedding ids]`` — so the conflict
graph is assembled by walking the postings: two ids conflict iff they appear
in a common posting list, and ids that never co-occur are never compared at
all.  Building the postings is O(Σ image-size); emitting conflicts is
O(Σ_key t_key²) over posting sizes, i.e. proportional to the overlap actually
present instead of to n².  The construction is deterministic (ids are list
positions; postings append in id order) and produces the **same adjacency
dict, with the same key insertion order**, as the all-pairs reference —
:meth:`EmbeddingIndex.conflict_graph_all_pairs` exists precisely so tests and
the perf-smoke CI gate can assert that equivalence via
:func:`conflict_digest`.

Independent sets are solved exactly (branch and bound) up to
``DEFAULT_EXACT_LIMIT`` nodes and fall back to the degeneracy-ordered greedy
(:func:`repro.graph.algorithms.degeneracy_ordered_independent_set`) above it
— a lower bound, hence still safe for anti-monotone pruning.

Everything that reasons about embedding overlap goes through here: the three
support measures and witness selection (``patterns/support.py``), occurrence
support and the CheckMerge overlap scan (``core/growth.py``), and Stage-I
frequency checks (``core/spider_miner.py`` via ``is_frequent``).  Support
values feed canonical result digests and catalog cache keys, so everything
here is deterministic for a fixed input, and any change to this module's
*semantics* (measure definitions, dedup keys, the MIS fallback) is a
mining-output change that must ship with a package version bump — the cache
key includes the version, which fences old entries off.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set

from ..graph import kernels
from ..graph.algorithms import (
    degeneracy_ordered_independent_set,
    exact_maximum_independent_set,
)
from ..graph.labeled_graph import LabeledGraph
from ..obs import get_registry
from .embedding import Embedding

#: Largest conflict graph solved with exact branch-and-bound MIS; bigger
#: instances use the degeneracy-ordered greedy lower bound.
DEFAULT_EXACT_LIMIT = 18

#: Below this many posting pair touches the scalar nested loops win — the
#: vectorized merge pays fixed numpy call overhead that only amortises once
#: the postings actually contain bulk work.
VECTOR_MERGE_MIN_TOUCHES = 2048

#: node id -> ids it conflicts with (keys are 0..n-1 in insertion order).
ConflictGraph = Dict[int, Set[int]]


class EmbeddingIndex:
    """Inverted vertex→ids and edge→ids maps over n embedding images.

    Built either from :class:`Embedding` objects plus their pattern graph
    (:meth:`from_embeddings` — images are read from the embeddings' memoised
    caches) or from growth :class:`~repro.core.growth.Occurrence` objects
    (:meth:`from_occurrences` — images are the occurrence's own frozensets).
    Image lists and posting maps are materialised lazily, so a harmful-overlap
    query never pays for edge images and vice versa.
    """

    __slots__ = (
        "_embeddings",
        "_pattern_graph",
        "_vertex_images",
        "_edge_images",
        "_vertex_map",
        "_edge_map",
    )

    def __init__(
        self,
        *,
        embeddings: Optional[Sequence[Embedding]] = None,
        pattern_graph: Optional[LabeledGraph] = None,
        vertex_images: Optional[List[FrozenSet[Hashable]]] = None,
        edge_images: Optional[List[FrozenSet[Hashable]]] = None,
    ) -> None:
        if embeddings is None and vertex_images is None and edge_images is None:
            raise ValueError("EmbeddingIndex needs embeddings or explicit images")
        self._embeddings = list(embeddings) if embeddings is not None else None
        self._pattern_graph = pattern_graph
        self._vertex_images = vertex_images
        self._edge_images = edge_images
        self._vertex_map: Optional[Dict[Hashable, List[int]]] = None
        self._edge_map: Optional[Dict[Hashable, List[int]]] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_embeddings(
        cls, embeddings: Sequence[Embedding], pattern_graph: LabeledGraph
    ) -> "EmbeddingIndex":
        """Index over pattern embeddings; images come from their memoised caches."""
        return cls(embeddings=embeddings, pattern_graph=pattern_graph)

    @classmethod
    def from_occurrences(cls, occurrences: Iterable) -> "EmbeddingIndex":
        """Index over growth occurrences (anything with .vertices / .edges)."""
        occs = list(occurrences)
        return cls(
            vertex_images=[o.vertices for o in occs],
            edge_images=[o.edges for o in occs],
        )

    # ------------------------------------------------------------------ #
    # images and inverted maps
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._vertex_images is not None:
            return len(self._vertex_images)
        if self._edge_images is not None:
            return len(self._edge_images)
        return len(self._embeddings or ())

    @property
    def vertex_images(self) -> List[FrozenSet[Hashable]]:
        """Per-id data-vertex image sets."""
        if self._vertex_images is None:
            self._vertex_images = [e.image for e in self._embeddings]
        return self._vertex_images

    @property
    def edge_images(self) -> List[FrozenSet[Hashable]]:
        """Per-id data-edge image sets (normalised endpoint order)."""
        if self._edge_images is None:
            if self._pattern_graph is None:
                raise ValueError("edge images need the pattern graph")
            graph = self._pattern_graph
            self._edge_images = [e.edge_image(graph) for e in self._embeddings]
        return self._edge_images

    def images(self, edge_based: bool) -> List[FrozenSet[Hashable]]:
        return self.edge_images if edge_based else self.vertex_images

    @property
    def vertex_map(self) -> Dict[Hashable, List[int]]:
        """data vertex → ids covering it, each list in ascending id order."""
        if self._vertex_map is None:
            self._vertex_map = self._build_postings(self.vertex_images)
        return self._vertex_map

    @property
    def edge_map(self) -> Dict[Hashable, List[int]]:
        """data edge → ids covering it, each list in ascending id order."""
        if self._edge_map is None:
            self._edge_map = self._build_postings(self.edge_images)
        return self._edge_map

    def postings(self, edge_based: bool) -> Dict[Hashable, List[int]]:
        return self.edge_map if edge_based else self.vertex_map

    @staticmethod
    def _build_postings(images: List[FrozenSet[Hashable]]) -> Dict[Hashable, List[int]]:
        postings: Dict[Hashable, List[int]] = {}
        for i, image in enumerate(images):
            for key in image:
                postings.setdefault(key, []).append(i)
        return postings

    # ------------------------------------------------------------------ #
    # conflict graphs
    # ------------------------------------------------------------------ #
    def conflict_graph(self, edge_based: bool = False) -> ConflictGraph:
        """The overlap conflict graph, assembled from the inverted maps.

        Only ids sharing a posting list are ever paired, so disjoint
        embeddings cost nothing beyond their postings.  Equal (same adjacency,
        same 0..n-1 key order) to :meth:`conflict_graph_all_pairs`.

        When the postings carry enough pair work
        (``VECTOR_MERGE_MIN_TOUCHES``), the pairing runs through
        :func:`repro.graph.kernels.merge_postings` — bulk emission of unique
        conflicting pairs from the concatenated posting arrays — instead of
        the nested per-posting Python loops; the same id pair shared by many
        keys is then deduplicated once by ``np.unique`` rather than re-touched
        per key.  Small inputs keep the nested loops, which cost less than
        the numpy call overhead.  Both constructions fill the identical
        adjacency dict.
        """
        n = len(self)
        registry = get_registry()
        if registry.enabled:
            registry.counter("overlap.conflict_builds")
            registry.counter("overlap.embeddings", n)
        conflict: ConflictGraph = {i: set() for i in range(n)}
        postings = self.postings(edge_based).values()
        if n >= 2:
            touches = sum(
                len(ids) * (len(ids) - 1) // 2 for ids in postings if len(ids) > 1
            )
            if touches >= VECTOR_MERGE_MIN_TOUCHES:
                left, right = kernels.merge_postings(postings, n)
                for i, j in zip(left.tolist(), right.tolist()):
                    conflict[i].add(j)
                    conflict[j].add(i)
                return conflict
        for ids in postings:
            if len(ids) < 2:
                continue
            for a in range(1, len(ids)):
                i = ids[a]
                row = conflict[i]
                for b in range(a):
                    j = ids[b]
                    row.add(j)
                    conflict[j].add(i)
        return conflict

    def conflict_graph_all_pairs(self, edge_based: bool = False) -> ConflictGraph:
        """Reference O(n²) all-pairs construction (parity checks only)."""
        images = self.images(edge_based)
        conflict: ConflictGraph = {i: set() for i in range(len(images))}
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if images[i] & images[j]:
                    conflict[i].add(j)
                    conflict[j].add(i)
        return conflict

    def pair_stats(
        self, edge_based: bool = False, conflict: Optional[ConflictGraph] = None
    ) -> Dict[str, int]:
        """Work accounting for the benchmark: pair tests done vs avoided.

        ``all_pairs_tests`` is what the old construction always paid;
        ``posting_pair_touches`` is the index's actual pairing work
        (Σ over postings of C(t, 2) — the same id pair is re-touched once per
        shared key, so on pathologically overlapping collections this can
        exceed ``all_pairs_tests``); ``pair_tests_avoided`` is their
        difference clamped at zero, and ``conflict_edges`` the resulting
        graph size.  Pass a prebuilt ``conflict`` graph to avoid rebuilding
        it just for the edge count.
        """
        n = len(self)
        touches = sum(
            len(ids) * (len(ids) - 1) // 2
            for ids in self.postings(edge_based).values()
        )
        if conflict is None:
            conflict = self.conflict_graph(edge_based)
        edges = sum(len(row) for row in conflict.values()) // 2
        return {
            "n": n,
            "all_pairs_tests": n * (n - 1) // 2,
            "posting_pair_touches": touches,
            "pair_tests_avoided": max(0, n * (n - 1) // 2 - touches),
            "conflict_edges": edges,
        }


# ---------------------------------------------------------------------- #
# independent sets over conflict graphs
# ---------------------------------------------------------------------- #
def max_independent_set(
    conflict: ConflictGraph, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> Set[int]:
    """Exact MIS up to ``exact_limit`` nodes, degeneracy-ordered greedy above."""
    if len(conflict) <= exact_limit:
        return exact_maximum_independent_set(conflict, limit=exact_limit)
    return degeneracy_ordered_independent_set(conflict)


def independent_set_size(
    conflict: ConflictGraph, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> int:
    """Size of :func:`max_independent_set` — the MIS-based support value."""
    return len(max_independent_set(conflict, exact_limit))


# ---------------------------------------------------------------------- #
# shared small helpers
# ---------------------------------------------------------------------- #
def distinct_indices(images: Sequence[Hashable]) -> List[int]:
    """Indices of the first occurrence of each distinct image, in order."""
    seen: Set[Hashable] = set()
    keep: List[int] = []
    for i, image in enumerate(images):
        if image not in seen:
            seen.add(image)
            keep.append(i)
    return keep


def conflict_digest(conflict: ConflictGraph) -> str:
    """Stable fingerprint of a conflict graph (id-keyed adjacency).

    Used by the perf-smoke parity gate: the digest of the index-built graph
    must equal the digest of the all-pairs reference.
    """
    blob = ";".join(
        f"{i}:{','.join(map(str, sorted(conflict[i])))}" for i in sorted(conflict)
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
