"""Reference conflict-graph construction: the O(n²) all-pairs scan.

This is how ``patterns/support.py`` and ``core/growth.py`` built conflict
graphs before :class:`repro.patterns.overlap.EmbeddingIndex` replaced the
pairwise scans with inverted postings.  It is kept as a test oracle: the
index-built graph must have the same adjacency *and* the same 0..n-1 key
insertion order as this function returns.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Sequence

from repro.patterns.overlap import ConflictGraph


def conflict_graph_all_pairs(images: Sequence[FrozenSet[Hashable]]) -> ConflictGraph:
    """Ids ``i`` and ``j`` conflict iff ``images[i]`` and ``images[j]`` intersect."""
    conflict: ConflictGraph = {i: set() for i in range(len(images))}
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] & images[j]:
                conflict[i].add(j)
                conflict[j].add(i)
    return conflict
