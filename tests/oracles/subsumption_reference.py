"""Reference subsumption pruning: the nested occurrence-pair scan.

This is ``GrowthEngine._prune_subsumed`` as the growth engine shipped it
before containment tests moved to vertex bit masks, kept verbatim as a test
oracle: the engine must keep the same entries, in the same order, and leave
every ``merged`` flag exactly as this function does.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.growth import CandidateEntry
from repro.graph.labeled_graph import Vertex


def prune_subsumed_reference(
    entries: Dict[str, CandidateEntry]
) -> Dict[str, CandidateEntry]:
    """Drop candidates fully covered by a larger candidate.

    An entry A is *subsumed* by entry B when every occurrence of A is a
    vertex-subset of some occurrence of B.  A is then a sub-pattern of B
    with no additional support evidence, so — since the miner only looks
    for the top-K *largest* patterns — keeping A merely multiplies the
    next iteration's work.  The merged flag of A is propagated to B so
    Stage-II pruning never loses merge evidence.
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
    # Inverted index: data vertex -> codes of larger-or-equal entries seen so far.
    vertex_index: Dict[Vertex, Set[str]] = {}
    kept: Dict[str, CandidateEntry] = {}
    for entry in ordered:
        candidate_codes: Optional[Set[str]] = None
        smallest = min(entry.occurrences, key=lambda o: o.num_vertices)
        for v in smallest.vertices:
            codes = vertex_index.get(v)
            if not codes:
                candidate_codes = set()
                break
            if candidate_codes is None:
                candidate_codes = set(codes)
            else:
                candidate_codes &= codes
            if not candidate_codes:
                break
        subsumed_by: Optional[CandidateEntry] = None
        for code in sorted(candidate_codes or ()):
            other = kept.get(code)
            if other is None or other is entry:
                continue
            if all(
                any(occ.vertices <= big.vertices and occ.edges <= big.edges
                    for big in other.occurrences)
                for occ in entry.occurrences
            ):
                subsumed_by = other
                break
        if subsumed_by is not None:
            subsumed_by.merged = subsumed_by.merged or entry.merged
            continue
        kept[entry.code] = entry
        for occ in entry.occurrences:
            for v in occ.vertices:
                vertex_index.setdefault(v, set()).add(entry.code)
    return kept
