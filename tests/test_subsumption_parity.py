"""Mask-based subsumption pruning equals the nested-scan reference exactly.

``tests/oracles/subsumption_reference.py`` keeps the scan that compared
every occurrence pair as frozensets.  ``GrowthEngine._prune_subsumed`` now
tests containment on vertex bit masks, with a union-mask prefilter; it must
keep the same codes in the same order and leave every ``merged`` flag as the
reference does.
"""

from __future__ import annotations

import copy
from itertools import combinations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SpiderMineConfig
from repro.core.growth import CandidateEntry, GrowthEngine, Occurrence
from repro.graph import LabeledGraph
from tests.oracles.subsumption_reference import prune_subsumed_reference

UNIVERSE = 9

PARITY_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _engine() -> GrowthEngine:
    graph = LabeledGraph()
    for v in range(UNIVERSE):
        graph.add_vertex(v, "A")
    return GrowthEngine(graph, {}, SpiderMineConfig())


def _occ(vertices, edges) -> Occurrence:
    return Occurrence.from_vertices_edges(vertices, edges)


@st.composite
def occurrences(draw, inside=None):
    """An occurrence; with ``inside``, one whose vertices (not always edges) lie in it."""
    pool = sorted(inside.vertices) if inside is not None else list(range(UNIVERSE))
    vertices = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    pairs = list(combinations(sorted(vertices), 2))
    if inside is not None and draw(st.booleans()):
        # Keep the edges too, so the occurrence really is contained.
        pairs = [p for p in pairs if p in inside.edges]
    edges = [p for p in pairs if draw(st.booleans())]
    return _occ(vertices, edges)


@st.composite
def entry_sets(draw):
    """Candidate entries with many near-containments between them."""
    bases = draw(st.lists(occurrences(), min_size=1, max_size=4))
    entries = {}
    for i in range(draw(st.integers(min_value=2, max_value=7))):
        occs = []
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            if draw(st.booleans()):
                occs.append(draw(occurrences(inside=draw(st.sampled_from(bases)))))
            else:
                occs.append(draw(st.sampled_from(bases)))
        code = f"c{draw(st.integers(min_value=0, max_value=99)):02d}-{i}"
        entries[code] = CandidateEntry(code=code, occurrences=occs, merged=draw(st.booleans()))
    return entries


def _assert_same_as_reference(entries):
    mine = copy.deepcopy(entries)
    theirs = copy.deepcopy(entries)
    kept = _engine()._prune_subsumed(mine)
    expected = prune_subsumed_reference(theirs)
    assert list(kept) == list(expected)
    assert [e.merged for e in mine.values()] == [e.merged for e in theirs.values()]


@PARITY_SETTINGS
@given(entries=entry_sets())
def test_kept_entries_order_and_merged_flags_equal_the_reference(entries):
    _assert_same_as_reference(entries)


def test_same_vertices_different_edges_are_not_subsumed():
    """The vertex masks agree; only the edge condition can reject."""
    path = _occ([0, 1, 2], [(0, 1), (1, 2)])
    other_path = _occ([0, 1, 2], [(0, 1), (0, 2)])
    triangle = _occ([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    entries = {
        "big": CandidateEntry(code="big", occurrences=[path], merged=False),
        "small": CandidateEntry(code="small", occurrences=[other_path], merged=True),
    }
    _assert_same_as_reference(entries)
    assert list(_engine()._prune_subsumed(copy.deepcopy(entries))) == ["big", "small"]
    entries["big"].occurrences = [triangle]
    _assert_same_as_reference(entries)
    assert list(_engine()._prune_subsumed(copy.deepcopy(entries))) == ["big"]


def test_inside_the_union_but_no_single_occurrence_is_not_subsumed():
    """The union prefilter passes; the per-occurrence test must still reject."""
    left = _occ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    right = _occ([3, 4, 5, 6], [(3, 4), (4, 5), (5, 6)])
    straddling = _occ([2, 3, 4], [(2, 3), (3, 4)])
    entries = {
        "big": CandidateEntry(code="big", occurrences=[left, right]),
        "small": CandidateEntry(code="small", occurrences=[straddling], merged=True),
    }
    _assert_same_as_reference(entries)
    kept = _engine()._prune_subsumed(copy.deepcopy(entries))
    assert list(kept) == ["big", "small"]
    assert not kept["big"].merged


def test_subsumed_entry_passes_its_merged_flag_on():
    big = _occ([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    entries = {
        "small": CandidateEntry(code="small", occurrences=[_occ([1, 2], [(1, 2)])], merged=True),
        "big": CandidateEntry(code="big", occurrences=[big]),
    }
    _assert_same_as_reference(entries)
    kept = _engine()._prune_subsumed(entries)
    assert list(kept) == ["big"] and kept["big"].merged
