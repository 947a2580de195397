"""Vectorized numpy kernels over the CSR int-index world.

The candidate-domain matcher (:mod:`repro.graph.isomorphism`) and the overlap
engine (:mod:`repro.patterns.overlap`) already do all of their hot-loop work
on dense integer indices — sorted CSR neighbor rows, sorted candidate
domains, integer embedding ids.  What they paid for until this module existed
was the *per-element* cost of driving those loops from Python: one
``Counter`` per scanned vertex at domain-seed time, one ``bisect`` call per
arc-consistency probe, one nested loop iteration per posting pair.  The
asymptotics were right (BENCH_matcher.json shows ~99% of candidate tests
pruned) but the constant factor lost free-search wall-clock to the
pre-domain reference engine.

This module batches exactly those loops into numpy:

* :func:`seed_domain` — label/degree/neighbor-signature filtering over a
  whole label-member row at once (instead of a per-vertex ``Counter`` scan);
* :func:`ac_filter` — one arc-consistency sweep direction as a gather +
  ``searchsorted`` membership + segmented any-reduction (instead of
  per-element bisects);
* :func:`in_sorted` / :func:`intersect_sorted` — galloping ``searchsorted``
  membership and intersection of sorted index arrays (candidate-pool
  intersections mid-search);
* :func:`filter_rows` — bulk "neighbors ∩ sorted domain" over many CSR rows
  in one pass, the precompute behind the matcher's per-pattern-edge candidate
  adjacency;
* :func:`merge_postings` — bulk conflict-pair emission from posting lists
  (replaces the nested posting loops in ``EmbeddingIndex.conflict_graph``).

Every kernel is **pure**: arrays in, arrays out, no graph objects.  numpy is
a hard dependency, and this is the one module that imports it (reprolint's
KERN001).  Each kernel is pinned against a naive pure-Python reference in
``tests/test_kernels.py`` and the perf-smoke kernels suite; the engines built
on them are pinned against the dict path and the reference matcher by the
digest machinery (``matcher_digest`` / ``conflict_digest``).

Zero-copy contract: :func:`as_index_array` wraps ``array.array``, typed
``memoryview`` (the shared-memory attach path) and ``np.ndarray`` buffers
without copying, so a worker process running these kernels over an attached
:class:`~repro.graph.frozen.FrozenGraph` still shares the creator's pages.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_index_array",
    "seed_domain",
    "ac_filter",
    "in_sorted",
    "intersect_sorted",
    "filter_rows",
    "merge_postings",
]


# --------------------------------------------------------------------------- #
# zero-copy buffer adaptation
# --------------------------------------------------------------------------- #
def as_index_array(buffer):
    """A 1-D integer ndarray view of ``buffer`` without copying.

    Accepts ``array.array``, typed ``memoryview`` (what shared-memory workers
    attach), and ``np.ndarray``.  All three expose the buffer protocol, so
    ``np.frombuffer`` maps the existing bytes; the caller must treat the
    result as read-only (the CSR payload is immutable by contract).
    """
    if isinstance(buffer, np.ndarray):
        return buffer
    typecode = getattr(buffer, "typecode", None) or buffer.format
    return np.frombuffer(buffer, dtype=np.dtype(typecode))


def _gather_rows(members, offsets, neighbors):
    """Concatenated CSR rows of ``members``: (flat values, per-member counts).

    ``flat`` holds ``neighbors[offsets[m]:offsets[m+1]]`` for each member in
    order; ``counts[i]`` is the degree of ``members[i]``.  The classic
    repeat/cumsum gather — one vectorized pass, no per-row Python loop.
    """
    starts = offsets[members]
    counts = (offsets[members + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    # Flat position k belongs to member i; its in-row offset is k minus the
    # exclusive prefix sum of counts, shifted to that member's row start.
    ends = np.cumsum(counts)
    row_origin = np.repeat(starts.astype(np.int64) - (ends - counts), counts)
    gather = row_origin + np.arange(total, dtype=np.int64)
    return np.asarray(neighbors)[gather].astype(np.int64, copy=False), counts


def _segment_counts(mask, counts):
    """Per-segment popcount of ``mask`` under segment lengths ``counts``."""
    sums = np.zeros(len(counts), dtype=np.int64)
    nonempty = counts > 0
    if mask.size:
        boundaries = np.cumsum(counts) - counts  # inclusive segment starts
        sums[nonempty] = np.add.reduceat(
            mask.astype(np.int64), boundaries[nonempty]
        )
    return sums


# --------------------------------------------------------------------------- #
# matcher kernels
# --------------------------------------------------------------------------- #
def seed_domain(members, min_degree, needed, offsets, neighbors, label_ids):
    """Domain seeding for one pattern vertex, vectorized over a label class.

    ``members`` are the (ascending) dense indices of the target vertices with
    the pattern vertex's label; survivors must have degree ≥ ``min_degree``
    and, for every ``(label_id, count)`` in ``needed`` (the pattern vertex's
    neighbor-label multiset), at least ``count`` neighbors carrying that
    label.  Returns the surviving members, still ascending — the exact set
    a per-vertex neighbor-label ``Counter`` scan keeps.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return members
    offsets = as_index_array(offsets)
    degrees = offsets[members + 1] - offsets[members]
    members = members[degrees >= min_degree]
    if not needed or members.size == 0:
        return members
    flat, counts = _gather_rows(members, offsets, as_index_array(neighbors))
    flat_labels = as_index_array(label_ids)[flat]
    keep = np.ones(members.size, dtype=bool)
    for lid, required in needed:
        keep &= _segment_counts(flat_labels == lid, counts) >= required
        if not keep.any():
            break
    return members[keep]


def ac_filter(dom_a, dom_b, offsets, neighbors):
    """One arc-consistency direction: members of ``dom_a`` with a neighbor in
    ``dom_b`` (both sorted ascending), by one gather + membership +
    segmented reduction instead of per-member bisect probes.
    """
    dom_a = np.asarray(dom_a, dtype=np.int64)
    dom_b = np.asarray(dom_b, dtype=np.int64)
    if dom_a.size == 0 or dom_b.size == 0:
        return dom_a[:0]
    flat, counts = _gather_rows(dom_a, as_index_array(offsets), as_index_array(neighbors))
    hits = _segment_counts(in_sorted(dom_b, flat), counts)
    return dom_a[hits > 0]


def in_sorted(sorted_values, queries):
    """Boolean membership of ``queries`` in the sorted array ``sorted_values``."""
    sorted_values = np.asarray(sorted_values)
    queries = np.asarray(queries)
    if sorted_values.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    positions = np.searchsorted(sorted_values, queries)
    positions[positions == sorted_values.size] = sorted_values.size - 1
    return sorted_values[positions] == queries


def intersect_sorted(base, *others):
    """Intersection of sorted index arrays, ascending (galloping membership).

    The result preserves ``base``'s order, which is ascending for CSR rows,
    so a candidate pool built with it keeps the ascending enumeration order.
    """
    result = np.asarray(base)
    for other in others:
        if result.size == 0:
            break
        result = result[in_sorted(np.asarray(other), result)]
    return result


def filter_rows(members, allowed, offsets, neighbors):
    """Bulk ``row(m) ∩ allowed`` for every ``m`` in ``members``.

    ``allowed`` must be sorted ascending.  Returns ``(flat, bounds)`` where
    the kept neighbors of ``members[i]`` are ``flat[bounds[i]:bounds[i+1]]``
    (each segment ascending), plus the number of row entries dropped.  This
    is the precompute behind the matcher's candidate adjacency: one pass over
    all rows replaces a per-visit membership probe during search.
    """
    members = np.asarray(members, dtype=np.int64)
    allowed = np.asarray(allowed, dtype=np.int64)
    flat, counts = _gather_rows(members, as_index_array(offsets), as_index_array(neighbors))
    if flat.size == 0:
        bounds = np.zeros(members.size + 1, dtype=np.int64)
        return flat, bounds, 0
    mask = in_sorted(allowed, flat)
    kept = _segment_counts(mask, counts)
    bounds = np.concatenate(([0], np.cumsum(kept)))
    return flat[mask], bounds, int(flat.size - int(kept.sum()))


# --------------------------------------------------------------------------- #
# overlap kernels
# --------------------------------------------------------------------------- #
#: Posting lists longer than this are paired via per-list ``triu_indices``
#: instead of the shift-by-delta sweep (whose pass count equals the longest
#: list); below it the sweep touches every list in O(max_len) array passes.
_SHIFT_SWEEP_MAX_LEN = 64


def merge_postings(postings, num_ids):
    """Unique conflicting id pairs from posting lists, as two int arrays.

    ``postings`` is an iterable of ascending id lists (the inverted-index
    values); two ids conflict iff they share a list.  Emission is bulk: short
    lists go through a shift-by-delta sweep over one concatenated array (pass
    ``d`` pairs every element with the element ``d`` slots later in the same
    segment), long lists through per-list ``triu_indices``; duplicates across
    lists collapse via ``np.unique`` on ``a * num_ids + b`` encoded keys.
    Each returned pair has ``a < b`` (lists ascend), matching the nested-loop
    construction's edge set exactly.
    """
    small_values = []
    small_lengths = []
    pair_chunks = []
    for ids in postings:
        t = len(ids)
        if t < 2:
            continue
        if t <= _SHIFT_SWEEP_MAX_LEN:
            small_values.extend(ids)
            small_lengths.append(t)
        else:
            arr = np.asarray(ids, dtype=np.int64)
            ia, ib = np.triu_indices(t, k=1)
            pair_chunks.append(arr[ia] * num_ids + arr[ib])
    if small_lengths:
        flat = np.asarray(small_values, dtype=np.int64)
        lengths = np.asarray(small_lengths, dtype=np.int64)
        segment = np.repeat(np.arange(lengths.size), lengths)
        for d in range(1, int(lengths.max())):
            same = segment[:-d] == segment[d:]
            if not same.any():
                break
            pair_chunks.append(flat[:-d][same] * num_ids + flat[d:][same])
    if not pair_chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    encoded = np.unique(np.concatenate(pair_chunks))
    return encoded // num_ids, encoded % num_ids
