"""Parity and unit tests for the vectorized numpy kernel layer.

The contract being pinned:

* every kernel in :mod:`repro.graph.kernels` computes exactly what a naive
  pure-Python reference computes over randomized inputs (seed filter, arc
  consistency, sorted membership / intersection, bulk row filtering,
  posting-pair merge);
* the CSR matcher, which runs on those kernels, produces
  **digest-identical** anchored batches to the dict path, across
  {induced, monomorphic} on random graphs (hypothesis) — the reference axis
  is pinned by ``test_matcher_parity``;
* the CSR free search yields its embeddings in strictly ascending
  index-space order (each embedding read as the tuple of its target indices
  in the matcher's matching order), which is what keeps mining digests
  stable;
* ``EmbeddingIndex.conflict_graph`` builds the same adjacency as the
  all-pairs reference, above and below the ``VECTOR_MERGE_MIN_TOUCHES``
  dispatch threshold;
* :func:`repro.graph.kernels.as_index_array` is zero-copy over
  ``array.array``, typed ``memoryview`` and ``np.ndarray`` buffers.
"""

from __future__ import annotations

import random
from array import array

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import LabeledGraph, SubgraphMatcher, freeze, kernels, matcher_digest
from repro.patterns.overlap import (
    VECTOR_MERGE_MIN_TOUCHES,
    EmbeddingIndex,
    conflict_digest,
)

LABELS = ["A", "B", "C"]

PARITY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_csr(rng, n, avg_degree=3.0):
    """A random CSR triple (offsets, neighbors, label_ids) with sorted rows."""
    adjacency = [set() for _ in range(n)]
    for _ in range(int(n * avg_degree / 2)):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        adjacency[u].add(v)
        adjacency[v].add(u)
    offsets = array("q", [0])
    neighbors = array("i")
    for u in range(n):
        row = sorted(adjacency[u])
        neighbors.extend(row)
        offsets.append(len(neighbors))
    label_ids = array("i", [rng.randrange(3) for _ in range(n)])
    return offsets, neighbors, label_ids


def row(offsets, neighbors, u):
    return list(neighbors[offsets[u]:offsets[u + 1]])


# --------------------------------------------------------------------------- #
# zero-copy buffer adaptation
# --------------------------------------------------------------------------- #
class TestAsIndexArray:
    def test_array_array_is_zero_copy(self):
        buf = array("i", [3, 1, 4, 1, 5])
        view = kernels.as_index_array(buf)
        assert view.tolist() == [3, 1, 4, 1, 5]
        buf[0] = 9  # shared memory: the view sees the write
        assert view[0] == 9

    def test_memoryview_cast_is_zero_copy(self):
        backing = array("q", [10, 20, 30])
        view = kernels.as_index_array(memoryview(backing).cast("B").cast("q"))
        assert view.dtype == np.dtype("q")
        assert view.tolist() == [10, 20, 30]
        backing[1] = 99
        assert view[1] == 99

    def test_ndarray_passthrough_is_identity(self):
        arr = np.arange(4, dtype=np.int64)
        assert kernels.as_index_array(arr) is arr


# --------------------------------------------------------------------------- #
# kernel units vs naive references
# --------------------------------------------------------------------------- #
class TestKernelUnits:
    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_in_sorted_matches_set_membership(self, seed):
        rng = random.Random(seed)
        values = sorted(rng.sample(range(100), rng.randint(0, 20)))
        queries = [rng.randrange(100) for _ in range(rng.randint(0, 30))]
        got = kernels.in_sorted(np.asarray(values), np.asarray(queries, dtype=np.int64))
        assert got.tolist() == [q in set(values) for q in queries]

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_intersect_sorted_matches_set_intersection(self, seed):
        rng = random.Random(seed)
        lists = [
            sorted(rng.sample(range(60), rng.randint(0, 25)))
            for _ in range(rng.randint(1, 4))
        ]
        arrays = [np.asarray(xs, dtype=np.int64) for xs in lists]
        got = kernels.intersect_sorted(arrays[0], *arrays[1:])
        expected = set(lists[0]).intersection(*map(set, lists[1:]))
        assert got.tolist() == sorted(expected)

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_seed_domain_matches_counter_scan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        offsets, neighbors, label_ids = random_csr(rng, n)
        members = sorted(rng.sample(range(n), rng.randint(1, n)))
        min_degree = rng.randint(0, 3)
        needed = [(lid, rng.randint(1, 2)) for lid in rng.sample(range(3), rng.randint(0, 2))]
        got = kernels.seed_domain(
            np.asarray(members, dtype=np.int64),
            min_degree, needed, offsets, neighbors, label_ids,
        )
        expected = []
        for m in members:
            nbrs = row(offsets, neighbors, m)
            if len(nbrs) < min_degree:
                continue
            if all(sum(label_ids[x] == lid for x in nbrs) >= c for lid, c in needed):
                expected.append(m)
        assert got.tolist() == expected

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_ac_filter_matches_bisect_probes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        offsets, neighbors, _ = random_csr(rng, n)
        dom_a = sorted(rng.sample(range(n), rng.randint(1, n)))
        dom_b = sorted(rng.sample(range(n), rng.randint(1, n)))
        got = kernels.ac_filter(
            np.asarray(dom_a, dtype=np.int64),
            np.asarray(dom_b, dtype=np.int64),
            offsets, neighbors,
        )
        b_set = set(dom_b)
        expected = [m for m in dom_a if any(x in b_set for x in row(offsets, neighbors, m))]
        assert got.tolist() == expected

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_filter_rows_matches_per_row_intersection(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        offsets, neighbors, _ = random_csr(rng, n)
        members = sorted(rng.sample(range(n), rng.randint(1, n)))
        allowed = sorted(rng.sample(range(n), rng.randint(0, n)))
        flat, bounds, dropped = kernels.filter_rows(
            np.asarray(members, dtype=np.int64),
            np.asarray(allowed, dtype=np.int64),
            offsets, neighbors,
        )
        allowed_set = set(allowed)
        total_dropped = 0
        for i, m in enumerate(members):
            nbrs = row(offsets, neighbors, m)
            kept = [x for x in nbrs if x in allowed_set]
            total_dropped += len(nbrs) - len(kept)
            assert flat[bounds[i]:bounds[i + 1]].tolist() == kept
        assert int(bounds[-1]) == len(flat)
        assert dropped == total_dropped

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_merge_postings_matches_nested_loops(self, seed):
        rng = random.Random(seed)
        num_ids = rng.randint(2, 30)
        postings = []
        for _ in range(rng.randint(0, 12)):
            t = rng.randint(0, min(num_ids, 8))
            # Occasionally exceed the shift-sweep length cutoff to hit the
            # triu_indices branch too.
            if rng.random() < 0.15:
                t = num_ids
            postings.append(sorted(rng.sample(range(num_ids), t)))
        left, right = kernels.merge_postings(postings, num_ids)
        expected = set()
        for ids in postings:
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    expected.add((ids[a], ids[b]))
        got = set(zip(left.tolist(), right.tolist()))
        assert got == expected
        assert all(a < b for a, b in got)

    def test_merge_postings_long_list_uses_triu_branch(self):
        ids = list(range(kernels._SHIFT_SWEEP_MAX_LEN + 10))
        left, right = kernels.merge_postings([ids], len(ids))
        assert len(left) == len(ids) * (len(ids) - 1) // 2


# --------------------------------------------------------------------------- #
# hypothesis parity: the kernel-backed CSR matcher
# --------------------------------------------------------------------------- #
@st.composite
def graph_and_pattern(draw):
    """Random labeled data graph plus small pattern (see test_matcher_parity)."""
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    graph = LabeledGraph()
    ids = rng.sample(range(10**6), n)
    for v in ids:
        graph.add_vertex(v, rng.choice(LABELS))
    for _ in range(rng.randint(0, 2 * n)):
        if n < 2:
            break
        u, v = rng.sample(ids, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    if draw(st.booleans()):
        k = rng.randint(1, min(4, n))
        pattern = graph.subgraph(rng.sample(ids, k)).relabeled()
    else:
        k = draw(st.integers(min_value=1, max_value=4))
        pattern = LabeledGraph()
        for i in range(k):
            pattern.add_vertex(i, rng.choice(LABELS))
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.5:
                    pattern.add_edge(i, j)
    return graph, pattern


class TestMatcherParityAcrossDispatch:
    @PARITY_SETTINGS
    @given(data=graph_and_pattern(), induced=st.booleans())
    def test_free_search_sequence_ascends(self, data, induced):
        graph, pattern = data
        frozen = freeze(graph)
        matcher = SubgraphMatcher(pattern, frozen, induced=induced)
        found = matcher.find_embeddings()
        # Candidate pools ascend, so the embeddings' target-index tuples,
        # taken in matching order, strictly increase — the mining-digest
        # invariant.
        keys = [
            tuple(frozen.index_of(mapping[p]) for p in matcher._order)
            for mapping in found
        ]
        assert keys == sorted(set(keys))

    @PARITY_SETTINGS
    @given(data=graph_and_pattern(), induced=st.booleans())
    def test_anchored_batch_digest_identical(self, data, induced):
        graph, pattern = data
        p_anchor = next(iter(pattern.vertices()))
        dict_batch, csr_batch = (
            [
                m
                for _, m in SubgraphMatcher(
                    pattern, target, induced=induced
                ).iter_anchored(p_anchor)
            ]
            for target in (graph, freeze(graph))
        )
        assert matcher_digest(csr_batch) == matcher_digest(dict_batch)
        assert len(csr_batch) == len(dict_batch)


# --------------------------------------------------------------------------- #
# overlap: vectorized posting merge parity
# --------------------------------------------------------------------------- #
class TestConflictGraphParity:
    def overlapping_images(self, rng, n, universe):
        return [
            frozenset(rng.sample(range(universe), rng.randint(1, 6))) for _ in range(n)
        ]

    @PARITY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_small_collections_match_all_pairs(self, seed):
        rng = random.Random(seed)
        images = self.overlapping_images(rng, rng.randint(1, 20), 30)
        index = EmbeddingIndex(vertex_images=images)
        got = index.conflict_graph()
        assert conflict_digest(got) == conflict_digest(index.conflict_graph_all_pairs())

    def test_large_collection_takes_vectorized_branch_and_matches(self):
        # Enough co-occurrence that posting pair touches exceed the dispatch
        # threshold, so this construction runs through merge_postings.
        rng = random.Random(11)
        images = [
            frozenset(rng.sample(range(40), rng.randint(2, 5))) for _ in range(160)
        ]
        index = EmbeddingIndex(vertex_images=images)
        touches = index.pair_stats()["posting_pair_touches"]
        assert touches >= VECTOR_MERGE_MIN_TOUCHES  # vectorized branch active
        vectorized = index.conflict_graph()
        assert conflict_digest(vectorized) == conflict_digest(
            index.conflict_graph_all_pairs()
        )
