"""Parity and unit tests for the candidate-domain subgraph matcher.

The contract being pinned:

* the domain matcher enumerates **exactly** the embedding sets of the
  pre-refactor reference (``tests/oracles/matcher_reference.py``), across
  {dict, csr} targets × {induced, monomorphic} semantics × {anchored, free}
  queries (hypothesis, random labeled patterns and graphs);
* on the dict backend the free-search embedding *sequence* is byte-identical
  to the reference — domain filtering is pruning-only, which is what keeps
  mining result digests stable across the engine swap;
* dict-path and csr-path digests agree (:func:`repro.graph.matcher_digest`),
  and so do their candidate domains;
* ``limit`` / ``limit_per_anchor`` cap every query exactly, ``0`` included;
* domain filtering (label / degree / neighbor-signature) and the one-pass
  arc-consistency refinement prune exactly the vertices they claim to, and an
  empty domain answers the query with zero search;
* the anchored matching order is BFS-rooted at the anchor: connected patterns
  never fall back to whole-graph label-scan candidate pools mid-search
  (regression for the old anchor-in-front-of-free-order bug);
* on a dense label class, the domain matcher eliminates at least 80% of the
  reference engine's per-candidate feasibility tests, and the CSR free search
  stays within 1.5x of the reference engine's wall-clock.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import (
    LabeledGraph,
    SubgraphMatcher,
    erdos_renyi_graph,
    find_anchored_embeddings,
    freeze,
    matcher_digest,
)
from repro.patterns import Embedding, Spider
from tests.oracles.matcher_reference import ReferenceSubgraphMatcher

LABELS = ["A", "B", "C"]


def build_graph(num_vertices, edges, labels):
    graph = LabeledGraph()
    for i in range(num_vertices):
        graph.add_vertex(i, labels[i % len(labels)])
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def graph_and_pattern(draw):
    """A random labeled data graph plus a small pattern.

    Half the time the pattern is an induced subgraph of the data graph
    (embeddings guaranteed), half the time it is independent (often zero
    embeddings, exercising the domain short-circuits).
    """
    n = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    graph = LabeledGraph()
    # Scrambled ids so set layouts have nothing to do with index order.
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


PARITY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# hypothesis parity: new engine vs pre-refactor reference
# --------------------------------------------------------------------------- #
class TestHypothesisParity:
    @PARITY_SETTINGS
    @given(data=graph_and_pattern(), induced=st.booleans())
    def test_free_search_matches_reference(self, data, induced):
        graph, pattern = data
        reference = ReferenceSubgraphMatcher(pattern, graph, induced=induced)
        expected = reference.find_embeddings()

        dict_found = SubgraphMatcher(pattern, graph, induced=induced).find_embeddings()
        # Pruning-only on the dict path: the exact reference *sequence*.
        assert dict_found == expected

        csr_found = SubgraphMatcher(
            pattern, freeze(graph), induced=induced
        ).find_embeddings()
        # The csr index-space path may enumerate in another order; the
        # embedding *set* (canonical digest) must be identical.
        assert matcher_digest(csr_found) == matcher_digest(expected)
        assert len(csr_found) == len(expected)

    @PARITY_SETTINGS
    @given(data=graph_and_pattern(), induced=st.booleans())
    def test_anchored_search_matches_reference(self, data, induced):
        graph, pattern = data
        p_anchor = next(iter(pattern.vertices()))
        label = pattern.label(p_anchor)
        expected = []
        for t_anchor in sorted(graph.vertices_with_label(label), key=repr):
            expected.extend(
                ReferenceSubgraphMatcher(pattern, graph, induced=induced).find_embeddings(
                    anchor=(p_anchor, t_anchor)
                )
            )
        for target in (graph, freeze(graph)):
            batch = [
                mapping
                for _, mapping in SubgraphMatcher(
                    pattern, target, induced=induced
                ).iter_anchored(p_anchor)
            ]
            assert matcher_digest(batch) == matcher_digest(expected)
            assert len(batch) == len(expected)

    @PARITY_SETTINGS
    @given(data=graph_and_pattern(), induced=st.booleans())
    def test_single_anchor_matches_reference(self, data, induced):
        graph, pattern = data
        p_anchor = next(iter(pattern.vertices()))
        label = pattern.label(p_anchor)
        anchors = sorted(graph.vertices_with_label(label), key=repr)[:3]
        for t_anchor in anchors:
            expected = ReferenceSubgraphMatcher(
                pattern, graph, induced=induced
            ).find_embeddings(anchor=(p_anchor, t_anchor))
            for target in (graph, freeze(graph)):
                found = SubgraphMatcher(pattern, target, induced=induced).find_embeddings(
                    anchor=(p_anchor, t_anchor)
                )
                assert matcher_digest(found) == matcher_digest(expected)


# --------------------------------------------------------------------------- #
# domain filtering units
# --------------------------------------------------------------------------- #
class TestDomainFiltering:
    def target_star(self):
        # 0(A) is a hub with A/B/B leaves; 4(A) is an isolated-ish A; 5(B) leaf.
        return build_graph(
            6,
            [(0, 1), (0, 2), (0, 3), (4, 5)],
            ["A", "A", "B", "B", "A", "B"],
        )

    def test_degree_filters_domain(self):
        target = self.target_star()
        pattern = LabeledGraph()
        for i, label in enumerate(["A", "A", "B", "B"]):
            pattern.add_vertex(i, label)
        for leaf in (1, 2, 3):
            pattern.add_edge(0, leaf)
        matcher = SubgraphMatcher(pattern, target)
        sizes = matcher.domain_sizes()
        # Only vertex 0 has degree >= 3, and it is the only A with that degree.
        assert sizes[0] == 1

    def test_neighbor_signature_filters_domain(self):
        target = self.target_star()
        # An A vertex with one B neighbor: hub 0 (has B neighbors) and 4 (B
        # neighbor via the 4-5 edge) qualify; leaf 1's only neighbor is an A.
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "B")
        pattern.add_edge(0, 1)
        matcher = SubgraphMatcher(pattern, target)
        sizes = matcher.domain_sizes()
        assert sizes[0] == 2  # vertices 0 and 4, never leaf 1

    @PARITY_SETTINGS
    @given(data=graph_and_pattern())
    def test_domains_agree_across_backends(self, data):
        graph, pattern = data
        dict_matcher = SubgraphMatcher(pattern, graph)
        csr_matcher = SubgraphMatcher(pattern, freeze(graph))
        sizes = dict_matcher.domain_sizes()
        assert csr_matcher.domain_sizes() == sizes
        for p in sizes:
            assert csr_matcher._domain_ids(p) == dict_matcher._domain_ids(p)

    def test_empty_domain_short_circuits_before_search(self):
        # Pattern asks for an A with two B neighbors; no target vertex has that.
        target = build_graph(4, [(0, 1), (2, 3)], ["A", "B", "A", "B"])
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "B")
        pattern.add_vertex(2, "B")
        pattern.add_edge(0, 1)
        pattern.add_edge(0, 2)
        for graph in (target, freeze(target)):
            matcher = SubgraphMatcher(pattern, graph)
            assert matcher.find_embeddings() == []
            assert matcher.stats.empty_domain_cutoffs == 1
            assert matcher.stats.searches == 0
            assert matcher.stats.candidate_tests == 0
            # The verdict is memoised: asking again does not recount.
            assert not matcher.exists()
            assert matcher.stats.empty_domain_cutoffs == 1

    def test_arc_consistency_refines_unary_feasible_domains(self):
        # a1 passes every unary filter for pattern vertex 0 (an A with a B
        # neighbor), but its only B neighbor b1 has no C neighbor, so the AC
        # pass over the A-B pattern edge must prune a1, leaving only a2.
        target = build_graph(
            5,
            [(0, 1), (2, 3), (3, 4)],
            ["A", "B", "A", "B", "C"],
        )
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "B")
        pattern.add_vertex(2, "C")
        pattern.add_edge(0, 1)
        pattern.add_edge(1, 2)
        for graph in (target, freeze(target)):
            matcher = SubgraphMatcher(pattern, graph)
            sizes = matcher.domain_sizes()
            assert sizes == {0: 1, 1: 1, 2: 1}

    def test_arc_consistency_empties_mutually_infeasible_domains(self):
        # Unary domains are non-empty — x is an A with {A, B} neighbors,
        # y an A with {A, C} neighbors — but the two are not adjacent, so one
        # arc-consistency pass over the A-A pattern edge empties both domains
        # and the query must be answered with zero search.
        target = build_graph(
            6,
            [(0, 1), (0, 2), (3, 4), (3, 5)],
            ["A", "A", "B", "A", "A", "C"],
        )
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_vertex(2, "B")
        pattern.add_vertex(3, "C")
        pattern.add_edge(0, 1)
        pattern.add_edge(0, 2)
        pattern.add_edge(1, 3)
        for graph in (target, freeze(target)):
            matcher = SubgraphMatcher(pattern, graph)
            assert not matcher.exists()
            assert matcher.stats.empty_domain_cutoffs == 1
            assert matcher.stats.searches == 0
            assert matcher.stats.candidate_tests == 0


# --------------------------------------------------------------------------- #
# limits
# --------------------------------------------------------------------------- #
class TestLimits:
    @pytest.mark.parametrize("limit", [0, 1, 2])
    @pytest.mark.parametrize("engine", ["reference", "dict", "csr"])
    def test_limit_caps_every_query(self, engine, limit):
        # A 1-edge pattern on a 4-vertex path: 6 embeddings, and anchored at
        # the pattern's vertex 0 the end vertices host 1 each, the inner 2.
        graph = build_graph(4, [(0, 1), (1, 2), (2, 3)], ["A"])
        pattern = build_graph(2, [(0, 1)], ["A"])
        if engine == "reference":
            matcher = ReferenceSubgraphMatcher(pattern, graph)
        else:
            matcher = SubgraphMatcher(pattern, freeze(graph) if engine == "csr" else graph)
        assert len(matcher.find_embeddings(limit=limit)) == limit
        assert len(matcher.find_embeddings(limit=limit, anchor=(0, 1))) == limit
        assert matcher.count(limit=limit) == limit
        if engine != "reference":
            anchored = list(matcher.iter_anchored(0, limit_per_anchor=limit))
            assert len(anchored) == {0: 0, 1: 4, 2: 6}[limit]


# --------------------------------------------------------------------------- #
# anchored order regression
# --------------------------------------------------------------------------- #
class TestAnchoredOrder:
    def fallback_case(self):
        """A pattern/graph pair where the old anchored order strands a vertex.

        Free order starts at the rare-label end (B); anchoring at the far A
        end used to keep that tail, leaving B with no mapped neighbor and
        forcing a whole-graph label scan.
        """
        rng = random.Random(3)
        graph = LabeledGraph()
        for i in range(40):
            graph.add_vertex(i, "A" if i < 32 else "B")
        # A ring of A's with B pendants, so the pattern occurs all over.
        for i in range(32):
            graph.add_edge(i, (i + 1) % 32)
        for b in range(32, 40):
            graph.add_edge(b, rng.randrange(32))
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_vertex(2, "B")
        pattern.add_edge(0, 1)
        pattern.add_edge(1, 2)
        return graph, pattern

    def test_reference_anchored_order_falls_back(self):
        graph, pattern = self.fallback_case()
        reference = ReferenceSubgraphMatcher(pattern, graph)
        for t_anchor in sorted(graph.vertices_with_label("A"), key=repr):
            reference.find_embeddings(anchor=(0, t_anchor))
        assert reference.pool_fallbacks > 0  # the bug being fixed

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_anchored_bfs_order_never_falls_back(self, backend):
        graph, pattern = self.fallback_case()
        target = freeze(graph) if backend == "csr" else graph
        matcher = SubgraphMatcher(pattern, target)
        found = [m for _, m in matcher.iter_anchored(0)]
        assert found  # the workload is non-trivial
        assert matcher.stats.pool_fallbacks == 0

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_free_search_never_falls_back_on_connected_patterns(self, backend):
        graph, pattern = self.fallback_case()
        target = freeze(graph) if backend == "csr" else graph
        matcher = SubgraphMatcher(pattern, target)
        matcher.find_embeddings()
        assert matcher.stats.pool_fallbacks == 0

    def test_disconnected_pattern_counts_component_starts_only(self):
        graph, _ = self.fallback_case()
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "B")  # second component => one expected fallback
        matcher = SubgraphMatcher(pattern, graph)
        matcher.find_embeddings(limit=5)
        assert matcher.stats.pool_fallbacks >= 1


# --------------------------------------------------------------------------- #
# batch anchored enumeration
# --------------------------------------------------------------------------- #
class TestAnchoredBatch:
    def test_batch_groups_by_anchor(self):
        graph = build_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)], ["A"] * 6)
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_edge(0, 1)
        grouped = find_anchored_embeddings(pattern, graph, 0)
        assert set(grouped) == {0, 1, 2, 3, 4, 5}
        assert all(m[0] == anchor for anchor, ms in grouped.items() for m in ms)

    def test_explicit_anchor_list_and_limit(self):
        graph = build_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)], ["A"] * 6)
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_edge(0, 1)
        grouped = find_anchored_embeddings(
            pattern, graph, 0, t_anchors=[0, 99], limit_per_anchor=1
        )
        assert set(grouped) == {0}  # unknown anchors are skipped quietly
        assert len(grouped[0]) == 1

    def test_infeasible_anchor_outside_domain_yields_nothing(self):
        graph = build_graph(3, [(0, 1)], ["A", "A", "A"])  # vertex 2 isolated
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "A")
        pattern.add_edge(0, 1)
        grouped = find_anchored_embeddings(pattern, graph, 0, t_anchors=[2])
        assert grouped == {}

    def test_spider_recompute_embeddings_is_head_anchored(self):
        graph = build_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)], ["A"] * 6)
        spider_graph = LabeledGraph()
        spider_graph.add_vertex(0, "A")
        spider_graph.add_vertex(1, "A")
        spider_graph.add_vertex(2, "A")
        spider_graph.add_edge(0, 1)
        spider_graph.add_edge(0, 2)
        spider = Spider(
            graph=spider_graph,
            embeddings=[Embedding.from_dict({0: 0, 1: 1, 2: 2})],
            head=0,
            radius=1,
        )
        spider.recompute_embeddings(graph)
        heads = {dict(e.mapping)[0] for e in spider.embeddings}
        assert heads == {0, 3}  # only the two hubs can host the head
        # The two leaf orderings per hub cover the same vertices through the
        # same edges, so they collapse to a single witness per hub.
        assert len(spider.embeddings) == 2

    def test_spider_recompute_keeps_edge_distinct_witnesses(self):
        # Head-anchored path H-1-2 on a triangle: {H:a,1:b,2:c} covers edges
        # {ab, bc} while {H:a,1:c,2:b} covers {ac, cb} — same vertices,
        # different edges, hence two distinct edge-disjoint witnesses that a
        # vertex-image dedup would silently drop (the PR-4 undercount class).
        graph = build_graph(3, [(0, 1), (0, 2), (1, 2)], ["A", "A", "A"])
        path = LabeledGraph()
        for i in range(3):
            path.add_vertex(i, "A")
        path.add_edge(0, 1)
        path.add_edge(1, 2)
        spider = Spider(
            graph=path,
            embeddings=[Embedding.from_dict({0: 0, 1: 1, 2: 2})],
            head=0,
            radius=2,
        )
        spider.recompute_embeddings(graph)
        per_head = {}
        for e in spider.embeddings:
            per_head.setdefault(dict(e.mapping)[0], []).append(e)
        assert set(per_head) == {0, 1, 2}
        # Each head keeps both edge images of the through-path.
        assert all(len(ms) == 2 for ms in per_head.values())


# --------------------------------------------------------------------------- #
# a dense label class: work eliminated and free-search wall-clock
# --------------------------------------------------------------------------- #
#: Share of the reference engine's candidate feasibility tests (free search
#: plus the anchored batch over every A anchor) the domain matcher must avoid.
MIN_ELIMINATED = 0.80
#: The CSR free search may take at most this multiple of the reference
#: engine's best-of wall-clock: a graph this small barely amortises the
#: domain-build precompute, but a gross regression still trips it.
FREE_SEARCH_SLACK = 1.5
TIMING_REPEATS = 5
EMBEDDING_CAP = 20000


@pytest.fixture(scope="module")
def dense_class():
    """An 800-vertex ER graph (average degree 4, seed 7), one vertex in ten
    labelled B and the rest A, and the path A-A-B rooted in the dense class.

    The free matching order roots at the rare B end, so anchoring at the A
    head is the shape whose old anchored order degenerated to label scans.
    """
    base = erdos_renyi_graph(800, 4.0, 1, seed=7)
    graph = LabeledGraph()
    for i in range(800):
        graph.add_vertex(i, "B" if i % 10 == 0 else "A")
    for u, v in base.edges():
        graph.add_edge(u, v)
    pattern = build_graph(3, [(0, 1), (1, 2)], ["A", "A", "B"])
    return graph, freeze(graph), pattern


def _best_of(make_matcher):
    """Best-of-``TIMING_REPEATS`` free-search seconds, plus the last result and matcher."""
    seconds, found = [], None
    for _ in range(TIMING_REPEATS):
        matcher = make_matcher()
        start = time.perf_counter()
        found = matcher.find_embeddings(limit=EMBEDDING_CAP)
        seconds.append(time.perf_counter() - start)
    return min(seconds), found, matcher


class TestDenseClassWorkload:
    def test_domain_matcher_eliminates_candidate_tests(self, dense_class):
        graph, frozen, pattern = dense_class
        reference = ReferenceSubgraphMatcher(pattern, graph)
        ref_free = reference.find_embeddings(limit=EMBEDDING_CAP)
        ref_tests = reference.candidate_tests
        anchors = sorted(graph.vertices_with_label("A"), key=repr)
        ref_anchored = []
        for t_anchor in anchors:
            per_anchor = ReferenceSubgraphMatcher(pattern, graph)
            ref_anchored.extend(per_anchor.find_embeddings(anchor=(0, t_anchor)))
            ref_tests += per_anchor.candidate_tests
        # Anchoring at every A head finds every embedding exactly once.
        assert matcher_digest(ref_anchored) == matcher_digest(ref_free)

        for target in (graph, frozen):
            free_matcher = SubgraphMatcher(pattern, target)
            free = free_matcher.find_embeddings(limit=EMBEDDING_CAP)
            if target is graph:
                assert free == ref_free  # the dict path keeps the sequence
            assert matcher_digest(free) == matcher_digest(ref_free)
            batch_matcher = SubgraphMatcher(pattern, target)
            batch = [m for _, m in batch_matcher.iter_anchored(0, t_anchors=anchors)]
            assert matcher_digest(batch) == matcher_digest(ref_anchored)
            tests = free_matcher.stats.candidate_tests + batch_matcher.stats.candidate_tests
            assert 1.0 - tests / ref_tests >= MIN_ELIMINATED, (type(target).__name__, tests)
            assert batch_matcher.stats.pool_fallbacks == 0

    def test_csr_free_search_keeps_pace_with_the_reference(self, dense_class):
        graph, frozen, pattern = dense_class
        ref_seconds, ref_free, _ = _best_of(lambda: ReferenceSubgraphMatcher(pattern, graph))
        csr_seconds, csr_free, matcher = _best_of(lambda: SubgraphMatcher(pattern, frozen))
        assert matcher_digest(csr_free) == matcher_digest(ref_free)
        keys = [tuple(frozen.index_of(m[p]) for p in matcher._order) for m in csr_free]
        assert keys == sorted(set(keys))  # ascending index-space sequence
        assert csr_seconds <= FREE_SEARCH_SLACK * ref_seconds, (csr_seconds, ref_seconds)


# --------------------------------------------------------------------------- #
# matcher_digest
# --------------------------------------------------------------------------- #
class TestMatcherDigest:
    def test_order_insensitive(self):
        a = [{0: 1, 1: 2}, {0: 2, 1: 3}]
        assert matcher_digest(a) == matcher_digest(list(reversed(a)))

    def test_distinguishes_different_sets(self):
        assert matcher_digest([{0: 1}]) != matcher_digest([{0: 2}])
        assert matcher_digest([]) != matcher_digest([{0: 1}])

    def test_key_order_inside_mapping_is_canonicalised(self):
        forward = {0: 5, 1: 6}
        backward = {1: 6, 0: 5}
        assert matcher_digest([forward]) == matcher_digest([backward])
