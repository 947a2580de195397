"""Unit tests for Stage I: mining all frequent r-spiders."""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.catalog.formats import spiders_digest
from repro.core import SpiderMineConfig, SpiderMiner, build_spider_index, mine_spiders
from repro.core.spider_miner import _Candidate
from repro.graph import LabeledGraph, SubgraphMatcher, is_r_bounded_from
from repro.patterns import SupportMeasure, compute_support
from repro.patterns.spider import head_distinguished_canonical
from tests.conftest import build_path


def two_stars_graph() -> LabeledGraph:
    """Two copies of the star H-(A, B, C) plus one extra H-A edge elsewhere."""
    graph = LabeledGraph()
    for base in (0, 10):
        graph.add_vertex(base, "H")
        for offset, label in enumerate(("A", "B", "C"), start=1):
            graph.add_vertex(base + offset, label)
            graph.add_edge(base, base + offset)
    graph.add_vertex(20, "H")
    graph.add_vertex(21, "A")
    graph.add_edge(20, 21)
    return graph


class TestSpiderMining:
    def test_single_vertex_spiders_for_frequent_labels(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1, max_spider_size=1)
        labels = {s.head_label for s in spiders}
        assert labels == {"H", "A", "B", "C"}
        assert all(s.num_vertices == 1 for s in spiders)

    def test_full_star_found(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1, max_spider_size=4)
        full_stars = [s for s in spiders if s.num_vertices == 4 and s.head_label == "H"]
        assert full_stars, "the H-(A,B,C) star occurs twice and must be mined"
        star = full_stars[0]
        assert compute_support(star, SupportMeasure.HARMFUL_OVERLAP) >= 2

    def test_infrequent_structures_excluded(self):
        graph = two_stars_graph()
        graph.add_vertex(30, "RARE")
        graph.add_vertex(31, "A")
        graph.add_edge(30, 31)
        spiders = mine_spiders(graph, min_support=2, radius=1)
        assert all(s.head_label != "RARE" for s in spiders)
        assert all("RARE" not in s.graph.label_set() for s in spiders)

    def test_all_spiders_r_bounded_from_head(self):
        graph = two_stars_graph()
        for radius in (1, 2):
            spiders = mine_spiders(graph, min_support=2, radius=radius, max_spider_size=5)
            for spider in spiders:
                assert is_r_bounded_from(spider.graph, spider.head, radius)

    def test_all_spiders_meet_support(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1)
        for spider in spiders:
            assert compute_support(spider, SupportMeasure.HARMFUL_OVERLAP) >= 2

    def test_embeddings_valid(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1)
        for spider in spiders:
            assert spider.verify_embeddings(graph)

    def test_spider_codes_unique(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1)
        codes = [s.spider_code() for s in spiders]
        assert len(codes) == len(set(codes))

    def test_radius_two_reaches_farther(self):
        path = build_path(["A", "B", "A", "B", "A"])
        r1 = mine_spiders(path, min_support=2, radius=1, max_spider_size=5)
        r2 = mine_spiders(path, min_support=2, radius=2, max_spider_size=5)
        assert max(s.num_vertices for s in r2) >= max(s.num_vertices for s in r1)

    def test_max_spider_size_respected(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1, max_spider_size=2)
        assert all(s.num_vertices <= 2 for s in spiders)

    def test_max_spiders_cap(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1, max_spiders=3)
        assert len(spiders) <= 3

    def test_closing_edges_found_in_triangle_pair(self, two_copy_graph):
        spiders = mine_spiders(two_copy_graph, min_support=2, radius=1, max_spider_size=3)
        triangle_spiders = [s for s in spiders if s.num_edges == 3]
        assert triangle_spiders, "the two planted triangles must yield a triangle spider"

    def test_higher_support_threshold_prunes(self):
        graph = two_stars_graph()
        loose = mine_spiders(graph, min_support=2, radius=1)
        strict = mine_spiders(graph, min_support=3, radius=1)
        assert len(strict) < len(loose)

    def test_empty_graph(self):
        assert mine_spiders(LabeledGraph(), min_support=1) == []


class TestSpiderIndex:
    def test_index_by_head_image(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1)
        index = build_spider_index(spiders)
        assert 0 in index and 10 in index
        # Every indexed entry's embedding really heads at the index key.
        for head_image, entries in index.items():
            for spider, embedding in entries:
                assert dict(embedding.mapping)[spider.head] == head_image

    def test_hub_vertices_have_more_spiders(self):
        graph = two_stars_graph()
        spiders = mine_spiders(graph, min_support=2, radius=1)
        index = build_spider_index(spiders)
        hub_count = len(index.get(0, []))
        leaf_count = len(index.get(1, []))
        assert hub_count > leaf_count


class TestSpiderMinerConfigIntegration:
    def test_miner_uses_config(self):
        graph = two_stars_graph()
        config = SpiderMineConfig(min_support=2, radius=1, max_spider_size=3)
        spiders = SpiderMiner(graph, config).mine()
        assert all(s.num_vertices <= 3 for s in spiders)

    def test_edge_disjoint_measure(self):
        graph = build_path(["A", "A", "A", "A"])
        config = SpiderMineConfig(
            min_support=2, radius=1, support_measure=SupportMeasure.EDGE_DISJOINT
        )
        spiders = SpiderMiner(graph, config).mine()
        edge_spiders = [s for s in spiders if s.num_edges == 1]
        assert edge_spiders  # three A-A edges, at least two edge-disjoint


# ---------------------------------------------------------------------- #
# Stage-I alignment of candidates reached through different growth orders
# ---------------------------------------------------------------------- #
def _reference_merge(miner, target, extra):
    """The matcher-based realignment: one anchored head-preserving isomorphism."""
    if extra.graph == target.graph:
        rename = {v: v for v in extra.graph.vertices()}
    else:
        matcher = SubgraphMatcher(extra.graph, target.graph, induced=True)
        rename = matcher.find_embeddings(limit=1, anchor=(0, 0))[0]
    seen = {(m[0], frozenset(m.values())) for m in target.embeddings}
    for mapping in extra.embeddings:
        remapped = {rename[p]: g for p, g in mapping.items()}
        key = (remapped[0], frozenset(remapped.values()))
        if key not in seen and len(target.embeddings) < miner.config.max_embeddings_per_pattern:
            target.embeddings.append(remapped)
            seen.add(key)


SPIDER_SHAPES = {
    # head 0; same-label leaves make every leaf permutation an automorphism
    "star": ("HAAA", [(0, 1), (0, 2), (0, 3)]),
    "triangle": ("HAA", [(0, 1), (0, 2), (1, 2)]),
    "fan": ("HAAAA", [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]),
    "mixed": ("HABAB", [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
    "path": ("HAB", [(0, 1), (1, 2)]),
}


def _spider_graph(labels, edges, rename) -> LabeledGraph:
    graph = LabeledGraph()
    for v, label in enumerate(labels):
        graph.add_vertex(rename[v], label)
    for u, v in edges:
        graph.add_edge(rename[u], rename[v])
    return graph


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(sorted(SPIDER_SHAPES)),
    data=st.data(),
)
def test_realigned_embeddings_equal_the_matcher_reference(shape, data):
    """Two numberings of one spider merge to the matcher's (head, image) keys.

    The data graph holds five copies of the spider; each candidate embeds a
    drawn list of copies, each through a drawn head-fixing automorphism, so
    images repeat and dedup decides what is kept.
    """
    labels, edges = SPIDER_SHAPES[shape]
    n = len(labels)
    data_graph = LabeledGraph()
    for k in range(5):
        for v, label in enumerate(labels):
            data_graph.add_vertex((k, v), label)
        for u, v in edges:
            data_graph.add_edge((k, u), (k, v))
    base = _spider_graph(labels, edges, list(range(n)))
    automorphisms = SubgraphMatcher(base, base, induced=True).find_embeddings(anchor=(0, 0))

    def candidate():
        leaves = data.draw(st.permutations(list(range(1, n))))
        rename = [0] + list(leaves)          # growth order: pattern vertex of base vertex v
        embeddings = []
        for k in data.draw(st.lists(st.integers(0, 4), max_size=6)):
            auto = automorphisms[data.draw(st.integers(0, len(automorphisms) - 1))]
            embeddings.append({rename[v]: (k, auto[v]) for v in range(n)})
        return _Candidate(
            graph=_spider_graph(labels, edges, rename), depth={}, embeddings=embeddings
        )

    miner = SpiderMiner(data_graph, SpiderMineConfig(min_support=2, max_embeddings_per_pattern=4))
    target, extra = candidate(), candidate()
    target_order, target_code = head_distinguished_canonical(target.graph, 0)
    extra_order, extra_code = head_distinguished_canonical(extra.graph, 0)
    assert target_code == extra_code
    expected = copy.deepcopy(target)
    _reference_merge(miner, expected, extra)
    miner._merge_embeddings(target, target_order, extra, extra_order)

    def keys(c):
        return [(m[0], frozenset(m.values())) for m in c.embeddings]

    assert keys(target) == keys(expected)
    for mapping in target.embeddings:  # every realigned mapping is a real embedding
        assert all(data_graph.has_edge(mapping[u], mapping[v]) for u, v in target.graph.edges())


def test_spiders_digest_is_pinned_on_a_merge_heavy_graph():
    """Stage I on a small fixed graph whose candidates merge across numberings.

    The digest was computed with the matcher-based alignment.  The graph is
    checked to make non-identity merges (candidate graphs that differ), so
    the pin covers the realignment itself.
    """
    labels = "AAAAABBAABAB"
    edges = [(0, 9), (10, 2), (6, 10), (6, 8), (5, 8), (7, 8), (4, 0), (0, 5), (7, 5),
             (6, 11), (8, 2), (3, 11), (0, 2), (5, 2), (8, 10), (7, 6), (11, 8), (5, 9)]
    graph = LabeledGraph()
    for v, label in enumerate(labels):
        graph.add_vertex(v, label)
    for u, v in edges:
        graph.add_edge(u, v)
    miner = SpiderMiner(graph, SpiderMineConfig(min_support=2, radius=1, max_spider_size=4))
    realigned = []
    merge = miner._merge_embeddings

    def counting(target, target_order, extra, extra_order):
        realigned.append(target.graph != extra.graph)
        merge(target, target_order, extra, extra_order)

    miner._merge_embeddings = counting
    spiders = miner.mine()
    assert sum(realigned) >= 10
    assert spiders_digest(spiders) == (
        "462dcd7e2788aec8617d1d3e569d9e5968253c4f1dd3fb1dc15ee03c54528567"
    )
