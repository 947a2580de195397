"""Integration-level tests for the full SpiderMine algorithm."""

from __future__ import annotations

import dataclasses

import pytest

from repro import SpiderMine, SpiderMineConfig, mine_top_k_patterns
from repro.core.growth import occurrence_support, occurrences_to_pattern
from repro.analysis import recovery_rate
from repro.graph import LabeledGraph, diameter, synthetic_single_graph
from repro.patterns import SupportMeasure, compute_support


class TestResultContract:
    def test_returns_at_most_k(self, spidermine_result):
        assert len(spidermine_result.patterns) <= 5

    def test_patterns_sorted_largest_first(self, spidermine_result):
        sizes = [p.num_vertices for p in spidermine_result.patterns]
        assert sizes == sorted(sizes, reverse=True)

    def test_patterns_meet_support(self, spidermine_result):
        for pattern in spidermine_result.patterns:
            assert compute_support(pattern, SupportMeasure.HARMFUL_OVERLAP) >= 2

    def test_patterns_respect_diameter_bound(self, spidermine_result):
        for pattern in spidermine_result.patterns:
            assert diameter(pattern.graph) <= 6

    def test_embeddings_are_valid(self, spidermine_result, planted_dataset):
        for pattern in spidermine_result.patterns:
            assert pattern.verify_embeddings(planted_dataset.graph)

    def test_planted_patterns_recovered(self, spidermine_result, planted_dataset):
        rate = recovery_rate(spidermine_result, planted_dataset.planted_large_sizes, tolerance=2)
        assert rate >= 0.5

    def test_statistics_populated(self, spidermine_result):
        stats = spidermine_result.statistics
        assert stats.num_spiders > 0
        assert stats.num_seeds > 0
        assert "stage1_spiders" in stats.stage_durations
        assert "stage2_identification" in stats.stage_durations
        assert "stage3_recovery" in stats.stage_durations

    def test_parameters_recorded(self, spidermine_result):
        params = spidermine_result.parameters
        assert params["min_support"] == 2
        assert params["k"] == 5
        assert params["support_measure"] == "harmful_overlap"

    def test_runtime_positive(self, spidermine_result):
        assert spidermine_result.runtime_seconds > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        data = synthetic_single_graph(
            num_vertices=80, num_labels=20, average_degree=2.0,
            num_large_patterns=1, large_pattern_vertices=8, large_pattern_support=2,
            num_small_patterns=1, small_pattern_vertices=3, small_pattern_support=2,
            seed=9, max_pattern_diameter=6,
        )
        first = mine_top_k_patterns(data.graph, min_support=2, k=3, d_max=6, seed=4)
        second = mine_top_k_patterns(data.graph, min_support=2, k=3, d_max=6, seed=4)
        assert [p.code for p in first.patterns] == [p.code for p in second.patterns]


class TestSmallInputs:
    def test_empty_graph(self):
        result = mine_top_k_patterns(LabeledGraph(), min_support=1, k=3)
        assert result.patterns == []

    def test_single_edge_graph(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        graph.add_vertex(1, "B")
        graph.add_edge(0, 1)
        result = mine_top_k_patterns(graph, min_support=1, k=3, d_max=2)
        assert len(result.patterns) >= 1

    def test_infrequent_everything(self):
        graph = LabeledGraph()
        for i, label in enumerate("ABCDEF"):
            graph.add_vertex(i, label)
        for i in range(5):
            graph.add_edge(i, i + 1)
        result = mine_top_k_patterns(graph, min_support=3, k=3)
        # No label repeats three times, so nothing can be frequent.
        assert result.patterns == []

    def test_two_disjoint_triangles(self, two_copy_graph):
        result = mine_top_k_patterns(two_copy_graph, min_support=2, k=2, d_max=2)
        assert result.largest_size_vertices == 3
        assert result.patterns[0].num_edges == 3


class TestConfigurationEffects:
    def test_k_limits_output(self, planted_dataset):
        config = SpiderMineConfig(min_support=2, k=1, d_max=6, seed=0)
        result = SpiderMine(planted_dataset.graph, config).mine()
        assert len(result.patterns) <= 1

    def test_dmax_filters_large_diameter(self, two_copy_graph):
        result = mine_top_k_patterns(two_copy_graph, min_support=2, k=3, d_max=1)
        for pattern in result.patterns:
            assert diameter(pattern.graph) <= 1

    def test_min_vertices_reported(self, two_copy_graph):
        result = mine_top_k_patterns(
            two_copy_graph, min_support=2, k=5, d_max=2, min_vertices_reported=3
        )
        for pattern in result.patterns:
            assert pattern.num_vertices >= 3

    def test_edge_disjoint_measure_runs(self, two_copy_graph):
        result = mine_top_k_patterns(
            two_copy_graph, min_support=2, k=2, d_max=2,
            support_measure=SupportMeasure.EDGE_DISJOINT,
        )
        assert result.parameters["support_measure"] == "edge_disjoint"

    def test_seed_plan_recorded(self, planted_dataset):
        config = SpiderMineConfig(min_support=2, k=3, d_max=6, seed=1, v_min=10)
        miner = SpiderMine(planted_dataset.graph, config)
        miner.mine()
        assert miner.seed_plan is not None
        assert miner.seed_plan.v_min == 10
        assert miner.seed_plan.num_draws >= 2

    def test_max_seed_count_override(self, two_copy_graph):
        result = mine_top_k_patterns(
            two_copy_graph, min_support=2, k=2, d_max=2, max_seed_count=2
        )
        assert result.statistics.num_seeds <= 2


class TestEdgeDisjointWitnesses:
    @pytest.mark.parametrize("n", [4, 5])
    def test_reported_patterns_carry_edge_disjoint_witnesses(self, n):
        """A same-label clique: occurrences share vertex sets but not edge sets."""
        graph = LabeledGraph()
        for v in range(n):
            graph.add_vertex(v, "A")
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        config = SpiderMineConfig(
            min_support=2, k=5, d_max=4, seed=0,
            support_measure=SupportMeasure.EDGE_DISJOINT,
        )
        result = SpiderMine(graph, config).mine()
        assert result.patterns
        for pattern in result.patterns:
            images = {e.edge_image(pattern.graph) for e in pattern.embeddings}
            assert len(images) == len(pattern.embeddings)
            assert len(images) >= config.min_support, pattern
            assert pattern.verify_embeddings(graph)


def _eager_report(graph, config, archive):
    """Materialise every archive entry, filter, sort and slice."""
    candidates = []
    for entry in archive.values():
        if occurrence_support(entry.occurrences, config.support_measure) < config.min_support:
            continue
        pattern = occurrences_to_pattern(graph, entry.occurrences, config.support_measure)
        if pattern.num_vertices < config.min_vertices_reported:
            continue
        if diameter(pattern.graph) > config.d_max:
            continue
        candidates.append(pattern)
    candidates.sort(key=lambda p: (p.num_vertices, p.num_edges, p.code), reverse=True)
    return candidates[: config.k]


@pytest.fixture(scope="module")
def report_archive(planted_dataset):
    """The Stage-III archive of a planted-dataset mine, captured at ``_report``."""
    captured = {}
    original = SpiderMine._report

    def spy(self, archive):
        captured["archive"] = archive
        return original(self, archive)

    SpiderMine._report = spy
    try:
        config = SpiderMineConfig(min_support=2, k=5, d_max=6, seed=0)
        SpiderMine(planted_dataset.graph, config).mine()
    finally:
        SpiderMine._report = original
    return captured["archive"]


class TestLazyReport:
    BASE = SpiderMineConfig(min_support=2, k=5, d_max=6, seed=0)

    @pytest.mark.parametrize("changes", [
        {"k": 3},
        {"k": 1000},
        {"k": 1000, "min_vertices_reported": 9},
        {"k": 5, "d_max": 3},
        {"k": 4, "min_support": 3},
    ], ids=["small-k", "k-beyond-archive", "min-vertices-cuts", "small-dmax", "support-cuts"])
    def test_matches_the_eager_report(self, planted_dataset, report_archive, changes):
        graph = planted_dataset.graph
        config = dataclasses.replace(self.BASE, **changes)
        lazy = SpiderMine(graph, config)._report(report_archive)
        eager = _eager_report(graph, config, report_archive)
        assert [p.code for p in lazy] == [p.code for p in eager]
        assert [p.embeddings for p in lazy] == [p.embeddings for p in eager]
        assert [sorted(p.graph.edges()) for p in lazy] == [sorted(p.graph.edges()) for p in eager]

    def test_the_cases_cut(self, planted_dataset, report_archive):
        """Guard against vacuous parity: the filters above really reject entries."""
        graph = planted_dataset.graph
        sizes = [e.occurrences[0].num_vertices for e in report_archive.values()]
        assert len(report_archive) > 5 and min(sizes) < 9 <= max(sizes)
        diameters = [diameter(occurrences_to_pattern(graph, e.occurrences).graph)
                     for e in report_archive.values()]
        assert min(diameters) <= 3 < max(diameters)

    def test_a_key_that_is_not_its_pattern_code_is_refused(
        self, planted_dataset, report_archive
    ):
        tampered = {f"{code}~": entry for code, entry in report_archive.items()}
        with pytest.raises(RuntimeError, match="is not its pattern's code"):
            SpiderMine(planted_dataset.graph, self.BASE)._report(tampered)

    def test_every_archive_key_is_its_pattern_code(self, planted_dataset, report_archive):
        graph = planted_dataset.graph
        for code, entry in report_archive.items():
            assert occurrences_to_pattern(graph, entry.occurrences).code == code
        config = dataclasses.replace(self.BASE, k=1000)
        for pattern in SpiderMine(graph, config)._report(report_archive):
            assert pattern.code in report_archive
