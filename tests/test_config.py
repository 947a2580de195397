"""Unit tests for SpiderMineConfig validation and derived quantities."""

from __future__ import annotations

import pytest

from repro.core import SpiderMineConfig
from repro.patterns import SupportMeasure


class TestValidation:
    def test_defaults_valid(self):
        config = SpiderMineConfig()
        assert config.min_support == 2
        assert config.k == 10
        assert config.radius == 1
        assert config.support_measure is SupportMeasure.HARMFUL_OVERLAP

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_support": 0},
            {"k": 0},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"epsilon": -0.5},
            {"d_max": 0},
            {"radius": 0},
            {"v_min": 0},
            {"max_spider_size": 0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            SpiderMineConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "max_spiders",
            "max_embeddings_per_pattern",
            "max_patterns_per_iteration",
            "max_occurrences_grown_per_entry",
            "max_extensions_per_boundary",
        ],
    )
    def test_truncation_caps_below_one_raise(self, field):
        # A negative cap would keep all but the last |cap| items via
        # ``items[:cap]``; zero would still keep one occurrence in growth.
        for value in (0, -1):
            with pytest.raises(ValueError, match=field):
                SpiderMineConfig(**{field: value})
        assert getattr(SpiderMineConfig(**{field: 1}), field) == 1

    def test_support_measure_coerced_from_string(self):
        config = SpiderMineConfig(support_measure="edge_disjoint")
        assert config.support_measure is SupportMeasure.EDGE_DISJOINT

    def test_invalid_support_measure_string(self):
        with pytest.raises(ValueError):
            SpiderMineConfig(support_measure="nonsense")


class TestDerivedQuantities:
    @pytest.mark.parametrize(
        "d_max, radius, expected",
        [
            (4, 1, 2),    # Dmax / 2r = 2
            (10, 1, 5),
            (6, 2, 2),    # ceil(6/4) = 2
            (1, 1, 1),
            (3, 1, 2),    # ceil(3/2)
            (8, 2, 2),
        ],
    )
    def test_growth_iterations(self, d_max, radius, expected):
        config = SpiderMineConfig(d_max=d_max, radius=radius)
        assert config.growth_iterations == expected

    def test_resolved_v_min_default_is_tenth(self):
        config = SpiderMineConfig()
        assert config.resolved_v_min(1000) == 100
        assert config.resolved_v_min(5) == 1

    def test_resolved_v_min_explicit(self):
        config = SpiderMineConfig(v_min=30)
        assert config.resolved_v_min(1000) == 30
