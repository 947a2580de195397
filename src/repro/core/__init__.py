"""SpiderMine — the paper's primary contribution.

Public surface:

* :class:`SpiderMine` / :func:`mine_top_k_patterns` — the full algorithm;
* :class:`SpiderMineConfig` — every paper parameter plus engineering limits;
* :class:`MiningResult` / :class:`MiningStatistics` — uniform result objects;
* :class:`SpiderMiner` / :func:`mine_spiders` — Stage I on its own;
* :func:`compute_seed_count` / :func:`plan_seeds` — the Lemma 2 seed sizing;
* :class:`GrowthEngine` — SpiderGrow / SpiderExtend / CheckMerge.
"""

from .config import CachePolicy, SpiderMineConfig
from .probability import (
    SeedPlan,
    compute_seed_count,
    failure_probability,
    hit_probability,
    plan_seeds,
    success_probability,
)
from .results import MiningResult, MiningStatistics
from .spider_miner import SpiderMiner, build_spider_index, merge_unit_levels, mine_spiders
from .growth import (
    CandidateEntry,
    GrowthEngine,
    Occurrence,
    occurrence_code,
    occurrence_support,
    occurrences_to_pattern,
)
from .spidermine import SpiderMine, mine_top_k_patterns

__all__ = [
    "CachePolicy",
    "SpiderMineConfig",
    "SeedPlan",
    "compute_seed_count",
    "failure_probability",
    "hit_probability",
    "plan_seeds",
    "success_probability",
    "MiningResult",
    "MiningStatistics",
    "SpiderMiner",
    "build_spider_index",
    "merge_unit_levels",
    "mine_spiders",
    "CandidateEntry",
    "GrowthEngine",
    "Occurrence",
    "occurrence_code",
    "occurrence_support",
    "occurrences_to_pattern",
    "SpiderMine",
    "mine_top_k_patterns",
]
