"""The SpiderMine algorithm (Algorithm 1 of the paper).

Three stages:

* **Stage I — Mining Spiders.**  Mine every frequent r-spider of the input
  graph (``repro.core.spider_miner``).  After this stage all frequent
  patterns of diameter ≤ 2r and all their embeddings are known.
* **Stage II — Large Pattern Identification.**  Draw ``M`` seed spiders
  uniformly at random, where ``M`` is computed from ``K``, ``ε`` and ``Vmin``
  by Lemma 2 (``repro.core.probability``).  Grow each seed for
  ``Dmax / 2r`` iterations with ``SpiderGrow``; merge patterns whose
  embeddings start to overlap (``CheckMerge``).  Keep only patterns that
  participated in a merge — with probability ≥ 1 − ε these contain a portion
  of every top-K large pattern.
* **Stage III — Large Pattern Recovery.**  Keep growing the retained patterns
  until no new frequent pattern appears, then report the top-K largest
  patterns whose diameter is within ``Dmax``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..graph.algorithms import diameter as graph_diameter
from ..graph.view import GraphView
from ..obs import get_registry, get_tracer
from ..patterns.pattern import Pattern
from ..patterns.spider import Spider
from .config import SpiderMineConfig
from .growth import CandidateEntry, GrowthEngine, occurrence_support, occurrences_to_pattern
from .probability import SeedPlan, plan_seeds
from .results import MiningResult, MiningStatistics, stage_timer
from .spider_miner import SpiderMiner, build_spider_index


class SpiderMine:
    """Top-K largest frequent pattern miner for a single labeled graph.

    ``graph`` is any :class:`GraphView`; all three stages only read it.  For
    large inputs freeze the graph once (``graph.freeze()`` or
    ``repro.graph.freeze``) and mine the snapshot — the result is identical
    on either backend for a fixed seed, the frozen run is just faster.
    """

    def __init__(self, graph: GraphView, config: Optional[SpiderMineConfig] = None) -> None:
        self.graph = graph
        self.config = config or SpiderMineConfig()
        self._rng = random.Random(self.config.seed)
        self.spiders: List[Spider] = []
        self.seed_plan: Optional[SeedPlan] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def mine(self) -> MiningResult:
        """Run all three stages and return the top-K largest patterns.

        When ``config.cache`` points at a catalog directory, the run cache is
        consulted first: a hit re-serves the stored result — bit-identical to
        mining afresh, because the cache key covers everything that affects
        output (graph structure, result-affecting config, package version)
        and nothing that does not (backend, worker count).  Fresh results are
        stored back according to the policy's mode.

        Contract on a cache hit: the *returned result* is complete, but the
        run-internals attributes a fresh mine populates as byproducts
        (``self.spiders``, ``self.seed_plan``) stay at their initial empty
        values — Stage I never executes.  Code that inspects those must mine
        without a cache (or with ``mode="refresh"``).
        """
        policy = self.config.cache
        if not policy.enabled:
            return self._mine_fresh()

        from ..catalog.cache import RunCache

        cache = RunCache(policy.directory)
        if policy.reads:
            cached = cache.load_result(self.graph, self.config)
            if cached is not None:
                return cached
        # The same RunCache flows down to Stage I, so the (expensive) graph
        # digest is computed once per mine, not once per layer.
        result = self._mine_fresh(run_cache=cache)
        if policy.writes:
            run_id = cache.store_result(self.graph, self.config, result)
            result.cache_info = {
                "status": "stored",
                "run_id": run_id,
                "store": str(policy.directory),
            }
            # Telemetry rides as a sidecar of the stored run: written only
            # when a live registry/tracer is installed, never part of the
            # cache key, gc-collected with its run.
            cache.store_telemetry(run_id, result)
        else:
            result.cache_info = {"status": "miss", "store": str(policy.directory)}
        return result

    def _mine_fresh(self, run_cache=None) -> MiningResult:
        """The three mining stages (full-result cache not consulted).

        ``run_cache`` is the caller's already-open
        :class:`~repro.catalog.cache.RunCache`, shared with Stage I so the
        graph digest is computed once; Stage I still applies the cache
        *policy* itself (its ``spiders`` runs remain independently cached).
        """
        config = self.config
        statistics = MiningStatistics()
        tracer = get_tracer()
        # Re-arm the seed RNG so repeated mine() calls on one instance are
        # deterministic — required for the cached == fresh parity guarantee.
        self._rng = random.Random(config.seed)
        start = time.perf_counter()

        # Stage I ---------------------------------------------------------
        with stage_timer(statistics, "stage1_spiders"), tracer.span(
            "mine.stage1", radius=config.radius
        ):
            self.spiders = SpiderMiner(self.graph, config, run_cache=run_cache).mine()
        statistics.num_spiders = len(self.spiders)
        # Its own root span, not a stage: stage_durations keeps the three
        # stage names that benchmark stage mixes read.
        with tracer.span("mine.setup"):
            spider_index = build_spider_index(self.spiders)
            engine = GrowthEngine(self.graph, spider_index, config)

        # Stage II --------------------------------------------------------
        with stage_timer(statistics, "stage2_identification"), tracer.span(
            "mine.stage2"
        ) as stage2_span:
            seeds = self._draw_seeds()
            statistics.num_seeds = len(seeds)
            entries = engine.seed_entries(seeds)
            for _ in range(config.growth_iterations):
                if not entries:
                    break
                entries = engine.grow(entries, merge_enabled=True)
                statistics.num_growth_iterations += 1
            merged_entries = {code: e for code, e in entries.items() if e.merged}
            if not merged_entries and config.keep_unmerged_if_empty:
                merged_entries = entries
            stage2_span.annotate(seeds=statistics.num_seeds, merges=engine.merge_events)
        statistics.num_merges = engine.merge_events

        # Stage III -------------------------------------------------------
        archive: Dict[str, CandidateEntry] = dict(merged_entries)
        with stage_timer(statistics, "stage3_recovery"), tracer.span("mine.stage3"):
            entries = merged_entries
            for _ in range(config.max_growth_iterations):
                if not entries:
                    break
                next_entries = engine.grow(entries, merge_enabled=True)
                statistics.num_growth_iterations += 1
                new_codes = set(next_entries) - set(archive)
                for code in set(next_entries):
                    existing = archive.get(code)
                    if existing is None:
                        archive[code] = next_entries[code]
                    else:
                        existing.occurrences = engine._dedupe(
                            existing.occurrences + next_entries[code].occurrences
                        )
                if not new_codes:
                    break
                entries = next_entries
        statistics.num_candidates_generated = engine.candidates_generated

        with tracer.span("mine.report"):
            patterns = self._report(archive)
        runtime = time.perf_counter() - start
        registry = get_registry()
        if registry.enabled:
            registry.publish("mine.statistics", statistics)
            registry.counter("mine.runs")
        return MiningResult(
            algorithm="SpiderMine",
            patterns=patterns,
            runtime_seconds=runtime,
            statistics=statistics,
            parameters={
                "min_support": config.min_support,
                "k": config.k,
                "epsilon": config.epsilon,
                "d_max": config.d_max,
                "radius": config.radius,
                "support_measure": config.support_measure.value,
                "num_seeds": statistics.num_seeds,
                "execution_mode": config.execution.mode,
                "workers": config.execution.n_workers,
            },
        )

    # ------------------------------------------------------------------ #
    # stage II helpers
    # ------------------------------------------------------------------ #
    def _draw_seeds(self) -> List[Spider]:
        """RandomSeed: draw M spiders uniformly at random from the Stage-I set."""
        config = self.config
        if not self.spiders:
            return []
        v_min = config.resolved_v_min(self.graph.num_vertices)
        self.seed_plan = plan_seeds(
            k=config.k,
            epsilon=config.epsilon,
            v_min=v_min,
            graph_vertices=max(1, self.graph.num_vertices),
            max_seed_count=config.max_seed_count,
        )
        m = self.seed_plan.num_draws
        if m >= len(self.spiders):
            return list(self.spiders)
        return self._rng.sample(self.spiders, m)

    # ------------------------------------------------------------------ #
    # stage III reporting
    # ------------------------------------------------------------------ #
    def _report(self, archive: Dict[str, CandidateEntry]) -> List[Pattern]:
        """The top-K largest surviving candidates, building only those visited.

        Entries are ranked by ``(|V|, |E|, code)``, descending, before any
        :class:`Pattern` exists: every occurrence of an entry has the
        pattern's |V| and |E|, and the archive key is the pattern's canonical
        code, so the key is total and ranks exactly as the built patterns
        would.  Entries are then visited in rank order and filtered — support,
        ``min_vertices_reported`` (the first failure ends the scan, since |V|
        only falls from there) and diameter — until K survive.  Only the
        entries visited are converted, each with the embeddings the support
        measure counts as distinct.  Each reported pattern's code is checked
        against its key, the premise of the ranking; the digest and the
        catalog read that cached code anyway.
        """
        config = self.config

        def rank(item):
            code, entry = item
            first = entry.occurrences[0]
            return (first.num_vertices, first.num_edges, code)

        patterns: List[Pattern] = []
        for code, entry in sorted(archive.items(), key=rank, reverse=True):
            if len(patterns) >= config.k:
                break
            support = occurrence_support(entry.occurrences, config.support_measure)
            if support < config.min_support:
                continue
            if entry.occurrences[0].num_vertices < config.min_vertices_reported:
                break
            pattern = occurrences_to_pattern(
                self.graph, entry.occurrences, config.support_measure
            )
            if graph_diameter(pattern.graph) > config.d_max:
                continue
            if pattern.code != code:
                raise RuntimeError(f"archive key {code!r} is not its pattern's code")
            patterns.append(pattern)
        return patterns


def mine_top_k_patterns(
    graph: GraphView,
    min_support: int,
    k: int = 10,
    d_max: int = 4,
    epsilon: float = 0.1,
    radius: int = 1,
    v_min: Optional[int] = None,
    seed: Optional[int] = 0,
    **overrides,
) -> MiningResult:
    """One-call convenience API: run SpiderMine with the paper's parameters.

    Example
    -------
    >>> from repro.graph import synthetic_single_graph
    >>> data = synthetic_single_graph(200, 40, 2.0, 2, 12, 2, 2, 3, 2, seed=1)
    >>> result = mine_top_k_patterns(data.graph, min_support=2, k=5, d_max=6)
    >>> result.largest_size_vertices >= 5
    True
    """
    config = SpiderMineConfig(
        min_support=min_support,
        k=k,
        d_max=d_max,
        epsilon=epsilon,
        radius=radius,
        v_min=v_min,
        seed=seed,
        **overrides,
    )
    return SpiderMine(graph, config).mine()
