"""Configuration for the SpiderMine miner.

The user-facing parameters are exactly the paper's inputs (support threshold
``σ``, result count ``K``, error bound ``ε``, diameter bound ``Dmax``, spider
radius ``r`` and the large-pattern vertex lower bound ``Vmin``).  The
remaining knobs are engineering limits that keep the pure-Python
implementation within memory/time budgets; each documents its default and its
effect on fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..parallel.policy import ExecutionPolicy
from ..patterns.support import SupportMeasure

#: Engineering caps on :class:`SpiderMineConfig` that truncate a list or a
#: loop; each must keep at least one item (``ranked[:cap]`` with ``cap < 1``
#: would silently drop items from the wrong end).
_TRUNCATION_CAPS = (
    "max_spider_size",
    "max_spiders",
    "max_embeddings_per_pattern",
    "max_patterns_per_iteration",
    "max_occurrences_grown_per_entry",
    "max_extensions_per_boundary",
)

#: Accepted values for :attr:`CachePolicy.mode`.
CACHE_MODES = ("readwrite", "readonly", "refresh")


@dataclass(frozen=True)
class CachePolicy:
    """Whether and how a mining run uses the persistent catalog's run cache.

    The cache (:mod:`repro.catalog.cache`) is content-addressed by
    ``(graph digest, config digest, code version)``, so a hit re-serves a
    result bit-identical to mining afresh — the policy is purely an
    engineering switch, like :class:`~repro.parallel.policy.ExecutionPolicy`.
    """

    directory: Optional[str] = None
    """Catalog root directory; ``None`` (the default) disables caching."""

    mode: str = "readwrite"
    """``"readwrite"`` serves hits and stores misses; ``"readonly"`` serves
    hits but never writes; ``"refresh"`` always re-mines and overwrites the
    stored run (cache-busting for debugging or after data corrections)."""

    def __post_init__(self) -> None:
        if self.mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.mode!r}; expected one of {CACHE_MODES}"
            )

    @classmethod
    def off(cls) -> "CachePolicy":
        """The disabled default."""
        return cls()

    @classmethod
    def at(cls, directory, mode: str = "readwrite") -> "CachePolicy":
        """Cache in ``directory`` (created on first use)."""
        return cls(directory=str(directory), mode=mode)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    @property
    def reads(self) -> bool:
        """Whether lookups may serve cached runs."""
        return self.enabled and self.mode in ("readwrite", "readonly")

    @property
    def writes(self) -> bool:
        """Whether freshly mined runs are stored."""
        return self.enabled and self.mode in ("readwrite", "refresh")


@dataclass
class SpiderMineConfig:
    """All parameters of a SpiderMine run."""

    # --- the paper's user-specified inputs ---------------------------------
    min_support: int = 2
    """Support threshold σ: minimum (overlap-aware) support of a reported pattern."""

    k: int = 10
    """Number of largest patterns to return (the K in top-K)."""

    epsilon: float = 0.1
    """Error bound ε: the result misses a top-K pattern with probability ≤ ε."""

    d_max: int = 4
    """Diameter upper bound Dmax for reported patterns."""

    radius: int = 1
    """Spider radius r.  The paper finds r ∈ {1, 2} the right trade-off."""

    v_min: Optional[int] = None
    """Vmin: user lower bound on the vertex count of a "large" pattern.

    Used only to size the random seed draw (Lemma 2).  Defaults to
    |V(G)| / 10 as in the paper's worked example when left as ``None``."""

    support_measure: SupportMeasure = SupportMeasure.HARMFUL_OVERLAP
    """Single-graph support definition (SpiderMine adopts harmful overlap)."""

    seed: Optional[int] = 0
    """Seed for the random seed-spider draw; ``None`` uses a fresh RNG."""

    # --- engineering limits -------------------------------------------------
    max_spider_size: int = 6
    """Maximum number of vertices in a Stage-I spider.

    Stage I mines *all* frequent patterns of radius ≤ r; on label-poor graphs
    that set is exponential, so enumeration stops at this vertex count.  The
    default (6) comfortably covers the radius-1 stars that drive growth."""

    max_spiders: int = 20000
    """Hard cap on the number of distinct spiders mined in Stage I."""

    max_embeddings_per_pattern: int = 400
    """Embedding lists are truncated (deterministically) beyond this length.

    Truncation can only under-count support, so frequent output stays sound;
    it never manufactures frequency."""

    max_patterns_per_iteration: int = 1500
    """Cap on candidate patterns produced by one SpiderGrow sweep."""

    max_occurrences_grown_per_entry: int = 60
    """How many of a pattern's occurrences are expanded in one SpiderGrow sweep.

    Support is still computed over every stored occurrence; this cap only
    bounds the growth fan-out on patterns with very many embeddings (common
    on label-poor graphs such as the DBLP co-authorship network)."""

    max_extensions_per_boundary: int = 3
    """How many qualifying spiders may extend a pattern at one boundary vertex.

    Spiders are tried largest-first, so this keeps the best (maximal-overlap)
    extensions while bounding the branching factor of SpiderGrow."""

    max_growth_iterations: int = 30
    """Safety cap on Stage-III growth iterations ("until no new patterns")."""

    max_seed_count: Optional[int] = None
    """Optional cap on M (the seed draw size) for very small ε on small graphs."""

    keep_unmerged_if_empty: bool = True
    """If no merge ever happens (pruning would empty the candidate set), fall
    back to keeping the grown seeds so the miner still reports patterns.  The
    paper's analysis assumes merges occur for truly large patterns; this flag
    only affects degenerate inputs."""

    min_vertices_reported: int = 1
    """Patterns smaller than this many vertices are dropped from the result."""

    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    """How Stage-I mining executes (serial or a worker-process pool).

    Purely an engineering switch: the parallel driver merges per-unit results
    in canonical order, so mining output is identical for every policy — see
    :mod:`repro.parallel`.  Flip with ``ExecutionPolicy.process_pool(n)`` or
    the CLI ``--workers`` flag."""

    cache: CachePolicy = field(default_factory=CachePolicy)
    """Run-cache policy (disabled by default; see :class:`CachePolicy`).

    Like ``execution``, the cache never changes *what* is mined: its key
    digests exclude both policies, so a result mined serially, in parallel,
    or served from the cache is bit-identical.  Flip with
    ``CachePolicy.at(directory)`` or the CLI ``--cache DIR`` flag."""

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError("min_support must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        if self.v_min is not None and self.v_min < 1:
            raise ValueError("v_min must be positive when given")
        for cap in _TRUNCATION_CAPS:
            if getattr(self, cap) < 1:
                raise ValueError(f"{cap} must be at least 1")
        if not isinstance(self.support_measure, SupportMeasure):
            self.support_measure = SupportMeasure(self.support_measure)
        if not isinstance(self.execution, ExecutionPolicy):
            raise ValueError("execution must be an ExecutionPolicy instance")
        if not isinstance(self.cache, CachePolicy):
            raise ValueError("cache must be a CachePolicy instance")

    @property
    def growth_iterations(self) -> int:
        """Stage-II iteration count ⌈Dmax / (2r)⌉ (Lemma 1)."""
        return max(1, -(-self.d_max // (2 * self.radius)))

    def resolved_v_min(self, num_graph_vertices: int) -> int:
        """The Vmin actually used: the user's value or |V(G)|/10 (paper's example)."""
        if self.v_min is not None:
            return self.v_min
        return max(1, num_graph_vertices // 10)
