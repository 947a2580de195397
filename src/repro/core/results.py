"""Result and statistics objects returned by the miners.

Every miner in this package (SpiderMine and the baselines) returns a
:class:`MiningResult`, so benchmarks and examples can treat them uniformly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional

from ..patterns.pattern import Pattern
from ..patterns.lattice import size_distribution


@dataclass
class MiningStatistics:
    """Counters collected during a mining run (all optional, default 0)."""

    num_spiders: int = 0
    num_seeds: int = 0
    num_merges: int = 0
    num_candidates_generated: int = 0
    num_growth_iterations: int = 0
    stage_durations: Dict[str, float] = field(default_factory=dict)

    def record_stage(self, name: str, seconds: float) -> None:
        self.stage_durations[name] = self.stage_durations.get(name, 0.0) + seconds

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready dict (stage durations in sorted key order)."""
        return {
            "num_spiders": self.num_spiders,
            "num_seeds": self.num_seeds,
            "num_merges": self.num_merges,
            "num_candidates_generated": self.num_candidates_generated,
            "num_growth_iterations": self.num_growth_iterations,
            "stage_durations": {
                name: self.stage_durations[name] for name in sorted(self.stage_durations)
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MiningStatistics":
        """Inverse of :meth:`to_dict`; missing counters default to zero."""
        known = {f.name for f in fields(cls)}
        fields_in = {k: v for k, v in data.items() if k in known}
        durations = dict(fields_in.pop("stage_durations", {}) or {})
        return cls(stage_durations=durations, **fields_in)


@dataclass
class MiningResult:
    """Patterns found by a miner plus run metadata."""

    algorithm: str
    patterns: List[Pattern]
    runtime_seconds: float = 0.0
    statistics: MiningStatistics = field(default_factory=MiningStatistics)
    parameters: Dict[str, object] = field(default_factory=dict)
    cache_info: Optional[Dict[str, object]] = field(default=None, repr=False, compare=False)
    """Run-cache provenance (``{"status": "hit"|"miss"|"stored", ...}``).

    Set by :meth:`repro.core.spidermine.SpiderMine.mine` when a
    :class:`~repro.core.config.CachePolicy` is active.  Purely informational:
    never serialised and never part of the result digest, so a cache-served
    result stays bit-identical to the freshly mined one."""

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    @property
    def largest_pattern(self) -> Optional[Pattern]:
        if not self.patterns:
            return None
        return max(self.patterns, key=lambda p: (p.num_vertices, p.num_edges))

    @property
    def largest_size_vertices(self) -> int:
        largest = self.largest_pattern
        return largest.num_vertices if largest else 0

    @property
    def largest_size_edges(self) -> int:
        largest = self.largest_pattern
        return largest.num_edges if largest else 0

    def size_distribution(self, by: str = "vertices") -> Dict[int, int]:
        """size → count, the format the paper's histogram figures use."""
        return size_distribution(self.patterns, by=by)

    def sizes(self, by: str = "vertices") -> List[int]:
        """Pattern sizes, largest first."""
        key = (lambda p: p.num_vertices) if by == "vertices" else (lambda p: p.num_edges)
        return sorted((key(p) for p in self.patterns), reverse=True)

    def top(self, k: int) -> List[Pattern]:
        ranked = sorted(
            self.patterns, key=lambda p: (p.num_vertices, p.num_edges), reverse=True
        )
        return ranked[:k]

    def to_json_dict(self) -> Dict[str, object]:
        """Deterministic JSON-ready payload of the full result.

        Canonical ordering throughout (sorted keys, canonical vertex/edge
        order inside pattern graphs), so the emission is byte-stable across
        processes and Python versions — the contract behind the catalog's
        content-addressed digests.  See :mod:`repro.catalog.formats`.
        """
        from ..catalog.formats import result_payload

        return result_payload(self)

    def digest(self) -> str:
        """Stable digest of the deterministic core of this result.

        Excludes wall-clock fields (``runtime_seconds``, stage durations) and
        execution metadata (worker count, execution mode), so a serial run, a
        parallel run and a cache-served copy of the same mining output all
        share one digest.
        """
        from ..catalog.formats import result_digest

        return result_digest(self)

    def summary(self) -> str:
        """One-line human-readable summary used by the CLI and examples."""
        dist = self.size_distribution()
        return (
            f"{self.algorithm}: {len(self.patterns)} patterns, "
            f"largest |V|={self.largest_size_vertices}, "
            f"runtime={self.runtime_seconds:.3f}s, sizes={dist}"
        )


@contextmanager
def stage_timer(statistics: MiningStatistics, stage: str) -> Iterator[None]:
    """Context manager that adds the elapsed wall time of a stage to the stats."""
    start = time.perf_counter()
    try:
        yield
    finally:
        statistics.record_stage(stage, time.perf_counter() - start)
