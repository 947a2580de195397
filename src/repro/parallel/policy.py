"""Execution policies for the mining engine.

An :class:`ExecutionPolicy` says *how* a mining run executes — in-process
(``serial``) or fanned out over a pool of worker processes (``process``) —
without saying anything about *what* is mined.  It is threaded through
:class:`~repro.core.config.SpiderMineConfig` so every entry point
(:class:`~repro.core.spider_miner.SpiderMiner`,
:class:`~repro.core.spidermine.SpiderMine`, the CLI ``--workers`` flag)
shares one switch.

The policy deliberately has **no influence on results**: the parallel driver
merges per-unit outputs in a canonical order (see
:func:`repro.core.spider_miner.merge_unit_levels`), so worker count and chunk
size only move work around.  That determinism guarantee is what makes the
policy safe to flip in production.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional

__all__ = ["EXECUTION_MODES", "ExecutionPolicy"]

#: Accepted values for :attr:`ExecutionPolicy.mode`.
EXECUTION_MODES = ("serial", "process")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a mining run is executed."""

    mode: str = "serial"
    """``"serial"`` runs everything in-process; ``"process"`` fans mining
    units out over ``n_workers`` processes sharing one zero-copy graph."""

    n_workers: int = 1
    """Worker process count for ``"process"`` mode (ignored when serial)."""

    chunk_size: Optional[int] = None
    """Mining units per worker task.  ``None`` picks ``ceil(units /
    (4 * n_workers))`` so each worker sees ~4 tasks — enough granularity to
    rebalance around slow units without drowning in dispatch overhead."""

    start_method: Optional[str] = None
    """``multiprocessing`` start method.  ``None`` prefers ``"fork"`` (cheap,
    and workers inherit the parent's string-hash seed, keeping iteration
    order identical for non-integer vertex ids) and falls back to
    ``"spawn"`` where fork is unavailable."""

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.mode!r}; expected one of {EXECUTION_MODES}"
            )
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1 when given")
        if self.start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if self.start_method not in available:
                raise ValueError(
                    f"start method {self.start_method!r} not available on this "
                    f"platform; expected one of {available}"
                )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def serial(cls) -> "ExecutionPolicy":
        """The in-process default."""
        return cls()

    @classmethod
    def process_pool(cls, n_workers: int, **kwargs) -> "ExecutionPolicy":
        """A process-pool policy; ``n_workers=1`` degrades to serial."""
        if n_workers == 1:
            return cls(**kwargs)
        return cls(mode="process", n_workers=n_workers, **kwargs)

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    @property
    def uses_processes(self) -> bool:
        """True when this policy actually fans out to worker processes."""
        return self.mode == "process" and self.n_workers > 1

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"

    def resolved_chunk_size(self, num_units: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-num_units // (4 * self.n_workers)))
