"""Parallel execution layer: policy-driven mining over shared graph snapshots.

Public surface:

* :class:`ExecutionPolicy` — serial vs process-pool execution, worker count
  and chunk size; threaded through
  :class:`~repro.core.config.SpiderMineConfig`;
* :func:`export_shared_graph` / :func:`attach_shared_graph` — zero-copy
  sharing of a :class:`~repro.graph.frozen.FrozenGraph` CSR snapshot via
  ``multiprocessing.shared_memory``;
* :func:`mine_units_in_processes` / :func:`partition_units` — the
  partition → mine → deterministic-merge driver behind
  :meth:`~repro.core.spider_miner.SpiderMiner.mine`.

The driver is imported lazily: it depends on :mod:`repro.core`, which in turn
imports this package for the policy, and laziness keeps that cycle one-way at
import time.
"""

from .policy import EXECUTION_MODES, ExecutionPolicy
from .shared_graph import (
    AttachedGraph,
    SharedGraphHandle,
    attach_shared_graph,
    export_shared_graph,
)

__all__ = [
    "EXECUTION_MODES",
    "ExecutionPolicy",
    "AttachedGraph",
    "SharedGraphHandle",
    "attach_shared_graph",
    "export_shared_graph",
    "mine_units_in_processes",
    "partition_units",
]


def __getattr__(name: str):
    if name in ("mine_units_in_processes", "partition_units"):
        from . import driver

        return getattr(driver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
