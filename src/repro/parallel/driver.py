"""The partition → mine → deterministic-merge driver for Stage I.

:func:`mine_units_in_processes` is the process-pool execution path behind
:meth:`repro.core.spider_miner.SpiderMiner.mine`:

1. **Partition** — the mining units (one per frequent label, canonical order)
   are split into contiguous chunks of the policy's chunk size.
2. **Mine** — a worker pool attaches the data graph from one shared-memory
   CSR snapshot (zero-copy, no graph pickling; see
   :mod:`repro.parallel.shared_graph`) and runs
   :meth:`~repro.core.spider_miner.SpiderMiner.mine_unit` per chunk.
3. **Merge** — per-unit level buckets come back tagged with their unit index;
   :func:`repro.core.spider_miner.merge_unit_levels` interleaves them
   level-major / unit-minor, reproducing the serial search's order exactly.

Failure contract: a worker exception aborts the run, terminates the pool and
re-raises the *original* exception in the parent; the shared segment is
closed and unlinked on every exit path, so no ``/dev/shm`` segments leak.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

from ..graph.frozen import freeze
from ..graph.view import GraphView
from ..obs import Span, get_tracer
from ..patterns.spider import Spider
from .policy import ExecutionPolicy
from .shared_graph import AttachedGraph, SharedGraphHandle, attach_shared_graph, export_shared_graph

__all__ = ["partition_units", "mine_units_in_processes"]


def _require_cross_process_determinism(frozen, start_method: str) -> None:
    """Refuse configurations whose results could depend on process identity.

    The miners' discovery order iterates ``neighbors()`` frozensets, whose
    iteration order depends on the element hashes.  Integer hashes are the
    same in every process; string (and other str-keyed) hashes are randomized
    per interpreter, so under a non-fork start method each worker would walk
    neighbors in its own order and the serial==parallel guarantee would
    silently break.  Fork inherits the parent's hash seed, so it is always
    safe; spawn/forkserver are only safe when every vertex id hashes
    seed-independently (ints).
    """
    if start_method == "fork":
        return
    if all(isinstance(v, int) for v in frozen.vertex_ids):
        return
    raise RuntimeError(
        f"parallel mining with start method {start_method!r} requires integer "
        "vertex identifiers: non-integer ids hash differently in each spawned "
        "process, which would break the serial==parallel determinism "
        "guarantee.  Use ExecutionPolicy(start_method='fork') (the default "
        "where available) or relabel the graph to integer ids "
        "(graph.relabeled())."
    )


def partition_units(num_units: int, policy: ExecutionPolicy) -> List[List[int]]:
    """Split unit indices ``0..num_units-1`` into worker-task chunks.

    Blocks of the policy's chunk size, in order.  Chunking is pure load
    balancing — the canonical merge makes results independent of it.
    """
    if num_units <= 0:
        return []
    size = policy.resolved_chunk_size(num_units)
    return [
        list(range(start, min(start + size, num_units)))
        for start in range(0, num_units, size)
    ]


def mine_units_in_processes(
    graph: GraphView, config, num_units: Optional[int] = None
) -> Dict[int, List[List[Spider]]]:
    """Run every mining unit of ``graph`` under ``config`` in a process pool.

    Returns ``{unit index: per-level spider buckets}`` for
    :func:`~repro.core.spider_miner.merge_unit_levels`.  The input graph may
    be either backend; the snapshot shared with workers is its frozen form,
    which mines identically (backend parity).  ``num_units`` is the caller's
    already-computed unit count (``len(SpiderMiner.unit_labels())``); it is
    re-derived from the graph when omitted.
    """
    from ..core.config import CachePolicy

    policy: ExecutionPolicy = config.execution
    # Workers run their units strictly serially (the pool is the only
    # fan-out) and never touch the run cache — caching happens once, in the
    # parent, around the merged result; per-worker lookups would only add
    # filesystem traffic for keys the parent already resolved.
    worker_config = replace(
        config, execution=ExecutionPolicy.serial(), cache=CachePolicy.off()
    )
    frozen = freeze(graph)
    if num_units is None:
        from ..core.spider_miner import SpiderMiner

        num_units = len(SpiderMiner(frozen, worker_config).unit_labels())
    chunks = partition_units(num_units, policy)
    if not chunks:
        return {}

    start_method = policy.resolved_start_method()
    _require_cross_process_determinism(frozen, start_method)
    handle, segment = export_shared_graph(frozen)
    tracer = get_tracer()
    unit_levels: Dict[int, List[List[Spider]]] = {}
    unit_spans: Dict[int, Dict] = {}
    try:
        context = multiprocessing.get_context(start_method)
        with context.Pool(
            processes=min(policy.n_workers, len(chunks)),
            initializer=_worker_initializer,
            initargs=(handle, worker_config, tracer.enabled),
        ) as pool:
            # Pool.map re-raises a failing chunk's original exception here in
            # the parent; the with-block then terminates the remaining
            # workers and the finally below releases the shared segment.
            for chunk_result in pool.map(_mine_chunk, chunks, chunksize=1):
                for unit, levels, span_payload in chunk_result:
                    unit_levels[unit] = levels
                    if span_payload is not None:
                        unit_spans[unit] = span_payload
    finally:
        segment.close()
        segment.unlink()
    if tracer.enabled:
        # Workers ship their per-unit span trees back with the results; the
        # driver grafts them in canonical unit order so the merged tree is
        # independent of chunk scheduling (same determinism story as the
        # spider merge itself).
        for unit in sorted(unit_spans):
            tracer.attach(Span.from_dict(unit_spans[unit]))
    return unit_levels


# ---------------------------------------------------------------------- #
# worker-side plumbing (module-level so every start method can pickle it)
# ---------------------------------------------------------------------- #
_worker_state: Dict[str, object] = {}


def _worker_initializer(handle: SharedGraphHandle, config, telemetry: bool = False) -> None:
    """Attach the shared graph once per worker and build its miner.

    Never raises: ``multiprocessing.Pool`` respawns a worker whose
    initializer dies, which would loop forever on a persistent failure (say,
    the segment vanished).  A failed setup is stashed instead and re-raised
    by the first task, which aborts the whole ``pool.map`` cleanly.
    """
    import atexit

    from ..core.spider_miner import SpiderMiner

    try:
        attached = attach_shared_graph(handle)
        _worker_state["attached"] = attached
        _worker_state["miner"] = SpiderMiner(attached.graph, config)
        _worker_state["telemetry"] = bool(telemetry)
    except BaseException as error:  # noqa: BLE001 - re-raised by the first task
        _worker_state["setup_error"] = error
        return
    atexit.register(_worker_shutdown)
    # The shared snapshot is immutable and workers only accrete caches and
    # candidates; with no old-generation garbage to find, the cyclic GC's
    # periodic full-heap scans are pure overhead on large graphs.
    gc.disable()


def _worker_shutdown() -> None:
    """Drop graph references, then release the shared mapping."""
    attached = _worker_state.pop("attached", None)
    _worker_state.clear()
    gc.enable()
    gc.collect()
    if isinstance(attached, AttachedGraph):
        try:
            attached.detach()
        except BufferError:  # pragma: no cover - stray view kept by caller
            pass


def _mine_chunk(
    units: Sequence[int],
) -> List[Tuple[int, List[List[Spider]], Optional[Dict]]]:
    """Mine one chunk of unit indices in this worker.

    Each tuple carries the unit's per-level buckets plus — when the parent
    had tracing on — a serialised per-unit span tree for the driver to
    graft (``None`` otherwise, so disabled telemetry ships zero extra bytes
    through the result pickles).
    """
    setup_error = _worker_state.get("setup_error")
    if setup_error is not None:
        raise setup_error
    miner = _worker_state["miner"]
    if not _worker_state.get("telemetry"):
        return [(unit, miner.mine_unit(unit), None) for unit in units]
    results = []
    for unit in units:
        started = time.monotonic()
        levels = miner.mine_unit(unit)
        span = Span(
            name="mine.stage1.unit",
            attrs={
                "unit": unit,
                "spiders": sum(len(bucket) for bucket in levels),
            },
            duration=time.monotonic() - started,
        )
        results.append((unit, levels, span.to_dict()))
    return results
