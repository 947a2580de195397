"""``repro.obs`` — the unified telemetry layer (metrics, spans, logging).

Observability is a first-class subsystem of the reproduction: a 10-hour
mine or a saturated ``repro serve`` must never be a black box.  This
package provides the process-local runtime every other layer instruments
itself against, built on three invariants:

* **Result-neutral.**  Telemetry can never change what is mined or served:
  mining result digests are bit-identical with telemetry enabled, disabled
  or tracing, pinned by ``tests/test_obs_parity.py``.  The registry and
  tracer live in module globals — never in :class:`SpiderMineConfig` — so
  catalog cache keys cannot move and no version bump is needed.
* **Free when off.**  The default :class:`NullRegistry` / :class:`NullTracer`
  cost one attribute check (``registry.enabled``) on hot paths; nothing is
  allocated, locked or formatted until a caller opts in.
* **One shape.**  Every stats object in the system —
  :class:`~repro.graph.isomorphism.MatcherStats`,
  :class:`~repro.catalog.pattern_index.IndexStats`,
  :class:`~repro.core.results.MiningStatistics`,
  :class:`~repro.catalog.lru.LRUCache` — satisfies the
  :class:`Snapshottable` protocol (``to_dict() -> dict``), so any of them
  can be published into a registry or serialised into a sidecar verbatim.
  All four are re-exported here for one-import access.

Entry points
------------
``get_registry()`` / ``set_registry()`` / ``enable_metrics()`` manage the
process-local :class:`MetricsRegistry`; ``span("layer.stage", **attrs)``
opens a phase timer on the active tracer (``enable_tracing()`` turns the
no-op default into a real span tree); ``configure_logging(json_lines=...,
trace=...)`` wires the stdlib ``repro`` logger, optionally as structured
JSON lines with the custom ``TRACE`` level (the CLI's ``--log-json`` /
``--trace`` flags).

Span names follow ``layer.stage[.unit]``: ``mine.stage1``,
``mine.stage1.unit`` (one per mining unit, serial or merged back from
workers), ``mine.setup`` (spider index and growth engine), ``mine.stage2``,
``mine.stage3``, ``mine.report``, ``serve.request``.
"""

from __future__ import annotations

from .metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Snapshottable,
    enable_metrics,
    get_registry,
    set_registry,
    use_registry,
)
from .trace import (
    TRACE,
    NullTracer,
    Span,
    Tracer,
    configure_logging,
    enable_tracing,
    get_logger,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
)


def __getattr__(name):
    # Lazy re-exports of the unified Snapshottable stats objects: importing
    # them eagerly here would cycle (graph/catalog/core all import repro.obs).
    if name == "MatcherStats":
        from ..graph.isomorphism import MatcherStats

        return MatcherStats
    if name == "IndexStats":
        from ..catalog.pattern_index import IndexStats

        return IndexStats
    if name == "MiningStatistics":
        from ..core.results import MiningStatistics

        return MiningStatistics
    if name == "LRUCache":
        from ..catalog.lru import LRUCache

        return LRUCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # metrics
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Snapshottable",
    "enable_metrics",
    "get_registry",
    "set_registry",
    "use_registry",
    # tracing + logging
    "TRACE",
    "NullTracer",
    "Span",
    "Tracer",
    "configure_logging",
    "enable_tracing",
    "get_logger",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
    # unified Snapshottable stats (lazy re-exports)
    "MatcherStats",
    "IndexStats",
    "MiningStatistics",
    "LRUCache",
]
