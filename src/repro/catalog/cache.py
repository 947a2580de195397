"""The content-addressed run cache: mine once, re-serve bit-identically.

A run is addressed by :class:`RunKey` — the digests of the data graph's
canonical structure and of the result-affecting config fields, plus the
package version and the run *kind* (``"result"`` for full
:class:`~repro.core.results.MiningResult`\\ s, ``"spiders"`` for Stage-I
spider sets).  Two consequences of that key choice:

* **Execution-neutral.**  Worker count, chunk size, backend and the
  cache policy itself are excluded (they provably do not change results —
  the parallel engine's parity guarantee), so a result mined with
  ``--workers 8`` on the CSR backend serves a later serial dict-backend run
  of the same graph+config, and vice versa.
* **Version-fenced.**  ``code_version`` (the installed package version) is in
  the key, so upgrading the miner silently invalidates old entries instead
  of re-serving output a newer algorithm would no longer produce.

:class:`RunCache` is deliberately dumb: look up, deserialise, insert.  The
policy — whether to read, whether to write (:class:`repro.core.config.CachePolicy`)
— is enforced by the callers (`SpiderMine.mine`, `SpiderMiner.mine`), which
keeps every decision about *when* to cache next to the mining code it guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..core.results import MiningResult
from ..graph.io import graph_to_dict
from ..graph.view import GraphView
from ..obs import get_registry, get_tracer
from ..patterns.spider import Spider
from .formats import (
    FORMAT_VERSION,
    config_digest,
    config_payload,
    payload_digest,
    result_from_payload,
    result_payload,
    run_id_for_key,
    run_summary_from_record,
    spiders_from_payload,
    spiders_payload,
    stage1_config_digest,
    stage1_config_payload,
)
from .pattern_index import run_index_payload
from .store import CatalogError, CatalogStore, PathLike

__all__ = ["RunKey", "RunCache", "code_version"]

RUN_KINDS = ("result", "spiders")


def code_version() -> str:
    """The installed package version — the cache key's code fence."""
    from .. import __version__

    return __version__


@dataclass(frozen=True)
class RunKey:
    """The content address of one cached run."""

    graph_digest: str
    config_digest: str
    code_version: str
    kind: str = "result"

    def payload(self) -> Dict[str, str]:
        return {
            "graph": self.graph_digest,
            "config": self.config_digest,
            "code_version": self.code_version,
            "kind": self.kind,
        }

    @property
    def run_id(self) -> str:
        return run_id_for_key(self.payload())


class RunCache:
    """Serve and store mining runs in a :class:`CatalogStore`."""

    def __init__(self, store: Union[CatalogStore, PathLike]) -> None:
        self.store = store if isinstance(store, CatalogStore) else CatalogStore(store)
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        # Graph digests memoised by object identity: serialising the whole
        # data graph is the dominant key cost, and one mine() touches the key
        # several times (lookup, insert, graph put).  Each entry keeps a
        # strong reference to its graph, so a memoised id can never be
        # recycled by a different object while the entry exists — the
        # ``is`` check below is therefore exact, even for a long-lived cache.
        self._graph_digest_memo: Dict[int, tuple] = {}
        # The canonical body behind each digest, kept so a later graph
        # snapshot insert reuses it instead of re-serialising (popped on
        # first use).  Memory note: the digest memo above already pins the
        # graph itself, which dominates the body's footprint.
        self._graph_body_memo: Dict[int, Dict] = {}

    def to_dict(self) -> Dict[str, int]:
        """Cache traffic counters (the :class:`~repro.obs.Snapshottable` shape)."""
        return {"hits": self.hits, "misses": self.misses, "inserts": self.inserts}

    def _count(self, kind: str, outcome: str) -> None:
        """Mirror one cache event into the telemetry registry (free when off)."""
        registry = get_registry()
        if registry.enabled:
            registry.counter(f"cache.{kind}.{outcome}")

    def _graph_digest(self, graph: GraphView) -> str:
        entry = self._graph_digest_memo.get(id(graph))
        if entry is not None and entry[0] is graph:
            return entry[1]
        body = graph_to_dict(graph)
        digest = payload_digest(body)
        self._graph_digest_memo[id(graph)] = (graph, digest)
        self._graph_body_memo[id(graph)] = body
        return digest

    def _put_graph_snapshot(self, graph: GraphView, digest: str) -> None:
        """Store the graph once, reusing the canonical body the key built."""
        body = self._graph_body_memo.pop(id(graph), None)
        self.store.put_graph(graph, digest=digest, body=body)

    def _discard_graph_body(self, graph: GraphView) -> None:
        """Free the retained canonical body once no insert can follow.

        Called on every hit and on readonly lookups: the body only exists to
        feed a later :meth:`_put_graph_snapshot`, and for a large graph it is
        the one memo entry whose footprint rivals the graph itself."""
        self._graph_body_memo.pop(id(graph), None)

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def result_key(self, graph: GraphView, config) -> RunKey:
        return RunKey(
            graph_digest=self._graph_digest(graph),
            config_digest=config_digest(config),
            code_version=code_version(),
            kind="result",
        )

    def spiders_key(self, graph: GraphView, config) -> RunKey:
        return RunKey(
            graph_digest=self._graph_digest(graph),
            config_digest=stage1_config_digest(config),
            code_version=code_version(),
            kind="spiders",
        )

    # ------------------------------------------------------------------ #
    # full mining results
    # ------------------------------------------------------------------ #
    def load_result(self, graph: GraphView, config) -> Optional[MiningResult]:
        """The cached result for ``(graph, config)``, or ``None`` on a miss.

        An unreadable or format-mismatched stored object (truncated file, a
        record written by a newer release) degrades to a **miss** rather than
        failing the mine: the caller re-mines, and in ``readwrite`` mode the
        broken object is overwritten by the fresh insert.
        """
        key = self.result_key(graph, config)
        if not config.cache.writes:
            self._discard_graph_body(graph)
        if not self.store.has_run(key.run_id):
            self.misses += 1
            self._count("result", "misses")
            return None
        try:
            record = self.store.get_run_payload(key.run_id)
            result = result_from_payload(record["result"])
        except (CatalogError, KeyError, TypeError, ValueError):
            self.misses += 1
            self._count("result", "misses")
            return None
        self._discard_graph_body(graph)
        result.cache_info = {
            "status": "hit",
            "run_id": key.run_id,
            "store": str(self.store.root),
        }
        self.hits += 1
        self._count("result", "hits")
        return result

    def store_result(self, graph: GraphView, config, result: MiningResult) -> str:
        """Insert a freshly mined result; returns the run id."""
        key = self.result_key(graph, config)
        record = {
            "format": FORMAT_VERSION,
            "kind": "result",
            "key": key.payload(),
            "config": config_payload(config),
            "result": result_payload(result),
        }
        self._put_graph_snapshot(graph, key.graph_digest)
        self.store.put_run(key.run_id, record, run_summary_from_record(record))
        # Derive the needle-side pattern index while the payload is in hand,
        # so the serving tier's containment queries never pay the per-run
        # derivation cold (invalidation rides the same code_version fence).
        self.store.put_pattern_index(
            key.run_id,
            run_index_payload(
                key.run_id, record["result"]["patterns"], key.code_version
            ),
        )
        self.inserts += 1
        self._count("result", "inserts")
        return key.run_id

    def store_telemetry(self, run_id: str, result: MiningResult) -> Optional[Dict]:
        """Persist the run-telemetry sidecar for ``run_id``, if telemetry is on.

        Captures the active registry snapshot, the active tracer's span
        trees, and the run's :class:`~repro.core.results.MiningStatistics`
        into ``objects/telemetry/<run_id>.json``.  Returns the payload, or
        ``None`` when both registry and tracer are the null defaults (no
        sidecar is written — disabled telemetry leaves no residue).
        """
        registry = get_registry()
        tracer = get_tracer()
        if not (registry.enabled or tracer.enabled):
            return None
        payload = {
            "format": FORMAT_VERSION,
            "kind": "telemetry",
            "run_id": run_id,
            "code_version": code_version(),
            "metrics": registry.snapshot(),
            "spans": tracer.to_dict()["spans"],
            "statistics": result.statistics.to_dict(),
        }
        self.store.put_telemetry(run_id, payload)
        return payload

    # ------------------------------------------------------------------ #
    # Stage-I spider sets
    # ------------------------------------------------------------------ #
    def load_spiders(self, graph: GraphView, config) -> Optional[List[Spider]]:
        key = self.spiders_key(graph, config)
        if not config.cache.writes:
            self._discard_graph_body(graph)
        if not self.store.has_run(key.run_id):
            self.misses += 1
            self._count("spiders", "misses")
            return None
        try:
            record = self.store.get_run_payload(key.run_id)
            spiders = spiders_from_payload(record["spiders"])
        except (CatalogError, KeyError, TypeError, ValueError):
            # Same contract as load_result: broken objects are misses.
            self.misses += 1
            self._count("spiders", "misses")
            return None
        self._discard_graph_body(graph)
        self.hits += 1
        self._count("spiders", "hits")
        return spiders

    def store_spiders(self, graph: GraphView, config, spiders: List[Spider]) -> str:
        key = self.spiders_key(graph, config)
        record = {
            "format": FORMAT_VERSION,
            "kind": "spiders",
            "key": key.payload(),
            "config": stage1_config_payload(config),
            "spiders": spiders_payload(spiders),
        }
        self._put_graph_snapshot(graph, key.graph_digest)
        self.store.put_run(key.run_id, record, run_summary_from_record(record))
        self.inserts += 1
        self._count("spiders", "inserts")
        return key.run_id
