"""The catalog query layer: answer pattern questions from stored runs.

Serving path of the subsystem: once runs are in a
:class:`~repro.catalog.store.CatalogStore`, :class:`CatalogQuery` answers

* **top-k** — the k largest (by vertices or edges) or best-supported
  patterns across all stored result runs (or one run);
* **label filter** — patterns containing a vertex with a given label;
* **containment** — patterns containing a given needle graph as a
  (label-preserving) subgraph, single-needle or **batched**.

Top-k and label queries run entirely off the index's per-run summaries —
no graph object, not even a run payload, is read.  Containment runs off the
persisted **needle-side domain index**
(:mod:`repro.catalog.pattern_index`): per-run sidecars derived at mine time
hold every stored pattern's label classes, degrees and neighbor-label
signatures, so candidate-domain seeding — the work the matcher used to
re-derive per ``(pattern, needle)`` pair — becomes a pure metadata check.
Only needles that survive seeding materialise the pattern graph (via a
bounded LRU of run payloads) and enter a real
:class:`~repro.graph.isomorphism.SubgraphMatcher` search; a batch of N
needles is answered in one pass over the sidecars.  The *data* graphs — the
objects that are actually massive — are never touched by any query.

Construct queries through :func:`repro.api.open_catalog` — the stable facade
returns a handle whose ``.query`` is built here; calling ``CatalogQuery(...)``
directly is deprecated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..graph.isomorphism import SubgraphMatcher
from ..graph.labeled_graph import LabeledGraph
from ..obs import get_registry
from ..patterns.pattern import Pattern
from .formats import pattern_from_payload
from .lru import LRUCache
from .pattern_index import (
    IndexStats,
    PatternDomainEntry,
    build_run_index,
    entry_admits,
    needle_requirements,
    run_index_from_payload,
)
from .store import CatalogStore, PathLike

__all__ = ["PatternRecord", "CatalogQuery", "RANKINGS"]

#: Ranking keys accepted by :meth:`CatalogQuery.top_k`.
RANKINGS = ("vertices", "edges", "support")

#: Default bound on cached run payloads (the bug fix for the previously
#: unbounded per-process ``_payload_cache``): a run payload holds full
#: pattern graphs + embeddings, so a handful covers the hot set.
PAYLOAD_CACHE_ENTRIES = 8

#: Default bound on cached per-run pattern indexes.  Entries are tiny
#: (labels/degrees/signatures only), so the serving tier keeps more of them
#: hot than payloads.
INDEX_CACHE_ENTRIES = 64


@dataclass(frozen=True)
class PatternRecord:
    """One stored pattern, as cheap metadata plus a lazy graph handle."""

    run_id: str
    index: int
    num_vertices: int
    num_edges: int
    support: int
    labels: Tuple = ()
    algorithm: str = ""

    def describe(self) -> str:
        return (
            f"{self.run_id[:12]}#{self.index}: |V|={self.num_vertices} "
            f"|E|={self.num_edges} support={self.support}"
        )

    def to_dict(self) -> Dict:
        """The one JSON schema shared by the CLI ``--json`` output, the HTTP
        API and Python callers — change it in lockstep everywhere."""
        return {
            "run_id": self.run_id,
            "index": self.index,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "support": self.support,
            "labels": list(self.labels),
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PatternRecord":
        return cls(
            run_id=data["run_id"],
            index=data["index"],
            num_vertices=data["num_vertices"],
            num_edges=data["num_edges"],
            support=data["support"],
            labels=tuple(data.get("labels", ())),
            algorithm=data.get("algorithm", ""),
        )


class CatalogQuery:
    """Read-only query interface over one catalog store.

    ``read_only=True`` (what :meth:`repro.api.Catalog.serve` uses) never
    writes to the store: stale or missing pattern-index sidecars are rebuilt
    into the in-process LRU only.  Otherwise rebuilt sidecars are persisted
    back, self-healing the store for the next process.
    """

    def __init__(self, store: Union[CatalogStore, PathLike], **kwargs) -> None:
        warnings.warn(
            "constructing CatalogQuery(...) directly is deprecated; use "
            "repro.api.open_catalog(...) — the stable facade returning a "
            "catalog handle with top_k/with_label/contains/contains_batch",
            DeprecationWarning,
            stacklevel=2,
        )
        self._init(store, **kwargs)

    @classmethod
    def _create(cls, store: Union[CatalogStore, PathLike], **kwargs) -> "CatalogQuery":
        """Internal constructor (no deprecation warning) for the facade."""
        self = cls.__new__(cls)
        self._init(store, **kwargs)
        return self

    def _init(
        self,
        store: Union[CatalogStore, PathLike],
        payload_cache_size: int = PAYLOAD_CACHE_ENTRIES,
        index_cache_size: int = INDEX_CACHE_ENTRIES,
        read_only: bool = False,
    ) -> None:
        self.store = store if isinstance(store, CatalogStore) else CatalogStore(store)
        self.read_only = read_only
        self.stats = IndexStats()
        self._payload_cache = LRUCache(payload_cache_size)
        self._index_cache = LRUCache(index_cache_size)

    # ------------------------------------------------------------------ #
    # record enumeration (index summaries only)
    # ------------------------------------------------------------------ #
    def records(self, run_id: Optional[str] = None) -> Iterator[PatternRecord]:
        """Every stored result pattern as a :class:`PatternRecord`.

        Deterministic order: runs sorted by id, patterns by stored rank.
        """
        runs = self.store.list_runs(kind="result")
        runs.sort(key=lambda r: r["run_id"])
        for run in runs:
            if run_id is not None and run["run_id"] != run_id:
                continue
            for entry in run.get("patterns", []):
                yield PatternRecord(
                    run_id=run["run_id"],
                    index=entry["index"],
                    num_vertices=entry["num_vertices"],
                    num_edges=entry["num_edges"],
                    support=entry["support"],
                    labels=tuple(entry.get("labels", ())),
                    algorithm=run.get("algorithm", ""),
                )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def top_k(
        self,
        k: int,
        by: str = "vertices",
        label=None,
        run_id: Optional[str] = None,
    ) -> List[PatternRecord]:
        """The k best stored patterns by size or support, optionally filtered.

        ``by``: ``"vertices"`` (paper's default size notion), ``"edges"``
        (the formal |P|) or ``"support"``.  Ties break deterministically on
        the secondary size, then (run id, index).
        """
        if by not in RANKINGS:
            raise ValueError(f"unknown ranking {by!r}; expected one of {RANKINGS}")
        if k < 0:
            raise ValueError("k must be non-negative")
        pool = self.records(run_id=run_id)
        if label is not None:
            pool = (r for r in pool if label in r.labels)

        def rank(record: PatternRecord):
            if by == "vertices":
                primary = (record.num_vertices, record.num_edges)
            elif by == "edges":
                primary = (record.num_edges, record.num_vertices)
            else:
                primary = (record.support, record.num_vertices, record.num_edges)
            # Negate the deterministic tiebreak so one reverse sort suffices.
            return (*primary, record.run_id, -record.index)

        ranked = sorted(pool, key=rank, reverse=True)
        return ranked[:k]

    def with_label(self, label, run_id: Optional[str] = None) -> List[PatternRecord]:
        """All stored patterns containing a vertex labeled ``label``."""
        return [r for r in self.records(run_id=run_id) if label in r.labels]

    def containing(
        self,
        needle: Union[LabeledGraph, Pattern],
        run_id: Optional[str] = None,
    ) -> List[PatternRecord]:
        """Stored patterns that contain ``needle`` as a label-preserving subgraph.

        A batch of one: see :meth:`contains_batch` for how the persisted
        pattern index answers most negatives without loading any graph.
        """
        return self.contains_batch([needle], run_id=run_id)[0]

    def contains_batch(
        self,
        needles: Sequence[Union[LabeledGraph, Pattern]],
        run_id: Optional[str] = None,
    ) -> List[List[PatternRecord]]:
        """Containment for many needles in **one pass** over the stored runs.

        Per stored pattern, every needle is first settled against the
        persisted :class:`~repro.catalog.pattern_index.PatternDomainEntry`
        (label counts + degree/neighbor-signature domain seeding — a sound
        rejection, since matcher domains are subsets of these seeds); only
        surviving ``(pattern, needle)`` pairs materialise the pattern graph
        and run a real subgraph search.  Results preserve stored-run order
        per needle, exactly like N independent :meth:`containing` calls.
        """
        registry = get_registry()
        graphs: List[Optional[LabeledGraph]] = []
        requirements: List[Optional[List[Tuple]]] = []
        label_counts: List[Dict] = []
        for needle in needles:
            graph = needle.graph if isinstance(needle, Pattern) else needle
            graphs.append(graph)
            requirements.append(needle_requirements(graph))
            label_counts.append(dict(graph.label_counts()))

        results: List[List[PatternRecord]] = [[] for _ in needles]
        for record in self.records(run_id=run_id):
            # Cheap metadata prefilter straight off the record summary.
            survivors = [
                i
                for i, graph in enumerate(graphs)
                if requirements[i] is not None
                and record.num_vertices >= graph.num_vertices
                and record.num_edges >= graph.num_edges
                and all(label in record.labels for label in label_counts[i])
            ]
            if not survivors:
                continue
            entry = self._index_entry(record)
            alive = []
            for i in survivors:
                self.stats.seed_checks += 1
                if entry_admits(entry, requirements[i], label_counts[i]):
                    alive.append(i)
                else:
                    self.stats.seed_rejections += 1
            if not alive:
                continue
            target = self.load_pattern(record).graph
            for i in alive:
                self.stats.matcher_calls += 1
                matcher = SubgraphMatcher(graphs[i], target)
                if matcher.exists():
                    results[i].append(record)
                if registry.enabled:
                    registry.merge_counters("matcher", matcher.stats)
        self.publish_stats()
        return results

    def publish_stats(self, registry=None) -> None:
        """Mirror this query's cumulative stats into a telemetry registry.

        Defaults to the process-local registry (free when telemetry is off);
        the serving tier passes its own server registry so ``/metrics`` and
        ``/stats`` always reflect the latest :class:`IndexStats` and LRU
        snapshots (all three satisfy the ``Snapshottable`` shape).  Called
        after every batch containment pass.
        """
        if registry is None:
            registry = get_registry()
        if registry.enabled:
            registry.publish("catalog.index", self.stats)
            registry.publish("catalog.payload_cache", self._payload_cache)
            registry.publish("catalog.index_cache", self._index_cache)

    # ------------------------------------------------------------------ #
    # materialisation + the persisted pattern index
    # ------------------------------------------------------------------ #
    def load_pattern(self, record: PatternRecord) -> Pattern:
        """The full :class:`Pattern` (graph + embeddings) behind a record."""
        payload = self._payload_cache.get(record.run_id)
        if payload is None:
            payload = self.store.get_run_payload(record.run_id)
            self.stats.payload_loads += 1
            self._payload_cache.put(record.run_id, payload)
        return pattern_from_payload(payload["result"]["patterns"][record.index])

    def _index_entry(self, record: PatternRecord) -> PatternDomainEntry:
        return self._run_index(record.run_id)[record.index]

    def _run_index(self, run_id: str) -> List[PatternDomainEntry]:
        """The per-run pattern index: LRU → sidecar → rebuild (+ self-heal).

        A sidecar written by a different ``code_version`` is treated as
        absent — the invalidation contract shared with the run cache — and
        rebuilt from the run payload; unless ``read_only``, the rebuilt
        sidecar is persisted back (best-effort) so the next process is warm.
        """
        entries = self._index_cache.get(run_id)
        if entries is not None:
            return entries
        from .cache import code_version  # local: avoids import cycle at load

        version = code_version()
        payload = self.store.get_pattern_index(run_id)
        entries = (
            run_index_from_payload(payload, run_id, version)
            if payload is not None
            else None
        )
        if entries is not None:
            self.stats.index_loads += 1
        else:
            run_payload = self._payload_cache.get(run_id)
            if run_payload is None:
                run_payload = self.store.get_run_payload(run_id)
                self.stats.payload_loads += 1
                self._payload_cache.put(run_id, run_payload)
            sidecar = build_run_index(run_payload, run_id, version)
            entries = run_index_from_payload(sidecar, run_id, version)
            assert entries is not None  # freshly built with the current version
            self.stats.index_builds += 1
            if not self.read_only:
                try:
                    self.store.put_pattern_index(run_id, sidecar)
                except OSError:
                    pass  # serving beats self-healing on unwritable stores
        self._index_cache.put(run_id, entries)
        return entries
