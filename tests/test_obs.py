"""Unit tests for the ``repro.obs`` telemetry layer.

Covers the registry (counters/gauges/histogram bucketing, Snapshottable
bridging), the span tree (nesting, synthetic records, worker-tree merge,
serialisation round-trip), the structured JSON log writer, the unified
``to_dict()`` shape across every stats object, the telemetry sidecar's
catalog round-trip (write → read back → gc), and the serving tier's
``/metrics`` / ``/stats`` endpoints plus the structured-500 bugfix.
"""

from __future__ import annotations

import json
import logging
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from io import StringIO

import pytest

import repro
from repro import open_catalog
from repro.catalog.server import CatalogServer
from repro.catalog.store import CatalogStore
from repro.graph import synthetic_single_graph
from repro.obs import (
    DEFAULT_BUCKETS,
    TRACE,
    Histogram,
    IndexStats,
    LRUCache,
    MatcherStats,
    MetricsRegistry,
    MiningStatistics,
    NullRegistry,
    NullTracer,
    Snapshottable,
    Span,
    Tracer,
    configure_logging,
    get_logger,
    get_registry,
    get_tracer,
    use_registry,
    use_tracer,
)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read()


# ---------------------------------------------------------------------- #
# histograms
# ---------------------------------------------------------------------- #
class TestHistogram:
    def test_boundary_values_land_in_their_bucket(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        h.observe(0.1)   # == first bound -> bucket 0 (bounds are inclusive)
        h.observe(0.05)  # below first bound -> bucket 0
        h.observe(0.2)   # between bounds -> bucket 1
        h.observe(1.0)   # == second bound -> bucket 1
        assert h.counts == [2, 2, 0, 0]

    def test_overflow_bucket_catches_values_above_last_bound(self):
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(999.0)
        assert h.counts == [0, 0, 1]
        assert h.count == 1
        assert h.total == 999.0

    def test_counts_has_one_more_slot_than_bounds(self):
        h = Histogram()
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1

    def test_sum_and_count_accumulate(self):
        h = Histogram(buckets=(1.0,))
        for v in (0.25, 0.5, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(3.75)
        d = h.to_dict()
        assert d["count"] == 3 and d["sum"] == pytest.approx(3.75)
        assert d["buckets"] == [1.0] and d["counts"] == [2, 1]

    def test_unsorted_or_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram(buckets=())


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_accumulate(self):
        r = MetricsRegistry()
        r.counter("a")
        r.counter("a", 4)
        assert r.flat()["a"] == 5

    def test_gauges_last_write_wins(self):
        r = MetricsRegistry()
        r.gauge("g", 1)
        r.gauge("g", 7)
        assert r.flat()["g"] == 7

    def test_histograms_export_count_and_sum_in_flat(self):
        r = MetricsRegistry()
        r.observe("lat", 0.2)
        r.observe("lat", 0.3)
        flat = r.flat()
        assert flat["lat.count"] == 2
        assert flat["lat.sum"] == pytest.approx(0.5)
        assert "lat" not in flat  # bucket vectors live in snapshot(), not flat()
        assert r.snapshot()["histograms"]["lat"]["count"] == 2

    def test_snapshot_is_sorted_and_deterministic(self):
        r = MetricsRegistry()
        for name in ("z", "a", "m"):
            r.counter(name)
        assert list(r.snapshot()["counters"]) == ["a", "m", "z"]
        assert json.dumps(r.flat()) == json.dumps(r.flat())

    def test_publish_flattens_nested_and_skips_non_numeric(self):
        class Stats:
            def to_dict(self):
                return {"hits": 3, "nested": {"misses": 2}, "name": "x", "ok": True}

        r = MetricsRegistry()
        r.publish("cache", Stats())
        r.publish("cache", Stats())  # re-publish overwrites, not doubles
        flat = r.flat()
        assert flat["cache.hits"] == 3
        assert flat["cache.nested.misses"] == 2
        assert "cache.name" not in flat
        assert "cache.ok" not in flat  # bools are not metrics

    def test_merge_counters_accumulates_across_instances(self):
        r = MetricsRegistry()
        r.merge_counters("matcher", MatcherStats(candidate_tests=5))
        r.merge_counters("matcher", MatcherStats(candidate_tests=2))
        assert r.flat()["matcher.candidate_tests"] == 7

    def test_null_registry_is_inert(self):
        r = NullRegistry()
        r.counter("a")
        r.gauge("g", 1)
        r.observe("h", 0.5)
        r.publish("p", MatcherStats())
        assert r.enabled is False
        assert r.flat() == {}
        assert r.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_default_registry_is_null_and_use_registry_restores(self):
        assert get_registry().enabled is False
        live = MetricsRegistry()
        with use_registry(live):
            assert get_registry() is live
        assert get_registry().enabled is False


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", unit=3):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        (inner,) = roots[0].children
        assert inner.name == "inner" and inner.attrs == {"unit": 3}
        assert roots[0].duration >= inner.duration >= 0.0

    def test_record_emits_synthetic_child(self):
        tracer = Tracer()
        with tracer.span("stage"):
            tracer.record("stage.unit", 0.25, unit=1)
        (root,) = tracer.roots()
        (child,) = root.children
        assert child.duration == 0.25 and child.attrs == {"unit": 1}

    def test_attach_grafts_worker_tree(self):
        tracer = Tracer()
        worker_tree = Span("mine.stage1.unit", attrs={"unit": 2}, duration=0.5)
        with tracer.span("mine.stage1"):
            tracer.attach(worker_tree)
        (root,) = tracer.roots()
        assert root.children == [worker_tree]

    def test_self_time_and_child_total(self):
        root = Span("r", duration=1.0, children=[Span("a", duration=0.3), Span("b", duration=0.4)])
        assert root.child_total() == pytest.approx(0.7)
        assert root.self_time() == pytest.approx(0.3)
        assert Span("under", duration=0.1, children=[Span("a", duration=0.5)]).self_time() == 0.0

    def test_to_dict_round_trip(self):
        root = Span("r", attrs={"k": 1}, duration=2.0, children=[Span("c", duration=1.0)])
        payload = root.to_dict()
        assert Span.from_dict(payload) == root
        bare = Span("empty").to_dict()
        assert "attrs" not in bare and "children" not in bare

    def test_annotate_on_open_span(self):
        tracer = Tracer()
        with tracer.span("s") as node:
            node.annotate(seeds=4)
        assert tracer.roots()[0].attrs == {"seeds": 4}

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("x") as node:
            node.annotate(a=1)  # no-op, no error
        assert tracer.roots() == []
        assert tracer.to_dict() == {"spans": []}

    def test_default_tracer_is_null_and_use_tracer_restores(self):
        assert get_tracer().enabled is False
        with use_tracer(Tracer()) as tracer:
            assert get_tracer() is tracer and tracer.enabled
        assert get_tracer().enabled is False

    def test_iter_spans_is_depth_first(self):
        root = Span("r", children=[Span("a", children=[Span("b")]), Span("c")])
        assert [s.name for s in root.iter_spans()] == ["r", "a", "b", "c"]


# ---------------------------------------------------------------------- #
# structured logging
# ---------------------------------------------------------------------- #
class TestLogging:
    def test_json_lines_carry_extras(self):
        stream = StringIO()
        logger = configure_logging(json_lines=True, stream=stream)
        try:
            get_logger("serve").info("hello %s", "world", extra={"endpoint": "/stats"})
        finally:
            configure_logging(stream=StringIO())  # detach the test stream
        record = json.loads(stream.getvalue().strip())
        assert record["msg"] == "hello world"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.serve"
        assert record["endpoint"] == "/stats"
        assert "ts" in record

    def test_trace_level_spans_are_logged_when_enabled(self):
        stream = StringIO()
        configure_logging(json_lines=True, trace=True, stream=stream)
        try:
            tracer = Tracer()
            with tracer.span("mine.stage1"):
                pass
        finally:
            configure_logging(stream=StringIO())
        record = json.loads(stream.getvalue().strip())
        assert record["level"] == "TRACE"
        assert record["span"] == "mine.stage1"
        assert logging.getLevelName(TRACE) == "TRACE"

    def test_exceptions_serialise_a_traceback(self):
        stream = StringIO()
        configure_logging(json_lines=True, stream=stream)
        try:
            try:
                raise RuntimeError("kaboom")
            except RuntimeError as error:
                get_logger("serve").error("failed", exc_info=error)
        finally:
            configure_logging(stream=StringIO())
        record = json.loads(stream.getvalue().strip())
        assert "RuntimeError: kaboom" in record["traceback"]

    def test_reconfiguring_does_not_stack_handlers(self):
        logger = configure_logging(stream=StringIO())
        configure_logging(stream=StringIO())
        ours = [h for h in logger.handlers if getattr(h, "_repro_obs", False)]
        assert len(ours) == 1


# ---------------------------------------------------------------------- #
# the unified Snapshottable shape
# ---------------------------------------------------------------------- #
class TestSnapshottableUnification:
    @pytest.mark.parametrize(
        "stats",
        [MatcherStats(), IndexStats(), MiningStatistics(), LRUCache(max_entries=2)],
        ids=["matcher", "index", "mining", "lru"],
    )
    def test_every_stats_object_satisfies_the_protocol(self, stats):
        assert isinstance(stats, Snapshottable)
        dumped = stats.to_dict()
        assert isinstance(dumped, dict) and dumped
        assert all(isinstance(v, (int, float, dict)) for v in dumped.values())

    def test_lru_to_dict_is_its_stats(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.to_dict() == cache.stats()
        assert cache.to_dict()["hits"] == 1
        assert cache.to_dict()["misses"] == 1

    def test_run_cache_stats_shape(self, tmp_path):
        from repro.catalog.cache import RunCache

        cache = RunCache(CatalogStore(tmp_path / "c"))
        assert cache.to_dict() == {"hits": 0, "misses": 0, "inserts": 0}


# ---------------------------------------------------------------------- #
# sidecars + serving (share one small mined catalog)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def obs_store(tmp_path_factory):
    """A catalog mined WITH telemetry enabled, so a sidecar exists."""
    store = tmp_path_factory.mktemp("obs") / "cat"
    graph = synthetic_single_graph(
        num_vertices=120, num_labels=30, average_degree=2.0,
        num_large_patterns=1, large_pattern_vertices=8, large_pattern_support=2,
        num_small_patterns=2, small_pattern_vertices=3, small_pattern_support=2,
        seed=13, max_pattern_diameter=6,
    ).graph
    with use_registry(MetricsRegistry()), use_tracer(Tracer()):
        repro.mine(graph, min_support=2, k=3, d_max=5, catalog=store)
    return store


class TestTelemetrySidecar:
    def test_sidecar_written_and_round_trips(self, obs_store):
        store = CatalogStore(obs_store)
        (run,) = store.list_runs(kind="result")
        run_id = run["run_id"]
        assert store.has_telemetry(run_id)
        payload = store.get_telemetry(run_id)
        assert payload["kind"] == "telemetry"
        assert payload["run_id"] == run_id
        assert payload["metrics"]["counters"]["mine.runs"] == 1
        assert [s["name"] for s in payload["spans"]] == [
            "mine.stage1", "mine.stage2", "mine.stage3", "mine.report",
        ]
        assert payload["statistics"]["num_spiders"] > 0

    def test_gc_drops_orphan_sidecars_only(self, obs_store):
        store = CatalogStore(obs_store)
        (run,) = store.list_runs(kind="result")
        orphan = store.telemetry_dir / "deadbeef.json"
        orphan.write_text("{}", encoding="utf-8")
        removed = store.gc()
        assert removed["telemetry"] == 1
        assert not orphan.exists()
        assert store.has_telemetry(run["run_id"])  # live sidecar retained

    def test_no_sidecar_when_telemetry_off(self, tmp_path):
        graph = synthetic_single_graph(
            num_vertices=80, num_labels=25, average_degree=2.0,
            num_large_patterns=1, large_pattern_vertices=6, large_pattern_support=2,
            num_small_patterns=1, small_pattern_vertices=3, small_pattern_support=2,
            seed=3, max_pattern_diameter=6,
        ).graph
        store_path = tmp_path / "cold"
        repro.mine(graph, min_support=2, k=3, d_max=4, catalog=store_path)
        store = CatalogStore(store_path)
        assert not list(store.telemetry_dir.glob("*.json"))


@pytest.fixture(scope="module")
def obs_server(obs_store):
    catalog = open_catalog(obs_store, read_only=True)
    handle = catalog.serve(port=0, background=True)
    yield handle
    handle.close()


class TestServerObservability:
    def test_metrics_endpoint_is_byte_stable_under_concurrency(self, obs_server):
        # /metrics must not meter itself, or concurrent readers would each
        # see a different body.
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: _get(obs_server.url + "/metrics"), range(16)
            ))
        bodies = {body for _, body in results}
        assert all(status == 200 for status, _ in results)
        assert len(bodies) == 1

    def test_stats_endpoint_shape(self, obs_server):
        status, body = _get(obs_server.url + "/stats")
        assert status == 200
        stats = json.loads(body)
        assert set(stats) == {
            "metrics", "caches", "index_stats", "requests_served", "uptime_seconds",
        }
        assert set(stats["metrics"]) == {"counters", "gauges", "histograms"}
        assert set(stats["caches"]) == {"payload", "index"}
        assert "matcher_calls" in stats["index_stats"]

    def test_requests_are_counted_per_endpoint(self, obs_server):
        _get(obs_server.url + "/healthz")
        status, body = _get(obs_server.url + "/metrics")
        flat = json.loads(body)
        assert flat["http.requests.healthz"] >= 1
        assert flat["http.requests"] >= flat["http.requests.healthz"]
        assert flat["http.latency_seconds.healthz.count"] >= 1

    def test_unhandled_errors_are_logged_and_counted(self, obs_store, monkeypatch):
        original = CatalogServer._route

        async def exploding(self, method, path, params, body):
            if path == "/boom":
                raise RuntimeError("kaboom")
            return await original(self, method, path, params, body)

        monkeypatch.setattr(CatalogServer, "_route", exploding)

        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = get_logger("serve")
        logger.addHandler(handler)
        catalog = open_catalog(obs_store, read_only=True)
        handle = catalog.serve(port=0, background=True)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(handle.url + "/boom")
            assert err.value.code == 500
            assert json.loads(err.value.read())["error"] == "internal error: kaboom"
            status, body = _get(handle.url + "/metrics")
            flat = json.loads(body)
            assert flat["http.errors"] == 1
            assert flat["http.errors.boom"] == 1
        finally:
            handle.close()
            logger.removeHandler(handler)
        (record,) = [r for r in records if r.levelno >= logging.ERROR]
        assert record.endpoint == "/boom"
        assert record.exc_info[0] is RuntimeError

    def test_access_log_is_opt_in(self, obs_store):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = get_logger("serve")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        catalog = open_catalog(obs_store, read_only=True)
        try:
            with catalog.serve(port=0, background=True) as handle:
                _get(handle.url + "/healthz")
            assert not [r for r in records if r.levelno == logging.INFO]
            with catalog.serve(port=0, background=True, access_log=True) as handle:
                _get(handle.url + "/healthz")
            lines = [
                r.getMessage() for r in records if r.levelno == logging.INFO
            ]
            assert any(line.startswith("GET /healthz 200") for line in lines)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
