"""End-to-end smoke of the HTTP serving tier (repro.catalog.server)."""

from __future__ import annotations

import contextlib
import json
import logging
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import open_catalog
from repro.catalog import canonical_json
from repro.catalog import server as server_module
from repro.graph import LabeledGraph, synthetic_single_graph
from repro.graph.io import graph_to_dict
from repro.obs import get_logger


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read()


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, resp.read()


def _raw(handle, request: bytes) -> bytes:
    """Send raw request bytes, half-close, and read the whole reply."""
    with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return _read_all(sock)


def _read_all(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _stalled_request(handle):
    """A connection that declared a 64-byte body, sent 2 bytes and stalls."""
    sock = socket.create_connection((handle.host, handle.port), timeout=10)
    sock.sendall(b"POST /contains HTTP/1.1\r\nHost: test\r\nContent-Length: 64\r\n\r\n{}")
    return sock


@contextlib.contextmanager
def _error_records():
    """ERROR records of the serve logger and of asyncio (handler tracebacks)."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    handler.setLevel(logging.ERROR)
    loggers = [get_logger("serve"), logging.getLogger("asyncio")]
    for logger in loggers:
        logger.addHandler(handler)
    try:
        yield records
    finally:
        for logger in loggers:
            logger.removeHandler(handler)


@pytest.fixture(scope="module")
def served_catalog(tmp_path_factory):
    """A mined catalog plus a live background server on an ephemeral port."""
    store = tmp_path_factory.mktemp("served") / "cat"
    graph = synthetic_single_graph(
        num_vertices=150, num_labels=20, average_degree=2.0,
        num_large_patterns=1, large_pattern_vertices=9, large_pattern_support=2,
        num_small_patterns=2, small_pattern_vertices=3, small_pattern_support=2,
        seed=11,
    ).graph
    repro.mine(graph, min_support=2, k=4, d_max=6, catalog=store)
    catalog = open_catalog(store, read_only=True)
    handle = catalog.serve(port=0, background=True)
    yield catalog, handle
    handle.close()


@pytest.fixture(scope="module")
def needle(served_catalog):
    """A 3-vertex connected subgraph of the best stored pattern."""
    catalog, _ = served_catalog
    best = catalog.load_pattern(catalog.top_k(k=1)[0]).graph
    start = next(iter(best.vertices()))
    keep = {start}
    frontier = [start]
    while frontier and len(keep) < 3:
        for n in best.neighbors(frontier.pop()):
            if len(keep) < 3 and n not in keep:
                keep.add(n)
                frontier.append(n)
    sub = LabeledGraph()
    for v in keep:
        sub.add_vertex(v, best.label(v))
    for u, v in best.edges():
        if u in keep and v in keep:
            sub.add_edge(u, v)
    return sub


class TestEndpoints:
    def test_root_lists_endpoints(self, served_catalog):
        _, handle = served_catalog
        status, body = _get(handle.url + "/")
        assert status == 200
        endpoints = json.loads(body)["endpoints"]
        assert "POST /contains/batch" in endpoints
        assert "GET /top-k" in endpoints

    def test_healthz(self, served_catalog):
        catalog, handle = served_catalog
        status, body = _get(handle.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["code_version"] == repro.__version__
        assert payload["num_runs"] == len(catalog.runs())

    def test_runs_matches_facade(self, served_catalog):
        catalog, handle = served_catalog
        status, body = _get(handle.url + "/runs?kind=result")
        assert status == 200
        assert body.decode() == canonical_json(catalog.runs(kind="result"))

    def test_top_k_bytes_equal_facade(self, served_catalog):
        catalog, handle = served_catalog
        status, body = _get(handle.url + "/top-k?k=3&by=edges")
        assert status == 200
        expect = canonical_json([r.to_dict() for r in catalog.top_k(k=3, by="edges")])
        assert body.decode() == expect

    def test_label_bytes_equal_facade(self, served_catalog):
        catalog, handle = served_catalog
        label = catalog.top_k(k=1)[0].labels[0]
        status, body = _get(handle.url + f"/label?label={label}")
        assert status == 200
        expect = canonical_json([r.to_dict() for r in catalog.with_label(label)])
        assert body.decode() == expect
        assert json.loads(body)  # the label exists, so matches are non-empty

    def test_contains_bytes_equal_facade(self, served_catalog, needle):
        catalog, handle = served_catalog
        status, body = _post(
            handle.url + "/contains", {"graph": graph_to_dict(needle)}
        )
        assert status == 200
        expect = canonical_json([r.to_dict() for r in catalog.contains(needle)])
        assert body.decode() == expect
        assert json.loads(body)  # a subgraph of a stored pattern must hit

    def test_contains_batch_bytes_equal_facade(self, served_catalog, needle):
        catalog, handle = served_catalog
        empty = LabeledGraph()
        empty.add_vertex(0, "no-such-label")
        payload = {"graphs": [graph_to_dict(needle), graph_to_dict(empty)]}
        status, body = _post(handle.url + "/contains/batch", payload)
        assert status == 200
        expect = canonical_json(
            [[r.to_dict() for r in grp] for grp in catalog.contains_batch([needle, empty])]
        )
        assert body.decode() == expect


class TestErrors:
    def _expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return json.loads(excinfo.value.read())

    def test_malformed_needle_is_400(self, served_catalog):
        _, handle = served_catalog
        error = self._expect_error(
            lambda: _post(handle.url + "/contains", {"graph": {"bogus": 1}}), 400
        )
        assert "malformed needle" in error["error"]

    def test_non_json_body_is_400(self, served_catalog):
        _, handle = served_catalog

        def go():
            request = urllib.request.Request(
                handle.url + "/contains", data=b"not json", method="POST"
            )
            urllib.request.urlopen(request, timeout=10)

        error = self._expect_error(go, 400)
        assert "not valid JSON" in error["error"]

    def test_batch_without_graphs_list_is_400(self, served_catalog):
        _, handle = served_catalog
        self._expect_error(
            lambda: _post(handle.url + "/contains/batch", {"graphs": "nope"}), 400
        )

    def test_bad_ranking_is_400(self, served_catalog):
        _, handle = served_catalog
        self._expect_error(lambda: _get(handle.url + "/top-k?by=colour"), 400)

    def test_unknown_endpoint_is_404(self, served_catalog):
        _, handle = served_catalog
        self._expect_error(lambda: _get(handle.url + "/nope"), 404)

    def test_wrong_method_is_405(self, served_catalog):
        _, handle = served_catalog
        self._expect_error(lambda: _get(handle.url + "/contains"), 405)

    @pytest.mark.parametrize(
        "length, body",
        [("abc", b"{}"), ("-5", b"{}"), ("64", b'{"graph": {}}')],
        ids=["not-a-number", "negative", "body-shorter-than-declared"],
    )
    def test_malformed_content_length_is_400_and_not_logged(
        self, served_catalog, length, body
    ):
        _, handle = served_catalog
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = get_logger("serve")
        logger.addHandler(handler)
        try:
            reply = _raw(
                handle,
                b"POST /contains HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n" + body,
            )
        finally:
            logger.removeHandler(handler)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert json.loads(payload)["error"]
        assert not [r for r in records if r.levelno >= logging.ERROR]

    def test_stalled_body_is_408_and_close_logs_nothing(self, served_catalog, monkeypatch):
        """A client that declares 64 body bytes, sends 2 and stalls gets a 408."""
        catalog, _ = served_catalog
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.2)
        with _error_records() as records:
            with catalog.serve(port=0, background=True) as handle:
                with _stalled_request(handle) as sock:
                    reply = _read_all(sock)
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), head
        assert "not received" in json.loads(payload)["error"]
        assert not records

    def test_close_with_a_stalled_request_in_flight_logs_nothing(self, served_catalog):
        catalog, _ = served_catalog
        with _error_records() as records:
            handle = catalog.serve(port=0, background=True)
            with _stalled_request(handle):
                time.sleep(0.2)  # let the handler start its read
                handle.close()
        assert not records


class TestConcurrency:
    def test_concurrent_batch_requests_agree(self, served_catalog, needle):
        catalog, handle = served_catalog
        expect = canonical_json(
            [[r.to_dict() for r in grp] for grp in catalog.contains_batch([needle])]
        )
        payload = {"graphs": [graph_to_dict(needle)]}

        def one(_):
            return _post(handle.url + "/contains/batch", payload)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(one, range(16)))
        assert all(status == 200 for status, _ in outcomes)
        assert all(body.decode() == expect for _, body in outcomes)
