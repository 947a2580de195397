"""``repro serve`` — an asyncio JSON/HTTP API over a read-only catalog.

The serving half of the catalog tier: mining stays batch, this server is the
read-mostly front end over a :class:`~repro.catalog.store.CatalogStore`.  It
is deliberately stdlib-only (``asyncio.start_server`` + a minimal HTTP/1.1
parser) so the Dockerfile ships nothing beyond the package itself.

Endpoints (all responses are canonical JSON — byte-identical to serialising
the :mod:`repro.api` facade's answers, which the server calls directly):

====================  ======================================================
``GET /``             endpoint table (this list)
``GET /healthz``      liveness + store summary
``GET /runs``         stored run summaries (per-pattern lists elided)
``GET /top-k``        ``?k=&by=&label=&run=`` → ranked pattern records
``GET /label``        ``?label=&run=`` → records containing a vertex label
``POST /contains``    body ``{"graph": {...}, "run": ...}`` → matching records
``POST /contains/batch``  body ``{"graphs": [{...}, ...]}`` → list of lists
====================  ======================================================

Needle graphs travel in the :func:`repro.graph.io.graph_to_dict` JSON shape
(``{"vertices": {id: label}, "edges": [[u, v], ...]}``) — the same format
``repro.api.save_graph`` writes.  Malformed needles answer 400, never a
connection drop.

Concurrency: request handlers are asyncio tasks, so readers are concurrent at
the connection level; containment work (the only CPU-bound route) runs in a
thread-pool executor, which is safe because the query layer's hot caches
(run payloads + pattern indexes, both :class:`~repro.catalog.lru.LRUCache`)
are thread-safe and the store itself is read-only from the server's point of
view (``repro.api.open_catalog(read_only=True)``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..graph.io import graph_from_dict
from ..graph.labeled_graph import GraphError
from ..obs import MetricsRegistry, get_logger, get_registry
from .formats import canonical_json
from .query import RANKINGS

__all__ = ["CatalogServer", "ServerHandle", "serve"]

#: Requests larger than this are refused (needle batches are metadata-sized).
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

ENDPOINTS = {
    "GET /": "this endpoint table",
    "GET /healthz": "liveness + store summary",
    "GET /metrics": "flat telemetry counter dump",
    "GET /stats": "registry snapshot + cache stats + uptime",
    "GET /runs": "stored run summaries",
    "GET /top-k": "ranked pattern records (?k=&by=&label=&run=)",
    "GET /label": "records containing a vertex label (?label=&run=)",
    "POST /contains": "records containing the needle graph in the body",
    "POST /contains/batch": "batch containment for many needles in one pass",
}

#: Endpoints excluded from their own request metrics: probing ``/metrics``
#: must not change what ``/metrics`` returns, so repeated (and concurrent)
#: scrapes of an otherwise-idle server are byte-identical.
_UNMETERED = frozenset({"/metrics", "/stats"})


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _decode_needle(data) -> object:
    """A needle graph from its wire dict; 400 on anything malformed."""
    if not isinstance(data, dict):
        raise _HTTPError(400, "needle must be a graph object with vertices/edges")
    try:
        return graph_from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError, GraphError) as error:
        raise _HTTPError(400, f"malformed needle graph: {error}") from error


class CatalogServer:
    """One asyncio HTTP server in front of one catalog handle."""

    def __init__(
        self,
        catalog,
        host: str = "127.0.0.1",
        port: int = 8080,
        default_top: int = 10,
        default_by: str = "vertices",
        default_label: Optional[str] = None,
        default_run: Optional[str] = None,
        access_log: bool = False,
    ) -> None:
        if default_by not in RANKINGS:
            raise ValueError(
                f"unknown ranking {default_by!r}; expected one of {RANKINGS}"
            )
        self.catalog = catalog
        self.host = host
        self.port = port
        self.default_top = default_top
        self.default_by = default_by
        self.default_label = default_label
        self.default_run = default_run
        self.access_log = access_log
        self.requests_served = 0
        # Serving always meters itself: reuse an enabled process registry
        # (so mine + serve telemetry land in one place), else own a private
        # one — /metrics and /stats are never empty by accident.
        process_registry = get_registry()
        self.metrics = process_registry if process_registry.enabled else MetricsRegistry()
        self._logger = get_logger("serve")
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        # Resolve the ephemeral port (port=0) to what the OS actually bound.
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        method, path = "-", "-"
        try:
            method, path, params, raw_body = await self._read_request(reader)
            status, body = await self._route(method, path, params, raw_body)
        except _HTTPError as error:
            status, body = error.status, canonical_json({"error": error.message})
        except Exception as error:  # never drop the connection without a reply
            status, body = 500, canonical_json({"error": f"internal error: {error}"})
            # A swallowed handler exception used to leave a bare 500 and no
            # trace anywhere; log it structured (endpoint, run id, traceback)
            # so saturated-server failures are diagnosable from the log.
            self._logger.error(
                "unhandled error on %s %s: %s",
                method,
                path,
                error,
                exc_info=error,
                extra={
                    "endpoint": path,
                    "method": method,
                    "run": self.default_run,
                },
            )
        payload = body.encode("ascii")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
        self.requests_served += 1
        self._record_request(method, path, status, time.monotonic() - started)

    def _record_request(
        self, method: str, path: str, status: int, duration: float
    ) -> None:
        """Per-endpoint request/error counters + latency histogram + access log."""
        if path not in _UNMETERED and path != "-":
            key = path.strip("/").replace("/", "_").replace("-", "_") or "root"
            self.metrics.counter("http.requests")
            self.metrics.counter(f"http.requests.{key}")
            if status >= 500:
                self.metrics.counter("http.errors")
                self.metrics.counter(f"http.errors.{key}")
            self.metrics.observe(f"http.latency_seconds.{key}", duration)
        if self.access_log:
            self._logger.info(
                "%s %s %d %.1fms",
                method,
                path,
                status,
                duration * 1000.0,
                extra={
                    "method": method,
                    "path": path,
                    "status": status,
                    "duration_ms": round(duration * 1000.0, 3),
                },
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        """Parse one request into (method, normalised path, params, body)."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HTTPError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HTTPError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HTTPError(400, f"malformed Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _HTTPError(400, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as error:
            raise _HTTPError(
                400, f"request body ended after {len(error.partial)} of {length} bytes"
            ) from None
        split = urlsplit(target)
        params = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path.rstrip("/") or "/", params, body

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, params: Dict[str, str], body: bytes
    ) -> Tuple[int, str]:
        if path == "/":
            self._require(method, "GET")
            return 200, canonical_json({"service": "repro-catalog", "endpoints": ENDPOINTS})
        if path == "/healthz":
            self._require(method, "GET")
            return 200, canonical_json(self._healthz())
        if path == "/metrics":
            self._require(method, "GET")
            self.catalog.query.publish_stats(self.metrics)
            return 200, canonical_json(self.metrics.flat())
        if path == "/stats":
            self._require(method, "GET")
            self.catalog.query.publish_stats(self.metrics)
            return 200, canonical_json(self._stats())
        if path == "/runs":
            self._require(method, "GET")
            return 200, canonical_json(self.catalog.runs(kind=params.get("kind")))
        if path == "/top-k":
            self._require(method, "GET")
            records = self.catalog.top_k(
                k=self._int_param(params, "k", self.default_top),
                by=self._by_param(params),
                label=params.get("label", self.default_label),
                run=params.get("run", self.default_run),
            )
            return 200, canonical_json([r.to_dict() for r in records])
        if path == "/label":
            self._require(method, "GET")
            label = params.get("label", self.default_label)
            if label is None:
                raise _HTTPError(400, "missing required parameter: label")
            records = self.catalog.with_label(
                label, run=params.get("run", self.default_run)
            )
            return 200, canonical_json([r.to_dict() for r in records])
        if path == "/contains":
            self._require(method, "POST")
            payload = self._json_body(body)
            needle = _decode_needle(payload.get("graph"))
            run = payload.get("run", self.default_run)
            records = await self._in_executor(
                lambda: self.catalog.contains(needle, run=run)
            )
            return 200, canonical_json([r.to_dict() for r in records])
        if path == "/contains/batch":
            self._require(method, "POST")
            payload = self._json_body(body)
            graphs = payload.get("graphs")
            if not isinstance(graphs, list):
                raise _HTTPError(400, "body must carry a 'graphs' list")
            needles = [_decode_needle(g) for g in graphs]
            run = payload.get("run", self.default_run)
            grouped = await self._in_executor(
                lambda: self.catalog.contains_batch(needles, run=run)
            )
            return 200, canonical_json(
                [[r.to_dict() for r in records] for records in grouped]
            )
        raise _HTTPError(404, f"no such endpoint: {path}")

    def _healthz(self) -> Dict:
        from .cache import code_version

        return {
            "status": "ok",
            "store": str(self.catalog.store.root),
            "code_version": code_version(),
            "num_runs": len(self.catalog.runs()),
            "requests_served": self.requests_served,
        }

    def _stats(self) -> Dict:
        """The ``/stats`` body: full registry snapshot + caches + uptime."""
        query = self.catalog.query
        return {
            "metrics": self.metrics.snapshot(),
            "caches": {
                "payload": query._payload_cache.to_dict(),
                "index": query._index_cache.to_dict(),
            },
            "index_stats": query.stats.to_dict(),
            "requests_served": self.requests_served,
            "uptime_seconds": int(time.monotonic() - self._started_at),
        }

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"use {expected} for this endpoint")

    @staticmethod
    def _json_body(body: bytes) -> Dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HTTPError(400, f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _int_param(params: Dict[str, str], name: str, default: int) -> int:
        raw = params.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as error:
            raise _HTTPError(400, f"parameter {name!r} must be an integer") from error
        if value < 0:
            raise _HTTPError(400, f"parameter {name!r} must be non-negative")
        return value

    def _by_param(self, params: Dict[str, str]) -> str:
        by = params.get("by", self.default_by)
        if by not in RANKINGS:
            raise _HTTPError(
                400, f"unknown ranking {by!r}; expected one of {list(RANKINGS)}"
            )
        return by

    async def _in_executor(self, fn):
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn)


class ServerHandle:
    """A background server: its bound address plus a way to stop it."""

    def __init__(self, host: str, port: int, thread, loop, stop_event) -> None:
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self._stop_event = stop_event

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    catalog,
    host: str = "127.0.0.1",
    port: int = 8080,
    background: bool = False,
    **defaults,
) -> Optional[ServerHandle]:
    """Serve ``catalog`` over HTTP.

    Foreground (the CLI's mode) blocks until interrupted.  ``background=True``
    runs the event loop in a daemon thread and returns a
    :class:`ServerHandle` once the socket is bound — pass ``port=0`` for an
    ephemeral port (tests, benchmarks) and read ``handle.port``.
    """
    if not background:
        async def _run() -> None:
            server = CatalogServer(catalog, host, port, **defaults)
            await server.start()
            print(f"serving catalog at {server.url} (Ctrl-C to stop)", flush=True)
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.aclose()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        return None

    started: "concurrent.futures.Future" = concurrent.futures.Future()

    def _thread_main() -> None:
        async def _amain() -> None:
            stop_event = asyncio.Event()
            server = CatalogServer(catalog, host, port, **defaults)
            try:
                await server.start()
            except BaseException as error:  # surface bind failures to the caller
                started.set_exception(error)
                return
            started.set_result(
                (server.host, server.port, asyncio.get_running_loop(), stop_event)
            )
            try:
                await stop_event.wait()
            finally:
                await server.aclose()

        asyncio.run(_amain())

    thread = threading.Thread(target=_thread_main, name="repro-serve", daemon=True)
    thread.start()
    bound_host, bound_port, loop, stop_event = started.result(timeout=30)
    return ServerHandle(bound_host, bound_port, thread, loop, stop_event)
