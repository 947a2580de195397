"""The ``repro serve`` subprocess and the request stream it is driven with."""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import time
from typing import List, Optional, Tuple
from urllib.parse import quote

from workloads import BATCH_NEEDLES, ROUTE_MIX

Request = Tuple[str, str, bytes]  # method, path, body


class Server:
    """``python -m repro serve STORE --port 0`` as a child process."""

    def __init__(self, store, src_dir, cpus=None, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store), "--port", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=env,
        )
        try:
            if cpus:
                os.sched_setaffinity(self.proc.pid, cpus)
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            deadline = time.monotonic() + timeout
            while self.get("/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, body: bytes = b"",
                timeout: float = 10.0) -> Tuple[int, bytes]:
        """One request on a fresh connection (the server closes every one);
        ``(0, b"")`` on a connection error, timeout or truncated reply."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        try:
            with socket.create_connection((self.host, self.port), timeout) as conn:
                conn.sendall(head.encode("latin-1") + body)
                chunks = []
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return 0, b""
        header, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        length = next((int(line.split(b":", 1)[1]) for line in lines[1:]
                       if line.lower().startswith(b"content-length:")), -1)
        if len(lines[0].split(b" ")) < 2 or length != len(payload):
            return 0, b""
        return int(lines[0].split(b" ")[1]), payload

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.request("GET", path)

    def json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _needle(pattern_graph, size: int, rng: random.Random):
    """A connected ``size``-vertex piece of a stored pattern (BFS from a random vertex)."""
    from repro.graph.labeled_graph import LabeledGraph

    start = rng.choice(sorted(pattern_graph.vertices(), key=repr))
    keep, frontier = [start], [start]
    while frontier and len(keep) < size:
        for n in sorted(pattern_graph.neighbors(frontier.pop(0)), key=repr):
            if len(keep) < size and n not in keep:
                keep.append(n)
                frontier.append(n)
    piece = LabeledGraph()
    for v in keep:
        piece.add_vertex(v, pattern_graph.label(v))
    for u, v in pattern_graph.edges():
        if u in keep and v in keep:
            piece.add_edge(u, v)
    return piece


def request_pool(catalog, rng: random.Random, size: int) -> Tuple[List[Request], List[bytes]]:
    """About ``size`` seeded requests over the stored catalog, in the
    :data:`ROUTE_MIX` proportions, and the bytes each must answer:
    ``canonical_json`` of the facade's own answer."""
    from repro.catalog.formats import canonical_json
    from repro.catalog.query import RANKINGS
    from repro.graph.io import graph_from_dict, graph_to_dict
    from repro.graph.labeled_graph import LabeledGraph

    records = catalog.top_k(k=10 ** 9)
    labels = sorted({label for r in records for label in r.labels}, key=str)
    needles_made = [0]

    def needle() -> dict:
        record = rng.choice(records)
        piece = _needle(catalog.load_pattern(record).graph, rng.randint(2, 5), rng)
        needles_made[0] += 1
        if needles_made[0] % 4 == 0:  # every 4th needle is a guaranteed miss
            miss = LabeledGraph()
            for v in piece.vertices():
                miss.add_vertex(v, "no-such-label")
            for u, v in piece.edges():
                miss.add_edge(u, v)
            piece = miss
        return graph_to_dict(piece)

    def encode(answer) -> bytes:
        return canonical_json(answer).encode("ascii")

    # Exact route proportions, shuffled by the seed: the mix never varies.
    routes = [route for route, weight in ROUTE_MIX for _ in range(size * weight // 100)]
    rng.shuffle(routes)
    requests: List[Request] = []
    expected: List[bytes] = []
    for route in routes:
        if route == "top-k":
            k, by = rng.choice((1, 3, 5, 10, 20)), rng.choice(RANKINGS)
            label: Optional[str] = rng.choice(labels) if rng.random() < 0.5 else None
            path = f"/top-k?k={k}&by={by}" + (f"&label={quote(label)}" if label else "")
            requests.append(("GET", path, b""))
            answer = catalog.top_k(k=k, by=by, label=label)
            expected.append(encode([r.to_dict() for r in answer]))
        elif route == "label":
            label = rng.choice(labels)
            requests.append(("GET", f"/label?label={quote(label)}", b""))
            expected.append(encode([r.to_dict() for r in catalog.with_label(label)]))
        elif route == "contains":
            graph = needle()
            requests.append(("POST", "/contains", json.dumps({"graph": graph}).encode()))
            answer = catalog.contains(graph_from_dict(graph))
            expected.append(encode([r.to_dict() for r in answer]))
        else:
            graphs = [needle() for _ in range(BATCH_NEEDLES)]
            requests.append(("POST", "/contains/batch",
                             json.dumps({"graphs": graphs}).encode()))
            answer = catalog.contains_batch([graph_from_dict(g) for g in graphs])
            expected.append(encode([[r.to_dict() for r in group] for group in answer]))
    return requests, expected
