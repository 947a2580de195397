"""Correctness of a mining result, checked without the program's own helpers.

:func:`problems` re-verifies every reported pattern against the data graph;
:func:`code_digest` fingerprints a result by pattern *shape* only (sizes plus
a Weisfeiler-Lehman colour hash), so renumbering pattern vertices or changing
the program's canonical-code format leaves it unchanged.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, List


def _adjacency(graph) -> Dict[object, set]:
    adj: Dict[object, set] = {v: set() for v in graph.vertices()}
    for u, v in graph.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def diameter(graph) -> float:
    """Longest shortest path; ``inf`` when the graph is disconnected."""
    adj = _adjacency(graph)
    best = 0
    for source in adj:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < len(adj):
            return float("inf")
        best = max(best, max(dist.values()))
    return best


def wl_hash(graph, rounds: int = 4) -> str:
    """Isomorphism-invariant colour-refinement hash of a labeled graph."""
    adj = _adjacency(graph)
    colours = {v: str(graph.label(v)) for v in adj}
    history = []
    for _ in range(rounds):
        colours = {
            v: hashlib.sha1(
                (colours[v] + "|" + ",".join(sorted(colours[w] for w in adj[v]))).encode()
            ).hexdigest()[:16]
            for v in adj
        }
        history.append(",".join(sorted(colours.values())))
    return hashlib.sha1(";".join(history).encode()).hexdigest()[:16]


def isomorphic(first, second) -> bool:
    """Plain backtracking isomorphism test (only run on hash collisions)."""
    a, b = _adjacency(first), _adjacency(second)
    if len(a) != len(b) or sum(map(len, a.values())) != sum(map(len, b.values())):
        return False
    order = sorted(a, key=lambda v: -len(a[v]))
    mapping: Dict[object, object] = {}
    used: set = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in b:
            if w in used or first.label(v) != second.label(w) or len(a[v]) != len(b[w]):
                continue
            if all((mapping[x] in b[w]) == (x in a[v]) for x in mapping):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)


def problems(data_graph, patterns, min_support: int, k: int, d_max: int) -> List[str]:
    """Every violated guarantee of a top-K result (empty when correct)."""
    found: List[str] = []
    if len(patterns) > k:
        found.append(f"{len(patterns)} patterns reported, K={k}")
    sizes = [(p.graph.num_vertices, p.graph.num_edges) for p in patterns]
    if sizes != sorted(sizes, reverse=True):
        found.append("patterns not ordered by (|V|, |E|) descending")
    seen: Dict[tuple, list] = {}
    for index, pattern in enumerate(patterns):
        graph = pattern.graph
        vertices = set(graph.vertices())
        edges = list(graph.edges())
        distinct = set()
        for embedding in pattern.embeddings:
            mapping = dict(embedding.mapping)
            if set(mapping) != vertices:
                found.append(f"pattern {index}: embedding does not cover the pattern")
            elif len(set(mapping.values())) != len(mapping):
                found.append(f"pattern {index}: embedding not injective")
            elif any(graph.label(v) != data_graph.label(mapping[v]) for v in mapping):
                found.append(f"pattern {index}: embedding not label-preserving")
            elif any(not data_graph.has_edge(mapping[u], mapping[v]) for u, v in edges):
                found.append(f"pattern {index}: embedding not edge-preserving")
            distinct.add(embedding.mapping)
        if len(distinct) < min_support:
            found.append(f"pattern {index}: {len(distinct)} embeddings < {min_support}")
        if diameter(graph) > d_max:
            found.append(f"pattern {index}: diameter above {d_max}")
        key = (graph.num_vertices, graph.num_edges, wl_hash(graph))
        if any(isomorphic(graph, other) for other in seen.get(key, ())):
            found.append(f"pattern {index}: repeats an earlier pattern")
        seen.setdefault(key, []).append(graph)
    return found


def code_digest(results) -> str:
    """Shape-level digest of a list of results (order of graphs preserved)."""
    body = ";".join(
        ",".join(
            f"{p.graph.num_vertices}/{p.graph.num_edges}/{wl_hash(p.graph)}"
            for p in result.patterns
        )
        for result in results
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]
