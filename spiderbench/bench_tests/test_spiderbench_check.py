"""The independent result check catches broken results; the digest ignores ids."""

from __future__ import annotations

from dataclasses import replace

import check
from repro.core import SpiderMine, SpiderMineConfig
from repro.datasets import scalability_series
from repro.patterns.embedding import Embedding

CONFIG = dict(min_support=2, k=5, d_max=6)


def _mined():
    graph = scalability_series([60], average_degree=3.0, num_labels=30, num_large=2,
                               large_vertices=8, seed=3)[0].graph.freeze()
    result = SpiderMine(graph, SpiderMineConfig(seed=0, **CONFIG)).mine()
    assert result.patterns
    return graph, result


def test_correct_result_passes():
    graph, result = _mined()
    assert check.problems(graph, result.patterns, **CONFIG) == []


def test_broken_embedding_is_reported():
    graph, result = _mined()
    pattern = result.patterns[0]
    mapping = dict(pattern.embeddings[0].mapping)
    first, second = list(mapping)[:2]
    mapping[first], mapping[second] = mapping[second], mapping[first]
    broken = replace(pattern, embeddings=[Embedding.from_dict(mapping)]
                     + list(pattern.embeddings[1:]))
    found = check.problems(graph, [broken] + result.patterns[1:], **CONFIG)
    assert found and "pattern 0" in found[0]


def test_too_many_unordered_or_repeated_patterns_are_reported():
    graph, result = _mined()
    smallest = result.patterns[-1]
    found = check.problems(graph, list(result.patterns) + [smallest], **CONFIG)
    assert any("repeats" in f for f in found)
    found = check.problems(graph, list(reversed(result.patterns)), **CONFIG)
    assert any("ordered" in f for f in found) or len(result.patterns) == 1
    found = check.problems(graph, result.patterns, CONFIG["min_support"], 0, CONFIG["d_max"])
    assert any("K=0" in f for f in found)


def test_digest_ignores_vertex_numbering():
    _, result = _mined()
    renumbered = [
        replace(p, graph=p.graph.relabeled({v: f"x{v}" for v in p.graph.vertices()}),
                embeddings=[])
        for p in result.patterns
    ]
    assert check.code_digest([result]) == check.code_digest([replace(result,
                                                                      patterns=renumbered)])
    assert all(check.isomorphic(a.graph, b.graph)
               for a, b in zip(result.patterns, renumbered))
