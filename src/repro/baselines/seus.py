"""SEuS baseline (Ghazizadeh & Chawathe, Discovery Science 2002).

SEuS ("Structure Extraction using Summaries") builds a *summary graph* in
which every vertex of the data graph with the same label is collapsed into a
single summary node, and summary edges carry the count of data edges between
the two label classes.  Candidate substructures are enumerated on the summary,
whose edge counts give an (over-optimistic) upper bound on support; candidates
whose bound already fails the threshold are pruned without touching the data
graph, and surviving candidates are verified against the data graph.

The behaviour the paper relies on: the summary is effective when a few highly
frequent structures dominate, and weak when there are many low-frequency
patterns — its label-level aggregation cannot tell them apart, so SEuS ends up
reporting mostly small structures.  This reimplementation keeps exactly that
decision procedure (label-collapsed summary, support upper bound from summary
counts, verification by embedding enumeration, and a candidate-size limit that
grows only while the summary bound stays selective).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.results import MiningResult, MiningStatistics
from ..graph.labeled_graph import LabeledGraph
from ..graph.view import GraphView
from ..patterns.pattern import Pattern
from ..patterns.support import SupportMeasure, compute_support
from ..graph.canonical import canonical_code


@dataclass
class SeusConfig:
    """Parameters of the SEuS search."""

    min_support: int = 2
    max_pattern_edges: int = 6
    max_candidates: int = 3000
    max_embeddings: int = 300
    support_measure: SupportMeasure = SupportMeasure.HARMFUL_OVERLAP
    num_best: int = 20


class SummaryGraph:
    """The label-collapsed summary: label → label edge multiplicities."""

    def __init__(self, graph: GraphView) -> None:
        self.label_counts = dict(graph.label_counts())
        self.edge_counts: Dict[Tuple[object, object], int] = {}
        for u, v in graph.edges():
            a, b = graph.label(u), graph.label(v)
            key = (a, b) if repr(a) <= repr(b) else (b, a)
            self.edge_counts[key] = self.edge_counts.get(key, 0) + 1

    def vertex_bound(self, label) -> int:
        """Upper bound on the support of any pattern containing ``label``."""
        return self.label_counts.get(label, 0)

    def edge_bound(self, label_a, label_b) -> int:
        key = (label_a, label_b) if repr(label_a) <= repr(label_b) else (label_b, label_a)
        return self.edge_counts.get(key, 0)

    def pattern_bound(self, pattern: LabeledGraph) -> int:
        """Support upper bound: the tightest label/edge count the pattern touches."""
        bounds = [self.vertex_bound(pattern.label(v)) for v in pattern.vertices()]
        for u, v in pattern.edges():
            bounds.append(self.edge_bound(pattern.label(u), pattern.label(v)))
        return min(bounds) if bounds else 0


class Seus:
    """Summary-guided frequent substructure extraction."""

    def __init__(self, graph: GraphView, config: Optional[SeusConfig] = None) -> None:
        self.graph = graph
        self.config = config or SeusConfig()
        self.summary = SummaryGraph(graph)

    def mine(self) -> MiningResult:
        start = time.perf_counter()
        config = self.config
        statistics = MiningStatistics()

        # Level 1: frequent label pairs straight from the summary.
        frontier: Dict[str, LabeledGraph] = {}
        for (label_a, label_b), count in self.summary.edge_counts.items():
            if count < config.min_support:
                continue
            pattern = LabeledGraph()
            pattern.add_vertex(0, label_a)
            pattern.add_vertex(1, label_b)
            pattern.add_edge(0, 1)
            frontier[canonical_code(pattern)] = pattern

        verified: Dict[str, Pattern] = {}
        while frontier and len(verified) < config.max_candidates:
            statistics.num_candidates_generated += len(frontier)
            surviving: Dict[str, Pattern] = {}
            for code, pattern_graph in frontier.items():
                # Summary pruning: the cheap upper bound must pass first.
                if self.summary.pattern_bound(pattern_graph) < config.min_support:
                    continue
                pattern = Pattern(graph=pattern_graph)
                pattern.recompute_embeddings(self.graph, limit=config.max_embeddings)
                support = compute_support(pattern, measure=config.support_measure)
                if support >= config.min_support:
                    surviving[code] = pattern
            verified.update(surviving)
            if not surviving:
                break
            # Grow survivors by one summary-frequent edge.
            next_frontier: Dict[str, LabeledGraph] = {}
            for pattern in surviving.values():
                if pattern.num_edges >= config.max_pattern_edges:
                    continue
                for extended in self._extend(pattern.graph):
                    code = canonical_code(extended)
                    if code not in verified and code not in next_frontier:
                        next_frontier[code] = extended
                if len(next_frontier) > config.max_candidates:
                    break
            frontier = next_frontier

        ranked = sorted(
            verified.values(), key=lambda p: (p.num_vertices, p.num_edges), reverse=True
        )
        runtime = time.perf_counter() - start
        return MiningResult(
            algorithm="SEuS",
            patterns=ranked[: config.num_best] if config.num_best else ranked,
            runtime_seconds=runtime,
            statistics=statistics,
            parameters={
                "min_support": config.min_support,
                "max_pattern_edges": config.max_pattern_edges,
            },
        )

    def _extend(self, pattern_graph: LabeledGraph) -> List[LabeledGraph]:
        """All one-edge extensions whose new edge is frequent in the summary."""
        out: List[LabeledGraph] = []
        next_id = max(pattern_graph.vertices()) + 1
        for vertex in pattern_graph.vertices():
            v_label = pattern_graph.label(vertex)
            for (label_a, label_b), count in self.summary.edge_counts.items():
                if count < self.config.min_support:
                    continue
                if v_label == label_a:
                    other = label_b
                elif v_label == label_b:
                    other = label_a
                else:
                    continue
                extended = pattern_graph.copy()
                extended.add_vertex(next_id, other)
                extended.add_edge(vertex, next_id)
                out.append(extended)
        return out


def run_seus(
    graph: GraphView,
    min_support: int = 2,
    max_pattern_edges: int = 6,
    num_best: int = 20,
) -> MiningResult:
    """Convenience wrapper for the SEuS baseline."""
    config = SeusConfig(
        min_support=min_support, max_pattern_edges=max_pattern_edges, num_best=num_best
    )
    return Seus(graph, config).mine()
