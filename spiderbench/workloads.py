"""The benchmark's workloads: which graphs are mined and how hard they are served.

Every workload runs the same pipeline (generate → mine → store → warm read →
serve); they differ in the graph set, and so in which layer dominates.  The
graphs are pinned to the figure tests' generator seeds: a workload's layer
mix depends on its graph (and even an isomorphic relabeling moves fig 11's
mine between 11 and 26 s, because Stage II's seed draw follows spider
order), so ``--seed`` varies the served request stream, never the graphs.

Offered rates are fixed per workload so runs stay comparable: ``low`` and
``high`` are about 1/4 and 3/4 of the capacity measured on a 2-CPU host and
``top`` about all of it; ``max_rps`` is the highest of the three that meets
the latency limit.  ``mine_passes`` repeats a short mining pass so the
per-graph median rides out host noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The figure tests' mining configuration (serial, csr backend on frozen input).
MINE = dict(min_support=2, k=10, d_max=10, seed=0)
#: Shared ``scalability_series`` parameters of figs 11 and 13.
GRAPH = dict(average_degree=3.0, num_labels=100, num_large=3)

#: Route mix of the request stream (weights sum to 100).
ROUTE_MIX = (("top-k", 45), ("label", 20), ("contains", 30), ("contains/batch", 5))
BATCH_NEEDLES = 8
LIMIT_MS = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    vertices: int
    large_vertices: int
    graph_seeds: Tuple[int, ...]
    low_rps: float
    high_rps: float
    top_rps: float
    mine_passes: int
    rss_of: str  # "miner" or "server"
    why: str

    def generate(self, graph_seed: int):
        from repro.datasets import scalability_series

        return scalability_series(
            [self.vertices], large_vertices=self.large_vertices, seed=graph_seed,
            model=self.model, **GRAPH,
        )[0]

    def params(self) -> dict:
        return {
            "model": self.model, "vertices": self.vertices,
            "large_vertices": self.large_vertices, "graph_seeds": list(self.graph_seeds),
            **GRAPH, **MINE, "mine_passes": self.mine_passes,
            "rates_rps": {"low": self.low_rps, "high": self.high_rps, "top": self.top_rps},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig11-random", model="erdos_renyi", vertices=200, large_vertices=24,
            graph_seeds=(44,), low_rps=100.0, high_rps=300.0,
            top_rps=400.0, mine_passes=1, rss_of="miner",
            why="fig 11's 200-vertex random graph: pattern-side heavy (canonical "
                "codes, pattern matching, reporting); Stage I is small",
        ),
        Workload(
            name="fig13-powerlaw", model="barabasi_albert", vertices=130, large_vertices=20,
            graph_seeds=(52, 53, 54, 55, 56), low_rps=90.0, high_rps=270.0,
            top_rps=360.0, mine_passes=2, rss_of="miner",
            why="fig 13's five 130-vertex power-law graphs: Stage-I heavy "
                "(spider growth, support, overlap/MIS)",
        ),
        Workload(
            name="serve-catalog", model="erdos_renyi", vertices=80, large_vertices=24,
            graph_seeds=tuple(range(41, 65)), low_rps=70.0, high_rps=210.0,
            top_rps=280.0, mine_passes=3, rss_of="server",
            why="24 small random graphs stored then served: the catalog write/read "
                "path and an open-loop repro serve request mix",
        ),
    )
}
