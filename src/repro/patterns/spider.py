"""r-spiders and the spider-set pattern representation.

Definition 4 of the paper: given a frequent pattern ``P`` and a vertex
``u ∈ V(P)``, if every vertex of ``P`` is within distance ``r`` of ``u`` then
``P`` is an *r-spider with head* ``u``.

Two constructions built on spiders power SpiderMine:

* **spider extraction** — for any pattern ``P`` and vertex ``v``, the
  r-neighbourhood of ``v`` *inside P* is an r-spider ``s_h[v]``;
* the **spider-set representation** ``S[P] = {s_h[v] | v ∈ V(P)}`` — a
  multiset of canonical spider codes, one per pattern vertex.  Theorem 2:
  isomorphic patterns have equal spider-sets, so unequal spider-sets prove
  non-isomorphism and let the miner skip the expensive isomorphism test
  (the *spider-set pruning* heuristic).

A spider's canonical code must distinguish its head, otherwise two spiders
that differ only in which vertex is the head would collide.  We achieve that
by tagging the head's label before canonicalisation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Counter as CounterType, Dict, List, Optional, Tuple

from ..graph.algorithms import bfs_distances, is_r_bounded_from
from ..graph.canonical import labelled_canonical
from ..graph.isomorphism import SubgraphMatcher, embedding_edge_image
from ..graph.labeled_graph import LabeledGraph, Vertex
from ..graph.view import GraphView
from .embedding import Embedding
from .pattern import Pattern

_HEAD_TAG = "★"  # star marker appended to the head label inside spider codes


@dataclass
class Spider(Pattern):
    """An r-spider: a pattern with a distinguished head vertex."""

    head: Vertex = None
    radius: int = 1

    def __post_init__(self) -> None:
        if self.head is None:
            raise ValueError("a Spider requires a head vertex")
        if self.head not in self.graph:
            raise ValueError(f"head {self.head!r} is not a vertex of the spider graph")
        if not is_r_bounded_from(self.graph, self.head, self.radius):
            raise ValueError(
                f"graph is not {self.radius}-bounded from head {self.head!r}"
            )

    @property
    def head_label(self):
        return self.graph.label(self.head)

    def spider_code(self) -> str:
        """Canonical code that also distinguishes the head vertex."""
        return head_distinguished_code(self.graph, self.head)

    def boundary_vertices(self) -> List[Vertex]:
        """Vertices at distance exactly ``radius`` from the head (the queue B[s]).

        If the spider is shallower than ``radius`` (e.g. a single vertex), the
        farthest vertices are returned so growth always has a frontier.
        """
        dist = bfs_distances(self.graph, self.head)
        max_dist = max(dist.values())
        target = min(self.radius, max_dist)
        boundary = [v for v, d in dist.items() if d == target]
        return sorted(boundary, key=repr)

    def head_images(self) -> List[Vertex]:
        """Data-graph vertices that serve as the head in some embedding."""
        return sorted({dict(e.mapping)[self.head] for e in self.embeddings}, key=repr)

    def recompute_embeddings(
        self, data_graph: GraphView, limit: Optional[int] = None
    ) -> None:
        """Re-enumerate embeddings head-anchored, one domain build for all anchors.

        This is the Stage-I access pattern: the head is pinned to every
        feasible data vertex of its label in canonical (repr-sorted) order and
        the rest of the spider is matched around it, with the matcher's
        candidate domains and anchored BFS order built once for the whole
        batch instead of once per anchor.  Embeddings are deduplicated by
        (head image, vertex image, edge image): automorphic remappings onto
        the same data subgraph collapse to one witness per anchor, but
        same-vertices/different-edges embeddings are all kept — they are
        distinct edge-disjoint witnesses, the class the 1.4.0 support fix
        made countable (deduplicating on vertex images alone here would
        silently undercount ``edge_disjoint_support`` over the result).
        ``limit`` caps the total kept.
        """
        matcher = SubgraphMatcher(self.graph, data_graph)
        seen = set()
        kept: List[Embedding] = []
        for head_image, mapping in matcher.iter_anchored(self.head):
            key = (
                head_image,
                frozenset(mapping.values()),
                embedding_edge_image(self.graph, mapping),
            )
            if key in seen:
                continue
            seen.add(key)
            kept.append(Embedding.from_dict(mapping))
            if limit is not None and len(kept) >= limit:
                break
        self.embeddings = kept

    def copy(self) -> "Spider":
        return Spider(
            graph=self.graph.copy(),
            embeddings=list(self.embeddings),
            head=self.head,
            radius=self.radius,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Spider(head={self.head!r}, r={self.radius}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, embeddings={len(self.embeddings)})"
        )


def head_distinguished_canonical(graph: LabeledGraph, head: Vertex) -> Tuple[List[Vertex], str]:
    """Canonical vertex order and code of ``graph`` with ``head``'s label tagged.

    Isomorphic spiders whose isomorphism maps head to head — and only those —
    receive equal codes.  For two spiders with equal codes,
    ``dict(zip(order_1, order_2))`` is such a head-preserving isomorphism.
    """
    def label(v: Vertex):
        return f"{graph.label(v)}{_HEAD_TAG}" if v == head else graph.label(v)

    return labelled_canonical(graph.vertices(), label, graph.edges())


def head_distinguished_code(graph: LabeledGraph, head: Vertex) -> str:
    """The code half of :func:`head_distinguished_canonical`."""
    return head_distinguished_canonical(graph, head)[1]


def extract_spider(
    pattern_graph: LabeledGraph,
    vertex: Vertex,
    radius: int,
) -> Tuple[LabeledGraph, Vertex]:
    """The r-neighbourhood spider of ``vertex`` inside ``pattern_graph`` (graph, head).

    Following the paper's Figure 3, the neighbourhood spider keeps the
    vertices within distance ``r`` of the head and the edges that cross BFS
    layers (distance difference exactly 1) — intra-layer edges are not part of
    the per-vertex spider.  With this convention the paper's Figure 3 (II)
    example behaves as described: a 6-cycle and two disjoint triangles share
    their radius-1 spider-sets but are separated at radius 2.
    """
    within = pattern_graph.bfs_within(vertex, radius)
    spider = LabeledGraph()
    for v in within:
        spider.add_vertex(v, pattern_graph.label(v))
    for u in within:
        for w in sorted(pattern_graph.neighbors(u), key=repr):
            if w in within and abs(within[u] - within[w]) == 1 and not spider.has_edge(u, w):
                spider.add_edge(u, w)
    return spider, vertex


def extract_spider_from_data(
    data_graph: LabeledGraph,
    vertex: Vertex,
    radius: int,
) -> Spider:
    """The r-neighbourhood spider around a *data-graph* vertex, with its identity embedding."""
    sub, head = extract_spider(data_graph, vertex, radius)
    embedding = Embedding.from_dict({v: v for v in sub.vertices()})
    return Spider(graph=sub, embeddings=[embedding], head=head, radius=radius)


# ---------------------------------------------------------------------- #
# spider-set representation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpiderSet:
    """The multiset ``S[P]`` of per-vertex spider codes of a pattern."""

    codes: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, pattern_graph: LabeledGraph, radius: int = 1) -> "SpiderSet":
        counter: CounterType[str] = Counter()
        for v in pattern_graph.vertices():
            sub, head = extract_spider(pattern_graph, v, radius)
            counter[head_distinguished_code(sub, head)] += 1
        return cls(codes=tuple(sorted(counter.items())))

    def __len__(self) -> int:
        return sum(count for _, count in self.codes)

    @property
    def distinct_spiders(self) -> int:
        return len(self.codes)

    def as_counter(self) -> CounterType[str]:
        return Counter(dict(self.codes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpiderSet):
            return NotImplemented
        return self.codes == other.codes

    def __hash__(self) -> int:
        # In-process dict bucketing only; the hash never reaches a digest.
        return hash(self.codes)  # reprolint: disable=DET002


class SpiderSetIndex:
    """Dedup index for candidate patterns using spider-set pruning.

    The index buckets patterns by their :class:`SpiderSet`.  When a new
    candidate arrives:

    * a previously unseen spider-set ⇒ certainly a new pattern (Theorem 2),
      no isomorphism test is performed;
    * a seen spider-set ⇒ an exact check (canonical code comparison) runs only
      against the patterns in the same bucket.

    The counters expose how many isomorphism checks the pruning avoided, which
    the ablation benchmark reports.
    """

    def __init__(self, radius: int = 1) -> None:
        self.radius = radius
        self._buckets: Dict[SpiderSet, Dict[str, Pattern]] = {}
        self.isomorphism_checks = 0
        self.pruned_checks = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def patterns(self) -> List[Pattern]:
        out: List[Pattern] = []
        for bucket in self._buckets.values():
            out.extend(bucket.values())
        return out

    def add(self, pattern: Pattern) -> Tuple[Pattern, bool]:
        """Insert ``pattern``; return (canonical instance, was_new).

        If an isomorphic pattern already exists its embeddings are merged and
        the existing instance is returned.
        """
        spider_set = SpiderSet.of(pattern.graph, radius=self.radius)
        bucket = self._buckets.get(spider_set)
        if bucket is None:
            # New spider-set: Theorem 2 guarantees no existing pattern can be
            # isomorphic, so no isomorphism work is needed at all.
            self.pruned_checks += len(self)
            self._buckets[spider_set] = {pattern.code: pattern}
            return pattern, True
        self.isomorphism_checks += len(bucket)
        existing = bucket.get(pattern.code)
        if existing is None:
            bucket[pattern.code] = pattern
            return pattern, True
        known_images = {e.image for e in existing.embeddings}
        for embedding in pattern.embeddings:
            if embedding.image not in known_images:
                existing.add_embedding(embedding)
                known_images.add(embedding.image)
        return existing, False

    def might_be_isomorphic(self, first: Pattern, second: Pattern) -> bool:
        """The pruning test itself: False ⇒ definitely not isomorphic."""
        return SpiderSet.of(first.graph, self.radius) == SpiderSet.of(second.graph, self.radius)
