"""Reference needle containment: one matcher per surviving stored pattern.

This is the containment path :class:`repro.catalog.query.CatalogQuery`
answered with before the persisted needle-side pattern index: a metadata
prefilter off each record, then a fresh :class:`SubgraphMatcher` — domains
re-seeded per ``(pattern, needle)`` pair — on every record that survives it.
It is kept as a test oracle over the query's public ``records`` and
``load_pattern``: indexed batch containment must return exactly what this
returns, and must not call the matcher more often than this does.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.catalog.query import PatternRecord
from repro.graph import LabeledGraph, SubgraphMatcher
from repro.patterns import Pattern


class UnindexedContainment:
    """Answers containment over ``query``'s records, counting matcher calls."""

    def __init__(self, query) -> None:
        self.query = query
        self.matcher_calls = 0

    def containing(
        self, needle: Union[LabeledGraph, Pattern], run_id: Optional[str] = None
    ) -> List[PatternRecord]:
        graph = needle.graph if isinstance(needle, Pattern) else needle
        needle_labels = set(graph.labels().values())
        matches = []
        for record in self.query.records(run_id=run_id):
            if (
                record.num_vertices < graph.num_vertices
                or record.num_edges < graph.num_edges
                or not needle_labels.issubset(record.labels)
            ):
                continue
            candidate = self.query.load_pattern(record)
            self.matcher_calls += 1
            if SubgraphMatcher(graph, candidate.graph).exists():
                matches.append(record)
        return matches
