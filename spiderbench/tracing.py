"""Per-layer timing wrapped around the program from outside.

Nothing here edits ``src/``: :func:`install` rebinds the public functions of
each layer to timing wrappers for the duration of a traced run and
:func:`uninstall` puts the originals back.  A name bound with
``from x import f`` lives in every importing module, so each function is
rebound wherever a ``repro`` module holds that exact object (except the two
reporting helpers, which are only timed where ``core.spidermine`` calls them).

Every wrapped call is a span.  A span's *self time* is its duration minus the
durations of the spans opened directly inside it, so the layers add up to the
wall time without double counting.  Spans are aggregated per scope (one mine
or one phase) and kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.obs import NullTracer, Span

_clock = time.perf_counter


class Recorder:
    """Aggregates span calls and self time per (scope, name)."""

    def __init__(self) -> None:
        self.scope = "run"
        self.scopes: Dict[str, Dict[str, List[float]]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []

    def _bucket(self, name: str) -> List[float]:
        table = self.scopes.setdefault(self.scope, {})
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0.0, 0.0]  # calls, self seconds, total seconds
        return entry

    def push(self) -> None:
        self._stack.append([_clock(), 0.0])

    def pop(self, name: str, count: bool = True) -> float:
        """Close the innermost span; returns its duration."""
        end = _clock()
        start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        entry = self._bucket(name)
        if count:
            entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration
        return duration

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def in_scope(self, scope: str):
        previous, self.scope = self.scope, scope
        try:
            yield
        finally:
            self.scope = previous

    def totals(self) -> Dict[str, List[float]]:
        """Calls, self and total seconds per span name, summed over scopes."""
        out: Dict[str, List[float]] = {}
        for table in self.scopes.values():
            for name, (calls, self_s, total_s) in table.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "scopes": {
                scope: {
                    name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                    for name, (calls, self_s, total_s) in sorted(table.items())
                }
                for scope, table in self.scopes.items()
            },
            "counters": dict(sorted(self.counters.items())),
        }


def timed(rec: Recorder, name, fn: Callable, count: bool = True,
          on_result: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments."""
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.push()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop(naming(*args, **kwargs) if naming else name, count)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def timed_generator(rec: Recorder, name, fn: Callable,
                    each: Optional[Callable] = None) -> Callable:
    """Wrap a generator function: every resume is a span (counted once)."""
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = naming(*args, **kwargs) if naming else name
        inner = fn(*args, **kwargs)
        while True:
            before = each(args) if each is not None else 0
            rec.push()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.pop(label, count=False)
                if each is not None:
                    rec.count("iso.candidate_tests", each(args) - before)
            yield item

    return wrapper


class StageTracer(NullTracer):
    """A ``repro.obs`` tracer whose spans land in the :class:`Recorder`.

    The program opens ``mine.stage1..3`` spans through whatever tracer is
    installed; this one keeps them in the same stack as the wrappers so stage
    time and layer time share one clock.  Synthetic ``record`` spans (the
    Stage-I per-unit totals) overlap real spans and are only counted.
    """

    enabled = True

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec

    @contextmanager
    def span(self, name: str, **attrs):
        node = Span(name=name, attrs=dict(attrs))
        self._rec.push()
        try:
            yield node
        finally:
            node.duration = self._rec.pop(name)

    def record(self, name: str, duration: float, **attrs) -> None:
        self._rec.count(name)


def _rebind_everywhere(original, replacement, undo) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _rebind_class(cls, attr, make, undo) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))
    undo.append((cls, attr, original))


def install(rec: Recorder) -> list:
    """Wrap every traced layer; returns the undo list for :func:`uninstall`."""
    import repro.catalog.cache as cache
    import repro.core.spidermine as spidermine
    import repro.graph.canonical as canonical
    import repro.graph.kernels as kernels
    import repro.patterns.overlap as overlap
    import repro.patterns.spider as spider
    import repro.patterns.support as support
    from repro.core.growth import GrowthEngine, occurrence_code, occurrence_support
    from repro.graph.frozen import FrozenGraph
    from repro.graph.isomorphism import SubgraphMatcher
    from repro.obs import set_tracer

    undo: list = []

    def everywhere(name, fn, **kw):
        _rebind_everywhere(fn, timed(rec, name, fn, **kw), undo)

    def frequent(result):
        rec.count("support.tested")
        rec.count("support.frequent", 1 if result else 0)

    everywhere("canonical.code", canonical.canonical_code)
    everywhere("spider.head_code", spider.head_distinguished_code)
    everywhere("support.is_frequent", support.is_frequent, on_result=frequent)
    everywhere("overlap.mis", overlap.max_independent_set)
    everywhere("growth.occurrence_code", occurrence_code)
    everywhere("growth.occurrence_support", occurrence_support)
    for kernel in ("seed_domain", "ac_filter", "in_sorted", "intersect_sorted",
                   "filter_rows", "merge_postings"):
        everywhere("kernels", getattr(kernels, kernel))

    # The reporting helpers are timed only at their core.spidermine call sites.
    for attr, name in (("occurrences_to_pattern", "report.to_pattern"),
                       ("graph_diameter", "report.diameter")):
        original = getattr(spidermine, attr)
        setattr(spidermine, attr, timed(rec, name, original))
        undo.append((spidermine, attr, original))

    _rebind_class(overlap.EmbeddingIndex, "conflict_graph",
                  lambda f: timed(rec, "overlap.conflict_graph", f), undo)
    _rebind_class(GrowthEngine, "grow", lambda f: timed(rec, "growth.grow", f), undo)
    _rebind_class(spidermine.SpiderMine, "_mine_fresh", lambda f: timed(rec, "mine", f), undo)
    _rebind_class(cache.RunCache, "store_result",
                  lambda f: timed(rec, "cache.store", f), undo)
    _rebind_class(cache.RunCache, "load_result",
                  lambda f: timed(rec, "cache.load", f), undo)
    _rebind_class(cache.RunCache, "_graph_digest",
                  lambda f: timed(rec, "graph_digest", f), undo)

    # Matchers: one call per construction; the time of every query on the
    # instance is charged to the same name.  The name says what is searched:
    # the frozen data graph, or a pattern / occurrence subgraph.
    def iso_name(matcher, *args, **kwargs):
        return "iso.data" if isinstance(matcher.target, FrozenGraph) else "iso.pattern"

    def iso_init_name(matcher, pattern, target, induced=False):
        return "iso.data" if isinstance(target, FrozenGraph) else "iso.pattern"

    def candidate_tests(args):
        return args[0].stats.candidate_tests

    _rebind_class(SubgraphMatcher, "__init__",
                  lambda f: timed(rec, iso_init_name, f), undo)
    for method in ("find_embeddings", "exists", "count"):
        _rebind_class(SubgraphMatcher, method,
                      lambda f: timed(rec, iso_name, f, count=False), undo)
    for method in ("iter_embeddings", "iter_anchored"):
        _rebind_class(SubgraphMatcher, method,
                      lambda f: timed_generator(rec, iso_name, f, candidate_tests), undo)

    previous = set_tracer(StageTracer(rec))
    undo.append((None, "tracer", previous))
    return undo


def uninstall(undo: list) -> None:
    from repro.obs import set_tracer

    for owner, attr, original in reversed(undo):
        if owner is None:
            set_tracer(original)
        else:
            setattr(owner, attr, original)
