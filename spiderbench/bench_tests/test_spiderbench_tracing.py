"""Self-time arithmetic, and the layer wrappers leave results unchanged."""

from __future__ import annotations

import check
import tracing


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children(monkeypatch):
    # parent [0, 10] holds child [1, 3] and child [4, 8]; child 2 holds leaf [5, 6].
    monkeypatch.setattr(tracing, "_clock", FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    rec = tracing.Recorder()
    rec.push()                      # parent @0
    rec.push()                      # child @1
    rec.pop("child")                # @3
    rec.push()                      # child @4
    rec.push()                      # leaf @5
    rec.pop("leaf")                 # @6
    rec.pop("child")                # @8
    rec.pop("parent")               # @10
    totals = rec.totals()
    assert totals["parent"] == [1, 10 - (2 + 4), 10]
    assert totals["child"] == [2, 2 + (4 - 1), 6]
    assert totals["leaf"] == [1, 1, 1]
    # Self times add up to the wall time of the outermost span.
    assert sum(v[1] for v in totals.values()) == 10


def test_scopes_keep_spans_apart(monkeypatch):
    monkeypatch.setattr(tracing, "_clock", FakeClock(0, 2, 10, 15))
    rec = tracing.Recorder()
    with rec.in_scope("mine.1"):
        rec.push()
        rec.pop("f")
    with rec.in_scope("mine.2"):
        rec.push()
        rec.pop("f")
    assert rec.to_dict()["scopes"]["mine.1"]["f"]["self_s"] == 2
    assert rec.to_dict()["scopes"]["mine.2"]["f"]["self_s"] == 5
    assert rec.totals()["f"] == [2, 7, 7]


def test_generator_wrapper_times_each_resume_and_counts_once():
    rec = tracing.Recorder()

    def numbers(n):
        yield from range(n)

    wrapped = tracing.timed_generator(rec, "gen", numbers)
    assert list(wrapped(4)) == [0, 1, 2, 3]
    assert rec.totals()["gen"][0] == 0  # generator calls are counted by their owner
    assert rec._stack == []


def _tiny_graph():
    from repro.datasets import scalability_series

    return scalability_series([60], average_degree=3.0, num_labels=30, num_large=2,
                              large_vertices=8, seed=3)[0].graph.freeze()


def test_wrappers_are_result_neutral_and_removable():
    import repro.core.growth as growth
    from repro.core import SpiderMine, SpiderMineConfig
    from repro.graph import canonical
    from repro.graph.isomorphism import SubgraphMatcher

    graph = _tiny_graph()
    config = SpiderMineConfig(min_support=2, k=5, d_max=6, seed=0)
    plain = SpiderMine(graph, config).mine()
    originals = (canonical.canonical_code, growth.canonical_code, SubgraphMatcher.__init__)

    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        traced = SpiderMine(graph, config).mine()
    finally:
        tracing.uninstall(undo)

    assert traced.digest() == plain.digest()
    assert check.code_digest([traced]) == check.code_digest([plain])
    assert (canonical.canonical_code, growth.canonical_code,
            SubgraphMatcher.__init__) == originals
    totals = rec.totals()
    assert totals["canonical.code"][0] > 0
    assert totals["mine.stage1"][0] == 1 and totals["mine"][0] == 1
    # Stage spans sit inside the mine span: its self time excludes them.
    stages = sum(totals[f"mine.stage{i}"][2] for i in (1, 2, 3))
    assert totals["mine"][2] >= stages
