"""The open-loop generator counts latency from each request's due time."""

from __future__ import annotations

import time

import loadgen


def test_percentile_interpolates():
    assert loadgen.percentile([1, 2, 3, 4], 50) == 2.5
    assert loadgen.percentile([5], 99) == 5
    assert loadgen.percentile([1, 2, 3, 4, 5], 100) == 5


def test_stalled_server_shows_as_latency_from_due_time():
    # 100 req/s, one connection; the first reply stalls for 200 ms.
    def send(i):
        if i == 0:
            time.sleep(0.2)
        return True

    step = loadgen.run_step(send, rate=100.0, seconds=0.1, workers=1, limit_ms=50.0)
    assert step.attempted == 10 and step.failures == 0
    # Request 5 was due 50 ms after request 0 but could only leave once the
    # stall ended (~200 ms): its latency includes the ~150 ms it waited.
    assert step.latencies_ms[5] >= 140.0
    assert step.lags_ms[5] >= 140.0
    assert not step.met


def test_failures_miss_the_limit():
    step = loadgen.run_step(lambda i: i % 2 == 0, rate=200.0, seconds=0.1, workers=2,
                            limit_ms=1000.0)
    assert step.attempted == 20 and step.failures == 10
    assert not step.met


def test_idle_fast_server_meets_the_limit():
    step = loadgen.run_step(lambda i: True, rate=100.0, seconds=0.2, workers=2,
                            limit_ms=1000.0)
    assert step.met and step.failures == 0
