"""Open-loop HTTP load: requests leave on a fixed schedule, not on replies.

Request ``i`` of a step is *due* at ``t0 + i / rate``.  A small pool of
workers (at most ``nproc`` connections in flight) sends each request at its
due time or, when every worker is busy, as soon as one frees up.  Latency is
counted from the due time, so a stalled server shows up as latency instead
of silently lowering the offered rate; ``lag`` is how late the generator
itself sent.
"""

from __future__ import annotations

import gc
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

_clock = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Step:
    """Outcome of one fixed-rate step."""

    rate: float
    limit_ms: float
    latencies_ms: List[float] = field(default_factory=list)   # successful requests
    lags_ms: List[float] = field(default_factory=list)
    failures: int = 0
    overrun_ms: float = 0.0   # how long after the last due time the step drained

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + self.failures

    def p(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    @property
    def met(self) -> bool:
        """p99 within the limit (failures count as misses), lag within the
        limit, and no backlog left when the schedule ended."""
        allowed_misses = math.floor(0.01 * self.attempted)
        misses = self.failures + sum(1 for x in self.latencies_ms if x > self.limit_ms)
        return (
            self.attempted > 0
            and misses <= allowed_misses
            and percentile(self.lags_ms, 99) <= self.limit_ms
            and self.overrun_ms <= self.limit_ms
        )


def run_step(send: Callable[[int], bool], rate: float, seconds: float,
             workers: int, limit_ms: float) -> Step:
    """Offer ``rate`` requests/s for ``seconds``; ``send(i)`` returns success."""
    total = max(1, int(round(rate * seconds)))
    step = Step(rate=rate, limit_ms=limit_ms)
    lock = threading.Lock()
    cursor = [0]
    t0 = _clock() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= total:
                return
            due = t0 + i / rate
            wait = due - _clock()
            if wait > 0:
                time.sleep(wait)
            sent = _clock()
            try:
                ok = send(i)
            except Exception:
                ok = False
            done = _clock()
            with lock:
                step.lags_ms.append((sent - due) * 1000.0)
                if ok:
                    step.latencies_ms.append((done - due) * 1000.0)
                else:
                    step.failures += 1

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(workers)]
    # A collection pause in the generator would read as server latency.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if gc_was_enabled:
            gc.enable()
    step.overrun_ms = max(0.0, (_clock() - (t0 + (total - 1) / rate)) * 1000.0)
    return step

