"""Shared pieces of the benchmark: the virtual-time loop that stamps each
callback, the result log every workload checks against ground truth, and
small statistics helpers.

Nothing here is timed on its own; each workload decides what its timed
region covers.
"""

from __future__ import annotations

import collections
import resource
import statistics
import time

from flowlink.runtime import EventLoop

MAX_REPORTED_FAILURES = 5


class StampedLoop(EventLoop):
    """`EventLoop` that records when each callback starts.  The unpaced
    workloads have no wall-clock schedule: every input is due the moment the
    loop reaches it, so a flow's latency runs from the start of the callback
    that emitted it."""

    def __init__(self, tracer=None):
        super().__init__()
        self.tracer = tracer
        self.cb_start = 0.0

    def call_at(self, when, fn, *args):
        return super().call_at(when, self._stamped, fn, args)

    def _stamped(self, fn, args):
        self.cb_start = time.perf_counter()
        if self.tracer is None:
            fn(*args)
        else:
            self.tracer.callback(fn, args)


class ResultLog:
    """Engine result sink: emissions per flow uid, the first emission's
    originator (host, pid) set, and its latency in seconds: the
    `perf_counter` reading at emission minus `due_of(uid)`."""

    def __init__(self, due_of=None):
        self.count: collections.Counter = collections.Counter()
        self.originator: dict[str, frozenset] = {}
        self.latency: list[float] = []
        self.due_of = due_of

    def __call__(self, result) -> None:
        uid = result.tag.uid
        self.count[uid] += 1
        if self.count[uid] == 1:
            self.originator[uid] = frozenset(
                (c.host, c.pid) for c in result.originator)
            if self.due_of is not None:
                self.latency.append(time.perf_counter() - self.due_of(uid))


def judge(submitted, log: ResultLog, expect: dict) -> list[tuple[str, str]]:
    """Every submitted flow must be emitted exactly once, and its originator
    candidates must agree with ground truth.  `expect` maps each uid to the
    (host, pid) that opened its socket, which the candidates must name, or
    to None for a flow that must stay unattributed."""
    failures = []
    for uid in submitted:
        n = log.count.get(uid, 0)
        if n != 1:
            failures.append((uid, "never emitted" if n == 0
                             else f"emitted {n} times"))
            continue
        want = expect[uid]
        got = log.originator[uid]
        if want is None and got:
            failures.append((uid, f"should stay unattributed, got {sorted(got)}"))
        elif want is not None and want not in got:
            failures.append((uid, f"true originator {want} missing from "
                                  f"{sorted(got)}"))
    return failures


def report_failures(workload: str, failures, out) -> None:
    for uid, reason in failures[:MAX_REPORTED_FAILURES]:
        print(f"{workload}: FAIL {uid}: {reason}", file=out)
    if len(failures) > MAX_REPORTED_FAILURES:
        print(f"{workload}: ... {len(failures) - MAX_REPORTED_FAILURES} more "
              f"failing flows", file=out)


def quantile(values, q: float) -> float:
    """Inclusive quantile; q in (0, 1)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def windowed_quantile(values, q: float, window: int = 1000) -> float:
    """The q-quantile of each run of `window` consecutive samples, then the
    median over those runs.  A burst of machine noise then moves a few
    windows, not the reported value.  With fewer than two full windows it
    is the plain quantile of all samples."""
    if len(values) < 2 * window:
        return quantile(values, q)
    return statistics.median(quantile(values[i:i + window], q)
                             for i in range(0, len(values) - window + 1, window))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
