"""Execution plumbing: a deterministic discrete-event loop for simulation and
replay, plus a wall-clock scheduler for the live service and load tests.

Both expose the same now()/call_at()/call_later()/cancel() surface so engine
components are agnostic to which mode they run under.  Each also carries the
`lock` that owns engine state: the engine takes it on every entry point, and
the wall-clock scheduler runs every callback while holding it.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
import time
from typing import Any, Callable


class TimerHandle:
    __slots__ = ("when", "seq", "fn", "args", "cancelled")

    def __init__(self, when: float, seq: int, fn: Callable, args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class EventLoop:
    """Single-threaded discrete-event scheduler over virtual time.

    Ties at the same timestamp fire in scheduling order, which makes every
    run under a fixed schedule byte-reproducible.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._heap: list[TimerHandle] = []
        self._seq = itertools.count()
        self.lock = threading.RLock()

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        if when < self._now:
            when = self._now
        h = TimerHandle(when, next(self._seq), fn, args)
        heapq.heappush(self._heap, h)
        return h

    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        return self.call_at(self._now + delay, fn, *args)

    def cancel(self, handle: TimerHandle):
        handle.cancel()

    def run_until(self, deadline: float):
        """Run all work due up to and including `deadline`, then set the clock there."""
        while self._heap and self._heap[0].when <= deadline:
            h = heapq.heappop(self._heap)
            if h.cancelled:
                continue
            self._now = h.when
            h.fn(*h.args)
        if deadline > self._now:
            self._now = deadline

    def run_until_idle(self, max_time: float | None = None):
        """Drain the schedule; stops early at max_time if given."""
        while self._heap:
            h = self._heap[0]
            if max_time is not None and h.when > max_time:
                break
            heapq.heappop(self._heap)
            if h.cancelled:
                continue
            self._now = h.when
            h.fn(*h.args)
        if max_time is not None and max_time > self._now:
            self._now = max_time

    def pending(self) -> int:
        return sum(1 for h in self._heap if not h.cancelled)


class WallScheduler:
    """Wall-clock timer thread with the EventLoop call surface.

    Callbacks run on the scheduler thread while holding `lock`, so they
    never interleave with ingestion threads that hold it.  A handle
    cancelled while its callback waited for the lock does not run.  Do not
    call stop() while holding `lock`: the timer thread may be waiting for it.
    """

    def __init__(self):
        self._heap: list[TimerHandle] = []
        self._seq = itertools.count()
        self.lock = threading.RLock()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(target=self._run, name="flowlink-timer", daemon=True)
        self._thread.start()

    def now(self) -> float:
        return time.time()

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        h = TimerHandle(when, next(self._seq), fn, args)
        with self._cond:
            heapq.heappush(self._heap, h)
            self._cond.notify()
        return h

    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        return self.call_at(time.time() + delay, fn, *args)

    def cancel(self, handle: TimerHandle):
        handle.cancel()

    def stop(self):
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join(timeout=5.0)

    def _run(self):
        while True:
            with self._cond:
                while not self._stopped and (not self._heap or self._heap[0].when > time.time()):
                    if self._heap:
                        self._cond.wait(timeout=max(0.0, self._heap[0].when - time.time()))
                    else:
                        self._cond.wait()
                if self._stopped:
                    return
                h = heapq.heappop(self._heap)
            if h.cancelled:
                continue
            with self.lock:
                if h.cancelled:
                    continue
                try:
                    h.fn(*h.args)
                except Exception:  # noqa: BLE001 - timer callbacks must not kill the thread
                    logging.getLogger(__name__).exception("timer callback failed")
