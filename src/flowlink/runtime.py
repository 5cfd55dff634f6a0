"""Execution plumbing: a deterministic discrete-event loop for simulation and
replay, plus a wall-clock scheduler for the live service and load tests.

Both expose the same now()/call_at()/call_later()/cancel() surface so engine
components are agnostic to which mode they run under.  Neither clock goes
back, which the correlator's one park timer relies on.  Each also carries the
`lock` that owns engine state: the engine takes it on every entry point, and
the wall-clock scheduler runs every callback while holding it.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
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


# Sequence numbers one `ReservedOrder` holds back: more timers than any run
# schedules, so the loop's own numbers stay above the whole block.
_RESERVED_SEQS = 1 << 62


class EventLoop:
    """Single-threaded discrete-event scheduler over virtual time.

    Ties at the same timestamp fire in scheduling order, which makes every
    run under a fixed schedule byte-reproducible.  A `ReservedOrder` lets
    timers scheduled later take their place in that order earlier.
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
        """Run all work due up to and including `deadline`, then set the
        clock there; an infinite deadline leaves it at the last timer run."""
        while self._heap and self._heap[0].when <= deadline:
            h = heapq.heappop(self._heap)
            if h.cancelled:
                continue
            self._now = h.when
            h.fn(*h.args)
        if self._now < deadline < math.inf:
            self._now = deadline

    def run_until_idle(self):
        """Drain the schedule, leaving the clock at the last timer run."""
        self.run_until(math.inf)


class ReservedOrder:
    """A block of an `EventLoop`'s tie-break numbers, held back when the
    block is made.  Timers scheduled inside `with order:` take numbers from
    the block, so at equal times they fire after every timer scheduled
    before the block was made, before every timer scheduled outside it at
    any time, and among themselves in the order they were scheduled."""

    def __init__(self, loop: EventLoop):
        self._loop = loop
        first = next(loop._seq)
        self._seq = itertools.count(first)
        loop._seq = itertools.count(first + _RESERVED_SEQS)

    def __enter__(self) -> None:
        self._outer, self._loop._seq = self._loop._seq, self._seq

    def __exit__(self, *exc) -> None:
        self._loop._seq = self._outer


class WallScheduler:
    """Wall-clock timer thread with the EventLoop call surface.

    `now()` is epoch seconds that advance with `time.monotonic()`, so a step
    of the system clock neither fires timers early nor stalls them.
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
        self._wall0, self._mono0 = time.time(), time.monotonic()
        self._thread = threading.Thread(target=self._run, name="flowlink-timer", daemon=True)
        self._thread.start()

    def now(self) -> float:
        return self._wall0 + (time.monotonic() - self._mono0)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        h = TimerHandle(when, next(self._seq), fn, args)
        with self._cond:
            heapq.heappush(self._heap, h)
            self._cond.notify()
        return h

    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        return self.call_at(self.now() + delay, fn, *args)

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
                while not self._stopped and (not self._heap or self._heap[0].when > self.now()):
                    self._cond.wait(self._heap[0].when - self.now() if self._heap else None)
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
