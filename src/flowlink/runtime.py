"""Execution plumbing: a deterministic discrete-event loop for simulation and
replay, plus a wall-clock scheduler for the live service and load tests.

Both expose the same now()/call_at()/call_later()/cancel() surface so engine
components are agnostic to which mode they run under.  Neither clock goes
back, which `DeadlineMap`'s one timer relies on.  Each also carries the
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
from typing import Any, Callable, Hashable


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
    run under a fixed schedule byte-reproducible.  A callback may run work
    of its own inline while `try_advance` allows it, and `call_again` puts
    its handle back at the time of the first piece it held back, so that
    work keeps the handle's place in that order.
    """

    def __init__(self, start: float = 0.0):
        self._now = start
        self._deadline = start
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
        self._deadline = deadline
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

    def try_advance(self, when: float, seq: int) -> bool:
        """For a running callback: if work ordered at `(when, seq)` is due
        within the current `run_until` and no scheduled timer, cancelled or
        not, sorts before it, move the clock to `when` (never back) and
        return True; otherwise return False and leave the clock as it is."""
        when = max(when, self._now)
        if when > self._deadline:
            return False
        heap = self._heap
        if heap and (heap[0].when, heap[0].seq) < (when, seq):
            return False
        self._now = when
        return True

    def call_again(self, handle: TimerHandle, when: float) -> None:
        """Schedule a handle whose callback is running again at `when`,
        keeping its tie-break number."""
        handle.when = max(when, self._now)
        heapq.heappush(self._heap, handle)


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


class DeadlineMap(dict):
    """Entries that each wait the same `delay`, released by one timer.

    `add()` sets a value's `deadline` to `delay` from now, on a clock that
    never goes back, so insertion order is deadline order and a key removed
    and added again is a fresh entry at the back.  While entries remain, one
    timer is pending at or before the oldest deadline; it hands each due
    key, oldest first, to `on_due`, which must remove it, then re-arms for
    the next.  Removing an entry early cancels no timer.
    """

    def __init__(self, scheduler, delay: float, on_due: Callable[[Hashable], None]):
        super().__init__()
        self._scheduler = scheduler
        self._delay = delay
        self._on_due = on_due
        self._timer = None

    def add(self, key: Hashable, value: Any) -> None:
        """Hold `value` under a key the map lacks; it gets a `deadline`."""
        value.deadline = self._scheduler.now() + self._delay
        self[key] = value
        if self._timer is None:
            self._timer = self._scheduler.call_at(value.deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        self._timer = None
        now = self._scheduler.now()
        while self:
            key, value = next(iter(self.items()))
            if value.deadline > now:
                self._timer = self._scheduler.call_at(value.deadline, self._on_deadline)
                return
            self._on_due(key)
