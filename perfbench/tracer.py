"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each flowlink layer
(engine, state, correlate, model, flowlog, detect, runtime, overlay) in
place and `uninstall()` puts the originals back.  A wrapped call records a
span: name, start, end, parent span and the uid of the flow that caused it.
Spans are kept in memory in flat arrays and written out at the end.  Each
thread keeps its own span stack and tallies; `summary()` merges them.

A layer's self time is its span's duration minus the time covered by its
child spans.  `match_socket` runs thousands of times per flow on dense
hosts, so it is counted, not spanned.
"""

from __future__ import annotations

import array
import collections
import itertools
import threading
import time

from flowlink import correlate, detect, engine, flowlog, model, overlay, runtime, state

_ns = time.perf_counter_ns


class _Tally:
    """One thread's tallies: name -> [calls, busy_ns, self_ns], plus counts."""

    def __init__(self):
        self.spans: dict[str, list[int]] = collections.defaultdict(lambda: [0, 0, 0])
        self.counts: collections.Counter = collections.Counter()
        self.timer_late_us: list[float] = []
        self.stack: list[list] = []


class _TimedLock:
    """Stands in for `Engine.lock` and adds the time spent acquiring it."""

    def __init__(self, lock, tracer: "Tracer"):
        self._lock = lock
        self._tracer = tracer

    def acquire(self, *args, **kwargs):
        t0 = _ns()
        got = self._lock.acquire(*args, **kwargs)
        self._tracer._tally().counts["engine.lock.wait_ns"] += _ns() - t0
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


def _record_uid(args):
    return args[1].uid


def _result_uid(args):
    tag = args[1].tag
    return getattr(tag, "uid", None)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tallies: list[_Tally] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self.uid_by_tuple: dict[tuple, str] = {}
        self.park_peak = 0              # parked flows, sampled after each submit
        self.timer_late_from = 0.0      # wall time; earlier-due timers are not sampled
        # flat span store: parallel arrays, names and uids interned
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.uids: list[str] = [""]
        self._uid_ix: dict[str, int] = {"": 0}
        self.span_cols = {k: array.array("q") for k in
                          ("id", "start", "end", "parent", "name", "uid")}
        self._span_lock = threading.Lock()

    # -- spans -----------------------------------------------------------------

    def _tally(self) -> _Tally:
        t = getattr(self._local, "tally", None)
        if t is None:
            t = self._local.tally = _Tally()
            self._tallies.append(t)
        return t

    def _intern(self, table: list, index: dict, key: str) -> int:
        ix = index.get(key)
        if ix is None:
            ix = index[key] = len(table)
            table.append(key)
        return ix

    def run_span(self, name: str, fn, args, kwargs, uid=None):
        tally = self._tally()
        stack = tally.stack
        parent = stack[-1] if stack else None
        if uid is None and parent is not None:
            uid = parent[2]
        frame = [next(self._ids), 0, uid, name]
        stack.append(frame)
        t0 = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _ns()
            stack.pop()
            busy = t1 - t0
            if parent is not None:
                parent[1] += busy
            st = tally.spans[name]
            st[0] += 1
            st[1] += busy
            st[2] += busy - frame[1]
            with self._span_lock:
                cols = self.span_cols
                cols["id"].append(frame[0])
                cols["start"].append(t0)
                cols["end"].append(t1)
                cols["parent"].append(parent[0] if parent else 0)
                cols["name"].append(self._intern(self.names, self._name_ix, name))
                cols["uid"].append(self._intern(self.uids, self._uid_ix, uid or ""))

    def _spanned(self, name: str, fn, uid_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            uid = uid_of(args) if uid_of is not None else None
            return tracer.run_span(name, fn, args, kwargs, uid)
        return wrapper

    def callback(self, fn, args) -> None:
        """Run one scheduler callback as a `runtime.callback` span."""
        self.run_span("runtime.callback", fn, args, {})

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr: str, name: str, uid_of=None) -> None:
        self._patch(cls, attr, self._spanned(name, cls.__dict__[attr], uid_of))

    def _patch_classmethod(self, cls, attr: str, name: str) -> None:
        func = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self._spanned(name, func)))

    def install(self) -> None:
        """Wrap every layer.  Engines built afterwards are traced; their
        listeners bind the wrapped methods at construction."""
        tracer = self
        E, S, C = engine.Engine, state.HostStateStore, correlate.Correlator

        orig_submit = E.__dict__["submit_flow"]

        def submit_flow(eng, record):
            ft = record.flow_tuple()
            tracer.uid_by_tuple[(ft.orig_addr, ft.orig_port, ft.resp_addr,
                                 ft.resp_port, ft.proto)] = record.uid
            tracer.run_span("engine.submit_flow", orig_submit, (eng, record),
                            {}, record.uid)
            depth = eng.correlator.parked_count
            counts = tracer._tally().counts
            counts["correlate.parked.samples"] += 1
            counts["correlate.parked.sum"] += depth
            tracer.park_peak = max(tracer.park_peak, depth)
        self._patch(E, "submit_flow", submit_flow)
        self._patch_method(E, "ingest_result", "engine.ingest_result")
        self._patch_method(E, "register_host", "engine.register_host")
        self._patch_method(E, "deregister_host", "engine.deregister_host")
        for attr in ("apply_event", "merge_snapshot", "verify", "view"):
            self._patch_method(S, attr, f"state.{attr}")
        self._patch_method(C, "on_state_change", "correlate.on_state_change")
        self._patch_method(correlate.AddressIndex, "apply_change",
                           "correlate.index.apply_change")
        self._patch_method(correlate.AttributionMetrics, "observe",
                           "correlate.metrics.observe", _result_uid)
        self._patch_method(flowlog.EnrichedFlowWriter, "write",
                           "flowlog.enriched_write", _record_uid)
        self._patch_method(detect.SteppingStoneDetector, "on_attributed",
                           "detect.on_attributed", _result_uid)
        self._patch_method(detect.AttachmentDetector, "on_process_added",
                           "detect.on_process_added")
        for cls in (model.HostEvent, model.SnapshotBatch, flowlog.FlowRecord):
            self._patch_classmethod(cls, "from_dict", "model.from_dict")

        orig_attribute = correlate.attribute

        def attribute(flow, *args, **kwargs):
            tally = tracer._tally()
            if tally.stack and tally.stack[-1][3] == "correlate.on_state_change":
                tally.counts["correlate.retry.attempts"] += 1
            uid = tracer.uid_by_tuple.get((flow.orig_addr, flow.orig_port,
                                           flow.resp_addr, flow.resp_port,
                                           flow.proto))
            return tracer.run_span("correlate.attribute", orig_attribute,
                                   (flow,) + args, kwargs, uid)
        self._patch(correlate, "attribute", attribute)

        orig_match = correlate.match_socket
        none = model.MatchQuality.NONE

        def match_socket(flow, side, sock):
            quality = orig_match(flow, side, sock)
            counts = tracer._tally().counts
            counts["model.match_socket.calls"] += 1
            if quality is not none:
                counts["model.match_socket.useful"] += 1
            return quality
        self._patch(correlate, "match_socket", match_socket)

        orig_publish = overlay.OverlayNode.__dict__["publish_interest"]

        def publish_interest(node, interest):
            counts = tracer._tally().counts
            counts["overlay.publish_interest.calls"] += 1
            if interest.interest_id.startswith("q/"):
                counts["detect.queries"] += 1
            return orig_publish(node, interest)
        self._patch(overlay.OverlayNode, "publish_interest", publish_interest)

        # Scheduler calls are counted only when engine code makes them (some
        # span is open), not when the benchmark schedules its own inputs.
        for cls in (runtime.EventLoop, runtime.WallScheduler):
            self._patch(cls, "cancel", self._counted(cls.__dict__["cancel"],
                                                     "runtime.cancel.calls"))
        self._patch(runtime.EventLoop, "call_at", self._counted(
            runtime.EventLoop.__dict__["call_at"], "runtime.call_at.calls"))
        orig_wall_call_at = runtime.WallScheduler.__dict__["call_at"]

        def wall_call_at(sched, when, fn, *args):
            tally = tracer._tally()
            if tally.stack:
                tally.counts["runtime.call_at.calls"] += 1
            return orig_wall_call_at(sched, when, tracer._late_stamped, when, fn, args)
        self._patch(runtime.WallScheduler, "call_at", wall_call_at)

    def _counted(self, fn, key: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tally = tracer._tally()
            if tally.stack:
                tally.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _late_stamped(self, when: float, fn, args) -> None:
        if when >= self.timer_late_from:
            self._tally().timer_late_us.append((time.time() - when) * 1e6)
        self.callback(fn, args)

    def wrap_lock(self, eng) -> None:
        eng.lock = _TimedLock(eng.lock, self)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------------

    def summary(self) -> tuple[dict, collections.Counter, list[float]]:
        """Merged (name -> [calls, busy_s, self_s], counts, timer lateness)."""
        spans: dict[str, list[float]] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        counts: collections.Counter = collections.Counter()
        late: list[float] = []
        for t in self._tallies:
            for name, (calls, busy, own) in t.spans.items():
                agg = spans[name]
                agg[0] += calls
                agg[1] += busy / 1e9
                agg[2] += own / 1e9
            counts.update(t.counts)
            late.extend(t.timer_late_us)
        return spans, counts, late

    def write_spans(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the count."""
        cols = self.span_cols
        n = len(cols["id"])
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\tuid\n")
            for i in range(n):
                out.write(f"{cols['id'][i]}\t{self.names[cols['name'][i]]}\t"
                          f"{cols['start'][i]}\t{cols['end'][i]}\t"
                          f"{cols['parent'][i]}\t{self.uids[cols['uid'][i]] or '-'}\n")
        return n
