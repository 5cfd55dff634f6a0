"""The correlation engine.

One `Engine` terminates agent telemetry arriving over the overlay, folds it
into the host-state store, attributes flow reports to (host, process, user),
feeds attributed flows to the detectors, and writes the enriched flow log,
the alert log, and (optionally) a verbatim record of every input for later
replay.  All periodic host work rides standing interests published at
`start()`: the streamed tables, the probed tables and the verification pass
are each one schedule entry that every agent runs on its own timer.  The
engine's one per-host timer is one-shot: a disconnect that freezes a host's
state arms it, and it expires that state when the grace period ends, unless
a reconnect replaced it.  The engine alone knows the grace period.  The
scheduler's lock owns all engine state: every entry point takes it, and the
wall-clock scheduler runs each timer callback while holding it, so flows
and telemetry may be pushed from any thread.  Once `shutdown()` has run,
the entry points that record or emit refuse their input and count it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional

from .config import EngineConfig
from .correlate import (
    AttributionMetrics,
    AttributionResult,
    Correlator,
)
from .detect import Alert, AttachmentDetector, DownloadStore, SteppingStoneDetector
from .flowlog import (
    AlertWriter,
    DownloadEvent,
    EnrichedFlowWriter,
    FlowRecord,
    InputRecorder,
    LogFormatError,
)
from .model import Action, HostEvent, QueryErrorResult, SnapshotBatch, TableKind
from .overlay import InProcessBus, Interest, OverlayNode, host_group
from .runtime import EventLoop
from .state import HostState, HostStateStore

ENGINE_NODE_ID = "engine"

# Streamed (evented) tables and the snapshot tables probed on a period.
STREAM_TABLES = ("process_events", "socket_events")
PROBE_TABLES = ("processes", "process_open_sockets", "listening_ports",
                "users", "interfaces")

FLOWS_LOG = "conn.log"
ALERTS_LOG = "alerts.log"
INPUTS_LOG = "inputs.log"


@dataclass(slots=True)
class EngineOutputs:
    """Open text sinks; any of them may be absent.  `owns` marks streams the
    engine opened itself and should close on shutdown (callers handing in
    their own buffers keep them readable afterwards)."""

    flows: Optional[IO[str]] = None
    alerts: Optional[IO[str]] = None
    inputs: Optional[IO[str]] = None
    owns: bool = field(default=False, compare=False)

    def close(self) -> None:
        for stream in (self.flows, self.alerts, self.inputs):
            if stream is not None and not stream.closed:
                stream.flush()
                if self.owns:
                    stream.close()


def open_outputs(log_dir: str, record_inputs: bool = False) -> EngineOutputs:
    os.makedirs(log_dir, exist_ok=True)
    return EngineOutputs(
        flows=open(os.path.join(log_dir, FLOWS_LOG), "w"),
        alerts=open(os.path.join(log_dir, ALERTS_LOG), "w"),
        inputs=open(os.path.join(log_dir, INPUTS_LOG), "w")
        if record_inputs else None,
        owns=True,
    )


def _entry_point(method):
    """Run an entry point under the engine lock; after `shutdown()`, count
    the call in `refused_after_shutdown` and do nothing."""
    @functools.wraps(method)
    def guarded(self, *args):
        with self.lock:
            if self._shut_down:
                self.counters["refused_after_shutdown"] += 1
                return
            method(self, *args)
    return guarded


class Engine:
    def __init__(self, config: EngineConfig, scheduler,
                 outputs: Optional[EngineOutputs] = None):
        self.config = config
        self.scheduler = scheduler
        self.node = OverlayNode(ENGINE_NODE_ID, InProcessBus(scheduler))
        self.lock = scheduler.lock
        self.counters: collections.Counter = collections.Counter()

        self.store = HostStateStore(clock=scheduler.now)
        self.metrics = AttributionMetrics(filtered_responders=config.dns_servers)
        self.correlator = Correlator(
            self.store, emit=self._on_attributed,
            scheduler=scheduler, retry_window=config.retry_window,
            max_parked=config.max_parked)
        self.store.add_listener(self.correlator.on_state_change)

        self.downloads = DownloadStore()
        self.attachments = AttachmentDetector(
            self.downloads, self._publish_one_time, self.node.retract_interest,
            self._on_alert, scheduler)
        self.stepping = SteppingStoneDetector(self.store.view, self._on_alert)

        self.alerts: list[Alert] = []
        self._alert_ids: set[tuple[str, str]] = set()
        self.result_sinks: list = []

        self.outputs = outputs or EngineOutputs()
        self._flow_writer = (EnrichedFlowWriter(self.outputs.flows)
                             if self.outputs.flows else None)
        self._alert_writer = (AlertWriter(self.outputs.alerts)
                              if self.outputs.alerts else None)
        self._recorder = (InputRecorder(self.outputs.inputs)
                          if self.outputs.inputs else None)

        self._qid = itertools.count(1)
        self._started = False
        self._shut_down = False

        self.node.add_result_handler(self.ingest_result)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Publish the standing interests every monitored host serves."""
        with self.lock:
            if self._started:
                return
            self._started = True
            for table in STREAM_TABLES:
                self.node.publish_interest(Interest(
                    interest_id=f"stream/{table}", query=table, group="all",
                    period=1.0))
            for table in PROBE_TABLES:
                self.node.publish_interest(Interest(
                    interest_id=f"probe/{table}", query=table, group="all",
                    period=self.config.probe_interval))
            self.node.publish_interest(Interest(
                interest_id="verification", query="verification", group="all",
                period=self.config.verification_interval))

    @_entry_point
    def register_host(self, host: str) -> None:
        self._record("host_up", {"host": host})
        self.store.handle_reconnect(host)

    @_entry_point
    def deregister_host(self, host: str) -> None:
        """Freeze the host's state and arm one timer that expires it at
        `disconnected_at + grace_period`.  A host that is unknown or already
        down freezes nothing and arms no timer."""
        self._record("host_down", {"host": host})
        frozen = self.store.handle_disconnect(host)
        if frozen is not None:
            self.scheduler.call_later(self.config.grace_period, self._expire, frozen)

    def _expire(self, frozen: HostState) -> None:
        if not self._shut_down:
            self.store.expire(frozen)

    def shutdown(self) -> None:
        """Finalize parked flows (each exactly once) and flush every sink."""
        with self.lock:
            if self._shut_down:
                return
            self._shut_down = True
            self.correlator.flush()
            self.outputs.close()

    # -- one-time query plumbing for detectors -----------------------------------

    def _publish_one_time(self, query: str, host: str) -> str:
        iid = f"q/{next(self._qid)}"
        self.node.publish_interest(Interest(
            interest_id=iid, query=query, group=host_group(host),
            one_time=True))
        return iid

    # -- ingest -----------------------------------------------------------------

    @_entry_point
    def submit_flow(self, record: FlowRecord) -> None:
        if self._recorder is not None:
            self._record("flow", record.to_dict())
        self.counters["flows_in"] += 1
        self.correlator.submit(record.flow_tuple(), record.ts, record.end,
                               tag=record)

    @_entry_point
    def submit_download(self, ev: DownloadEvent) -> None:
        self._record("download", ev.to_dict())
        self.counters["downloads_in"] += 1
        self.attachments.on_download(ev)

    @_entry_point
    def ingest_result(self, topic: str, payload) -> None:
        """Fold one agent result that arrived on `topic`: the node's result
        handler, and the entry point for replay and transports that bypass
        the bus."""
        now = self.scheduler.now()
        if isinstance(payload, HostEvent):
            if self._recorder is not None:
                self._record("host_event", payload.to_dict(), topic)
            self.counters["events_in"] += 1
            self.store.apply_event(payload)
            if (payload.table is TableKind.PROCESS_EVENTS
                    and payload.action is Action.ADDED):
                self.attachments.on_process_added(payload.payload, now)
        elif isinstance(payload, SnapshotBatch):
            if self._recorder is not None:
                self._record("snapshot", payload.to_dict(), topic)
            self.counters["batches_in"] += 1
            self._dispatch_batch(payload, now)
        elif isinstance(payload, QueryErrorResult):
            self._record("query_error", payload.to_dict(), topic)
            self.counters["query_errors"] += 1
        else:
            self.counters["unroutable_results"] += 1

    def _dispatch_batch(self, batch: SnapshotBatch, now: float) -> None:
        if batch.table is TableKind.FILE_HASH:
            self.attachments.on_file_hash(batch, now)
        else:
            self.store.merge_snapshot(batch)

    # -- outputs -----------------------------------------------------------------

    def _on_attributed(self, result: AttributionResult) -> None:
        self.counters["flows_out"] += 1
        self.metrics.observe(result)
        if self._flow_writer is not None:
            self._flow_writer.write(result.tag, result)
        self.stepping.on_attributed(result, self.scheduler.now())
        for sink in self.result_sinks:
            sink(result)

    def _on_alert(self, alert: Alert) -> None:
        """Keep, count and log each alert identity once; count repeats."""
        identity = alert.identity
        if identity in self._alert_ids:
            self.counters["alerts_duplicate"] += 1
            return
        self._alert_ids.add(identity)
        self.alerts.append(alert)
        self.counters["alerts"] += 1
        if self._alert_writer is not None:
            self._alert_writer.write(alert.to_dict())

    def _record(self, kind: str, data: dict, topic: str = "") -> None:
        if self._recorder is not None:
            self._recorder.record(self.scheduler.now(), kind, data, topic)

    # -- introspection -------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        with self.lock:
            out = self.metrics.snapshot()
            out["counters"] = {
                "engine": dict(self.counters),
                "correlator": dict(self.correlator.counters),
                "store": dict(self.store.counters),
                "overlay": dict(self.node.counters),
                "attachments": dict(self.attachments.counters),
                "stepping": dict(self.stepping.counters),
            }
            out["parked"] = self.correlator.parked_count
            out["parked_by_proto"] = self.correlator.parked_by_proto
            out["hosts"] = {"known": len(self.store.hosts()),
                            "connected": len(self.store.connected_hosts())}
            out["alerts"] = len(self.alerts)
            return out

    def state_dump(self) -> dict:
        with self.lock:
            return {"hosts": self.store.connected_hosts(),
                    "records": list(self.store.dump_records())}


# --- simulation driver -----------------------------------------------------------


def run_simulation(config: EngineConfig, workload,
                   outputs: Optional[EngineOutputs] = None,
                   until: Optional[float] = None) -> Engine:
    """Run a workload against a fresh engine on virtual time and shut down
    cleanly; returns the engine for inspection (its scheduler is the loop)."""
    from .agents import FleetSimulator

    loop = EventLoop()
    engine = Engine(config, loop, outputs=outputs)
    fleet = FleetSimulator(
        workload, loop, engine.node,
        flow_sink=engine.submit_flow, download_sink=engine.submit_download,
        register_host=engine.register_host,
        deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()
    if until is None:
        until = workload.end + config.retry_window + 1.0
    loop.run_until(until)
    engine.shutdown()
    return engine


# --- replay -------------------------------------------------------------------------

# recorded kind -> the `Engine` entry point that replays it, and the
# decoder of its arguments from the entry's data and topic
_REPLAYED = {
    "flow": ("submit_flow", lambda data, topic: (FlowRecord.from_dict(data),)),
    "download": ("submit_download",
                 lambda data, topic: (DownloadEvent.from_dict(data),)),
    "host_up": ("register_host", lambda data, topic: (data["host"],)),
    "host_down": ("deregister_host", lambda data, topic: (data["host"],)),
    "host_event": ("ingest_result",
                   lambda data, topic: (topic, HostEvent.from_dict(data))),
    "snapshot": ("ingest_result",
                 lambda data, topic: (topic, SnapshotBatch.from_dict(data))),
    "query_error": ("ingest_result",
                    lambda data, topic: (topic, QueryErrorResult.from_dict(data))),
}


def decode_inputs(entries: Iterable[dict]) -> Iterator[tuple]:
    """Decode recorded inputs, in order, into `(t, entry point, args)`: the
    time and the `Engine` method name and arguments that replay each one;
    an unknown kind yields a `None` entry point.  A malformed entry, or one
    whose time is not finite, raises `LogFormatError` naming its position
    (from 1) and the cause."""
    for pos, entry in enumerate(entries, 1):
        try:
            t = float(entry["t"])
            kind = entry["kind"]
            data = entry["data"]
            topic = entry.get("topic", "")
            if not math.isfinite(t):
                raise ValueError(f"t: expected a finite time, got {t!r}")
            method, decode = _REPLAYED.get(kind, (None, None))
            yield t, method, (decode(data, topic) if decode else ())
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise LogFormatError(
                f"inputs entry {pos}: {type(exc).__name__}: {exc}") from exc


class _ReplayFeeder:
    """Runs recorded inputs on the engine's `EventLoop` from one tick.

    The tick decodes entries in file order and calls each one's entry point
    inline, at its time, for as long as the entry is due within the current
    `run_until` and no pending timer sorts before it.  Otherwise it holds
    the entry back, puts itself back on the loop at the entry's time, and
    returns.  The tick's tie-break number is taken when the feeder is made,
    after `Engine.start()`, so at equal times an entry runs after `start()`'s
    timers, in file order, and before every timer the engine schedules at
    run time: the order that scheduling every entry up front would give.
    An entry whose time lies behind the clock runs at the clock's time.
    Entry points are looked up when each entry runs, so one replaced on the
    engine after the feeder was made is the one called.  Once every entry
    has run, the feeder leaves no timer on the loop.
    """

    def __init__(self, engine: Engine, entries: Iterable[dict]):
        self._engine = engine
        self._loop = engine.scheduler
        self._decoded = decode_inputs(entries)
        self._held: Optional[tuple] = None  # decoded, not yet run
        self.fed = 0                # entries of a known kind run
        self._handle = self._loop.call_at(self._loop.now(), self._tick)

    def _tick(self) -> None:
        engine, loop, seq = self._engine, self._loop, self._handle.seq
        held, self._held = self._held, None
        for entry in itertools.chain([held] if held else [], self._decoded):
            t, method, args = entry
            if not loop.try_advance(t, seq):
                self._held = entry
                loop.call_again(self._handle, t)
                return
            if method is None:
                engine.counters["replay_unknown_kind"] += 1
            else:
                getattr(engine, method)(*args)
                self.fed += 1


def schedule_replay(engine: Engine, entries: Iterable[dict]) -> int:
    """Queue recorded inputs on the engine's `EventLoop` at their original
    times; call it after `Engine.start()`, then run the loop.  `entries` is
    read to a list now (a list is kept as it is), and the count of entries
    of a known kind is returned; the loop then decodes and runs them one by
    one as its clock reaches them (`_ReplayFeeder`).  A malformed entry
    therefore raises `LogFormatError` from `run_until`, when the loop
    decodes it: only after every entry before it has run.  Entries whose
    `t` goes backwards run at the clock's time, in file order; unknown kinds
    are counted in `replay_unknown_kind` as they are reached."""
    if not isinstance(entries, list):
        entries = list(entries)
    _ReplayFeeder(engine, entries)
    return sum(1 for e in entries if isinstance(e, dict)
               and isinstance(e.get("kind"), str) and e["kind"] in _REPLAYED)


def replay(engine: Engine, entries: Iterable[dict]) -> tuple[int, float]:
    """Replay recorded inputs on the engine's `EventLoop`, reading `entries`
    only as the clock reaches them, and run until no timer is left; call it
    after `Engine.start()`, on a loop that no agent shares (the engine's own
    timers are all one-shot).  Returns the count of entries of a known kind
    and the time of the last timer run: the last entry, a parked flow's
    deadline, a detector's query timeout or a disconnected host's expiry.
    Decoding fails as in `schedule_replay`."""
    feeder = _ReplayFeeder(engine, entries)
    engine.scheduler.run_until_idle()
    return feeder.fed, engine.scheduler.now()
