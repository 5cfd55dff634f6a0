"""The correlation engine.

One `Engine` terminates agent telemetry arriving over the overlay, folds it
into the host-state store, attributes flow reports to (host, process, user),
feeds attributed flows to the detectors, and writes the enriched flow log,
the alert log, and (optionally) a verbatim record of every input for later
replay.  The scheduler's lock owns all engine state: every entry point takes
it, and the wall-clock scheduler runs each timer callback while holding it,
so flows and telemetry may be pushed from any thread.
"""

from __future__ import annotations

import collections
import itertools
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

from .agents import QueryErrorResult
from .config import EngineConfig
from .correlate import (
    AddressIndex,
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
)
from .model import Action, HostEvent, SnapshotBatch, TableKind
from .overlay import InProcessBus, Interest, OverlayNode, host_group
from .state import HostStateStore, StateError

ENGINE_NODE_ID = "engine"

# Streamed (evented) tables and the snapshot tables probed on a period.
STREAM_TABLES = ("process_events", "socket_events", "tls_keys")
PROBE_TABLES = ("processes", "process_open_sockets", "listening_ports",
                "users", "interfaces")

FLOWS_LOG = "conn.log"
ALERTS_LOG = "alerts.log"
INPUTS_LOG = "inputs.log"


@dataclass
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


class Engine:
    def __init__(self, config: EngineConfig, scheduler,
                 bus: Optional[InProcessBus] = None,
                 outputs: Optional[EngineOutputs] = None):
        self.config = config
        self.scheduler = scheduler
        self.bus = bus or InProcessBus(scheduler)
        self.node = OverlayNode(ENGINE_NODE_ID, self.bus, roles=config.roles)
        self.lock = scheduler.lock
        self.counters: collections.Counter = collections.Counter()

        self.store = HostStateStore(clock=scheduler.now,
                                    grace_period=config.grace_period)
        self.index = AddressIndex()
        self.metrics = AttributionMetrics(filtered_responders=config.dns_servers)
        self.correlator = Correlator(
            self.store, self.index, emit=self._on_attributed,
            scheduler=scheduler, retry_window=config.retry_window,
            max_parked=config.max_parked,
            ambiguity_window=config.exec_ambiguity_window)
        # the index must see changes before the correlator retries against it
        self.store.add_listener(self.index.apply_change)
        self.store.add_listener(self.correlator.on_state_change)

        self.downloads = DownloadStore(retention=config.download_retention)
        self.attachments = AttachmentDetector(
            self.downloads, self._publish_one_time, self._retract_quietly,
            self._on_alert, scheduler, query_timeout=config.hash_query_timeout)
        self.stepping = SteppingStoneDetector(
            self._publish_one_time, self._retract_quietly, self._on_alert,
            scheduler, pairing_window=config.ssh_pairing_window,
            query_timeout=config.hash_query_timeout)

        self.alerts: list[Alert] = []
        self.result_sinks: list = []

        self.outputs = outputs or EngineOutputs()
        self._flow_writer = (EnrichedFlowWriter(self.outputs.flows)
                             if self.outputs.flows else None)
        self._alert_writer = (AlertWriter(self.outputs.alerts)
                              if self.outputs.alerts else None)
        self._recorder = (InputRecorder(self.outputs.inputs)
                          if self.outputs.inputs else None)

        self._qid = itertools.count(1)
        self._verify_seq = itertools.count(1)
        self._verify_iid: dict[str, str] = {}
        self._verify_timers: dict[str, object] = {}
        self._housekeeping_timer = None
        self._started = False
        self._shut_down = False

        self.node.add_result_handler(self._on_result)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Publish the standing interests every monitored host serves."""
        with self.lock:
            if self._started:
                return
            self._started = True
            for table in STREAM_TABLES:
                self.node.publish_interest(Interest(
                    interest_id=f"stream/{table}", query=f"{table} EVERY 1s",
                    group="all", period=1.0))
            for table in PROBE_TABLES:
                self.node.publish_interest(Interest(
                    interest_id=f"probe/{table}",
                    query=f"{table} EVERY {self.config.probe_interval:g}s",
                    group="all", period=self.config.probe_interval))
            self._housekeeping()

    def _housekeeping(self) -> None:
        if self._shut_down:
            return
        self.store.expire_disconnected()
        self._housekeeping_timer = self.scheduler.call_later(
            self.config.grace_period / 2, self._housekeeping)

    def register_host(self, host: str) -> None:
        with self.lock:
            self._record("host_up", {"host": host})
            self.store.handle_reconnect(host)
            old = self._verify_timers.pop(host, None)
            if old is not None:
                self.scheduler.cancel(old)
            self._verify_timers[host] = self.scheduler.call_later(
                self.config.verification_interval, self._verify_tick, host)

    def deregister_host(self, host: str) -> None:
        with self.lock:
            self._record("host_down", {"host": host})
            self.store.handle_disconnect(host)
            timer = self._verify_timers.pop(host, None)
            if timer is not None:
                self.scheduler.cancel(timer)
            iid = self._verify_iid.pop(host, None)
            if iid is not None:
                self._retract_quietly(iid)

    def _verify_tick(self, host: str) -> None:
        if self._shut_down or host not in self.store.connected_hosts():
            self._verify_timers.pop(host, None)
            return
        previous = self._verify_iid.get(host)
        if previous is not None:
            self._retract_quietly(previous)
        iid = f"verify/{host}/{next(self._verify_seq)}"
        self._verify_iid[host] = iid
        self.node.publish_interest(Interest(
            interest_id=iid, query="verification",
            group=host_group(host), one_time=True))
        self._verify_timers[host] = self.scheduler.call_later(
            self.config.verification_interval, self._verify_tick, host)

    def shutdown(self) -> None:
        """Finalize parked flows (each exactly once) and flush every sink."""
        with self.lock:
            if self._shut_down:
                return
            self._shut_down = True
            for timer in self._verify_timers.values():
                self.scheduler.cancel(timer)
            self._verify_timers.clear()
            if self._housekeeping_timer is not None:
                self.scheduler.cancel(self._housekeeping_timer)
            self.correlator.flush()
            if self._recorder is not None:
                self._recorder.close()
            self.outputs.close()

    # -- one-time query plumbing for detectors -----------------------------------

    def _publish_one_time(self, query: str, host: str) -> str:
        iid = f"q/{next(self._qid)}"
        self.node.publish_interest(Interest(
            interest_id=iid, query=query, group=host_group(host),
            one_time=True))
        return iid

    def _retract_quietly(self, interest_id: str) -> None:
        self.node.retract_interest(interest_id)

    # -- ingest -----------------------------------------------------------------

    def submit_flow(self, record: FlowRecord) -> None:
        with self.lock:
            if self._recorder is not None:
                self._record("flow", record.to_dict())
            self.counters["flows_in"] += 1
            self.correlator.submit(record.flow_tuple(), record.ts, record.end,
                                   tag=record)

    def submit_download(self, ev: DownloadEvent) -> None:
        with self.lock:
            self._record("download", ev.to_dict())
            self.counters["downloads_in"] += 1
            self.attachments.on_download(ev)

    def ingest_result(self, topic: str, payload) -> None:
        """Entry point for replay and transports that bypass the bus."""
        self._on_result(topic, payload)

    def _on_result(self, topic: str, payload) -> None:
        with self.lock:
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
        if batch.verification or batch.table is TableKind.VERIFICATION:
            try:
                self.store.verify(batch)
            except StateError:
                self.counters["verify_while_down"] += 1
        elif batch.table is TableKind.FILE_HASH:
            self.attachments.on_file_hash(batch, now)
        elif batch.table is TableKind.PROCESS_DESCENDANTS:
            self.stepping.on_descendants(batch, now)
        else:
            self.store.merge_snapshot(batch)

    # -- outputs -----------------------------------------------------------------

    def _on_attributed(self, result: AttributionResult) -> None:
        self.counters["flows_out"] += 1
        self.metrics.observe(result)
        if self._flow_writer is not None:
            if isinstance(result.tag, FlowRecord):
                self._flow_writer.write(result.tag, result)
            else:
                self.counters["unlogged_results"] += 1
        self.stepping.on_attributed(result, self.scheduler.now())
        for sink in self.result_sinks:
            sink(result)

    def _on_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        self.counters["alerts"] += 1
        if self._alert_writer is not None:
            self._alert_writer.write(alert.to_dict())

    def _record(self, kind: str, data: dict, topic: str = "") -> None:
        if self._recorder is not None:
            self._recorder.record(self.scheduler.now(), kind, data, topic)

    # -- introspection -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._shut_down

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
            out["hosts"] = {"known": self.store.hosts(),
                            "connected": self.store.connected_hosts()}
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
    from .runtime import EventLoop

    loop = EventLoop()
    engine = Engine(config, loop, outputs=outputs)
    fleet = FleetSimulator(
        workload, loop, engine.node,
        flow_sink=engine.submit_flow, download_sink=engine.submit_download,
        register_host=engine.register_host,
        deregister_host=engine.deregister_host, groups=config.groups)
    engine.start()
    fleet.start()
    if until is None:
        until = workload.spec.duration
        if workload.actions:
            until = max(until, workload.actions[-1].time)
        if workload.flows:
            until = max(until, max(f.end for f in workload.flows))
        until += config.retry_window + 1.0
    loop.run_until(until)
    engine.shutdown()
    return engine


# --- replay -------------------------------------------------------------------------


def schedule_replay(engine: Engine, entries: Iterable[dict]) -> int:
    """Schedule recorded inputs onto the engine's scheduler at their original
    times; the caller then drives the scheduler.  Returns the entry count."""
    n = 0
    for entry in entries:
        t = float(entry["t"])
        kind = entry["kind"]
        data = entry["data"]
        topic = entry.get("topic", "")
        if kind == "flow":
            engine.scheduler.call_at(t, engine.submit_flow,
                                     FlowRecord.from_dict(data))
        elif kind == "download":
            engine.scheduler.call_at(t, engine.submit_download,
                                     DownloadEvent.from_dict(data))
        elif kind == "host_up":
            engine.scheduler.call_at(t, engine.register_host, data["host"])
        elif kind == "host_down":
            engine.scheduler.call_at(t, engine.deregister_host, data["host"])
        elif kind == "host_event":
            engine.scheduler.call_at(t, engine.ingest_result, topic,
                                     HostEvent.from_dict(data))
        elif kind == "snapshot":
            engine.scheduler.call_at(t, engine.ingest_result, topic,
                                     SnapshotBatch.from_dict(data))
        elif kind == "query_error":
            engine.scheduler.call_at(t, engine.ingest_result, topic,
                                     QueryErrorResult.from_dict(data))
        else:
            engine.counters["replay_unknown_kind"] += 1
            continue
        n += 1
    return n
