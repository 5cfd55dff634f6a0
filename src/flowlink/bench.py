"""Load and memory benchmarks for the correlation engine.

Throughput: one paced producer thread synthesizes every host's telemetry
cycles (process start, socket open, flow report, socket close, process exit)
in time order into a bounded queue; a single dispatch thread drains it into
the engine's locked entry points under wall-clock timers.  The queue models
the fleet's sources and measures how far they run ahead; it is not the live
service's path, where sources call the engine directly.  The producer blocks
rather than drops, so a consumer that cannot keep up shows as a lower
sustained rate and higher latency, never as silent loss.

Memory: engine state is built from serialized telemetry for increasing fleet
sizes on a virtual clock and the retained footprint is measured with
tracemalloc, then fit by least squares to check per-host growth is linear.
"""

from __future__ import annotations

import gc
import json
import math
import queue
import statistics
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass

from .agents import ENGINE_TOPIC, SimAgent, _baseline
from .config import EngineConfig
from .engine import Engine
from .flowlog import FlowRecord
from .model import (Action, Direction, HostEvent, ProcessInfo, Proto,
                    SnapshotBatch, SocketInfo, Source, TableKind)
from .runtime import EventLoop, WallScheduler

REPORT_FORMAT = "bench-report v1"

# Synthetic remote endpoint every benchmark socket talks to; outside the
# simulated fleet's address plan so the responder side is always external.
SINK_ADDR = "198.51.100.10"
SINK_PORT = 443
WORKER_PATH = "/usr/local/bin/bench-worker"

# One workload cycle is four telemetry events plus one flow report, so a host
# emits 4 / cycle_period events per second.  Offsets are fractions of the
# cycle: open strictly precedes the flow report, which precedes close.
STEPS_PER_CYCLE = 4
_STEP_OFFSETS = (0.0, 0.25, 0.45, 0.50, 0.75)
_STEP_FLOW = 2

# Run the producer ~1% hot so the floor check measures engine capacity, not
# scheduling rounding at exactly the target rate.
_PACE = 0.99

# Bound of the ingest queue between the producer and the dispatch loop.
QUEUE_CAPACITY = 4096

# Rows each memory-scaling host holds beyond its baseline snapshot.
_EXTRA_PROCS = 4
_EXTRA_SOCKETS = 8


# --- reports ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ThroughputReport:
    hosts: int
    rate_per_host: float
    requested_duration: float
    elapsed: float
    events_in: int
    events_processed: int
    flows_in: int
    flows_attributed: int
    events_per_sec: float
    event_latency_p99: float
    attrib_latency_p50: float
    attrib_latency_p95: float
    attrib_latency_p99: float
    queue_capacity: int
    queue_peak: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class MemoryPoint:
    hosts: int
    state_bytes: int


@dataclass(frozen=True, slots=True)
class MemoryReport:
    points: tuple[MemoryPoint, ...]
    slope_bytes_per_host: float
    intercept_bytes: float
    max_slope_deviation: float  # worst pairwise increment vs fitted slope

    def to_dict(self) -> dict:
        return {
            "points": [asdict(p) for p in self.points],
            "slope_bytes_per_host": self.slope_bytes_per_host,
            "intercept_bytes": self.intercept_bytes,
            "max_slope_deviation": self.max_slope_deviation,
        }


@dataclass(frozen=True, slots=True)
class BenchReport:
    throughput: ThroughputReport
    memory: MemoryReport

    def to_dict(self) -> dict:
        return {"version": REPORT_FORMAT,
                "throughput": self.throughput.to_dict(),
                "memory": self.memory.to_dict()}


def _percentiles(samples: list[float]) -> tuple[float, float, float]:
    if not samples:
        return (0.0, 0.0, 0.0)
    if len(samples) == 1:
        return (samples[0],) * 3
    qs = statistics.quantiles(samples, n=100, method="inclusive")
    return (qs[49], qs[94], qs[98])


# --- throughput ------------------------------------------------------------------


class _HostLoad:
    """Builds the five queue items of one telemetry cycle for one host."""

    __slots__ = ("host", "addr", "stagger")

    def __init__(self, host: str, addr: str, stagger: float):
        self.host = host
        self.addr = addr
        self.stagger = stagger

    def payload(self, cycle: int, step: int, cycle_start: float, scaled_cp: float):
        pid = 2000 + cycle % 977
        port = 20000 + (cycle * 7) % 40000
        stamp = cycle_start + _STEP_OFFSETS[step] * scaled_cp
        if step == 0:
            proc = ProcessInfo(self.host, pid, 1, WORKER_PATH, 1000,
                               cycle_start, Source.AUDIT)
            return HostEvent(self.host, TableKind.PROCESS_EVENTS, Action.ADDED,
                             proc, stamp)
        if step in (1, 3):
            sock = SocketInfo(self.host, pid, 7, Proto.TCP, Direction.OUTGOING,
                              Source.AUDIT, self.addr, port, SINK_ADDR,
                              SINK_PORT,
                              first_seen=cycle_start + _STEP_OFFSETS[1] * scaled_cp)
            action = Action.ADDED if step == 1 else Action.REMOVED
            return HostEvent(self.host, TableKind.SOCKET_EVENTS, action, sock,
                             stamp)
        if step == _STEP_FLOW:
            ts = cycle_start + 0.35 * scaled_cp
            return FlowRecord(ts=ts, uid=f"B-{self.host}-{cycle}",
                              orig_h=self.addr, orig_p=port, resp_h=SINK_ADDR,
                              resp_p=SINK_PORT, proto=Proto.TCP,
                              duration=0.09 * scaled_cp)
        proc = ProcessInfo(self.host, pid, 1, WORKER_PATH, 1000, cycle_start,
                           Source.AUDIT)
        return HostEvent(self.host, TableKind.PROCESS_EVENTS, Action.REMOVED,
                         proc, stamp)


def _produce(loads: list[_HostLoad], n_cycles: int, cycle_period: float,
             t0_mono: float, wall_t0: float, out: queue.Queue,
             stop: threading.Event) -> None:
    scaled_cp = cycle_period * _PACE
    template = sorted(
        ((load.stagger + off * cycle_period, step, load)
         for load in loads for step, off in enumerate(_STEP_OFFSETS)),
        key=lambda entry: (entry[0], entry[1]))
    for cycle in range(n_cycles):
        base = cycle * cycle_period
        for rel, step, load in template:
            if stop.is_set():
                return
            due = t0_mono + (base + rel) * _PACE
            wait = due - time.monotonic()
            if wait > 0.001:
                time.sleep(wait)
            cycle_start = wall_t0 + (base + load.stagger) * _PACE
            item = (time.monotonic(), step,
                    load.payload(cycle, step, cycle_start, scaled_cp))
            while not stop.is_set():
                try:
                    out.put(item, timeout=0.5)
                    break
                except queue.Full:
                    continue


def run_throughput(hosts: int, rate: float = 4.0,
                   duration: float = 300.0) -> ThroughputReport:
    if not (0 < rate < math.inf and 0 <= duration < math.inf):
        raise ValueError("rate must be positive and duration non-negative, "
                         "both finite")
    cycle_period = STEPS_PER_CYCLE / rate
    n_cycles = int(duration / cycle_period)

    scheduler = WallScheduler()
    engine = Engine(EngineConfig(), scheduler)
    engine.start()

    loads = []
    now = scheduler.now()
    for i in range(hosts):
        init = _baseline(i, False)
        engine.register_host(init.name)
        for batch in SimAgent(init, scheduler=None).initial_batches(now):
            engine.ingest_result(ENGINE_TOPIC, batch)
        loads.append(_HostLoad(init.name, init.addr,
                               (i / hosts) * 0.2 * cycle_period))

    pending: dict[str, float] = {}
    flow_lat: list[float] = []
    event_lat: list[float] = []
    attributed = [0]

    def _sink(result) -> None:
        t_enq = pending.pop(getattr(result.tag, "uid", None), None)
        if t_enq is None:
            return
        flow_lat.append(time.monotonic() - t_enq)
        if result.originator:
            attributed[0] += 1

    engine.result_sinks.append(_sink)

    inbox: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
    stop = threading.Event()
    # The clock origin is set slightly ahead so thread startup cost is not
    # counted against the paced timeline.
    t0_mono = time.monotonic() + 0.1
    wall_t0 = time.time() + 0.1
    producer = threading.Thread(
        target=_produce,
        args=(loads, n_cycles, cycle_period, t0_mono, wall_t0, inbox, stop),
        name="bench-producer", daemon=True)
    producer.start()

    events_done = 0
    flows_in = 0
    queue_peak = 0
    last_done = t0_mono
    try:
        while True:
            try:
                enq, step, payload = inbox.get(timeout=0.1)
            except queue.Empty:
                # the producer's last put happens before it ends, so a dead
                # producer and an empty queue mean every item was taken
                if producer.is_alive() or not inbox.empty():
                    continue
                break
            depth = inbox.qsize()
            if depth > queue_peak:
                queue_peak = depth
            if step == _STEP_FLOW:
                pending[payload.uid] = enq
                flows_in += 1
                engine.submit_flow(payload)
            else:
                engine.ingest_result(ENGINE_TOPIC, payload)
                events_done += 1
                event_lat.append(time.monotonic() - enq)
            last_done = time.monotonic()
    finally:
        stop.set()
        engine.shutdown()
        scheduler.stop()

    elapsed = max(last_done - t0_mono, 0.0)
    ep50, ep95, ep99 = _percentiles(event_lat)
    fp50, fp95, fp99 = _percentiles(flow_lat)
    return ThroughputReport(
        hosts=hosts, rate_per_host=rate, requested_duration=duration,
        elapsed=elapsed,
        # the planned load, so a producer that ends early shows as a shortfall
        events_in=len(loads) * STEPS_PER_CYCLE * n_cycles,
        events_processed=events_done,
        flows_in=flows_in, flows_attributed=attributed[0],
        events_per_sec=events_done / elapsed if elapsed > 0 else 0.0,
        event_latency_p99=ep99,
        attrib_latency_p50=fp50, attrib_latency_p95=fp95,
        attrib_latency_p99=fp99,
        queue_capacity=QUEUE_CAPACITY, queue_peak=queue_peak)


# --- memory scaling ----------------------------------------------------------------


def _decode(d: dict) -> SnapshotBatch | HostEvent:
    return SnapshotBatch.from_dict(d) if "rows" in d else HostEvent.from_dict(d)


def _measure_state_bytes(n_hosts: int) -> int:
    """Retained engine bytes after ingesting one fleet's worth of telemetry.

    Payloads are staged as JSON strings before tracing starts, so only what
    the engine actually allocates and retains is counted.  Each payload is
    also decoded once, untraced, and the records are held: the strings the
    decoders intern are then already in the process-wide intern table,
    which would otherwise grow, by hundreds of kilobytes at once, in
    whichever measurement crosses its threshold.  So the one shared copy of
    each host name is not counted, as the name `register_host` is handed
    never was.
    """
    wire: list[tuple[str, list[str]]] = []
    for i in range(n_hosts):
        init = _baseline(i, False)
        agent = SimAgent(init, scheduler=None)
        msgs = [json.dumps(b.to_dict()) for b in agent.initial_batches(0.0)]
        for k in range(_EXTRA_PROCS):
            proc = ProcessInfo(init.name, 3000 + k, 1,
                               f"/usr/local/bin/svc{k}", 1000, 0.0,
                               Source.AUDIT)
            msgs.append(json.dumps(HostEvent(
                init.name, TableKind.PROCESS_EVENTS, Action.ADDED, proc,
                0.0).to_dict()))
        for k in range(_EXTRA_SOCKETS):
            sock = SocketInfo(init.name, 3000 + k % _EXTRA_PROCS,
                              10 + k, Proto.TCP, Direction.OUTGOING,
                              Source.AUDIT, init.addr, 25000 + k, SINK_ADDR,
                              SINK_PORT)
            msgs.append(json.dumps(HostEvent(
                init.name, TableKind.SOCKET_EVENTS, Action.ADDED, sock,
                0.0).to_dict()))
        wire.append((init.name, msgs))
    interned = [_decode(json.loads(raw)) for _, msgs in wire for raw in msgs]

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loop = EventLoop()
    engine = Engine(EngineConfig(), loop)
    for name, msgs in wire:
        engine.register_host(name)
        for raw in msgs:
            engine.ingest_result(ENGINE_TOPIC, _decode(json.loads(raw)))
    gc.collect()
    used = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    engine.shutdown()
    del interned
    return used


def run_memory_scaling(host_counts=(100, 200, 400)) -> MemoryReport:
    counts = sorted(set(int(n) for n in host_counts))
    if len(counts) < 2:
        raise ValueError("need at least two distinct host counts")
    points = tuple(MemoryPoint(n, _measure_state_bytes(n)) for n in counts)
    slope, intercept = statistics.linear_regression(
        [p.hosts for p in points], [p.state_bytes for p in points])
    deviations = []
    for a, b in zip(points, points[1:]):
        increment = (b.state_bytes - a.state_bytes) / (b.hosts - a.hosts)
        deviations.append(abs(increment - slope) / slope if slope > 0
                          else math.inf)
    return MemoryReport(points, slope, intercept, max(deviations))


# --- combined entry point ---------------------------------------------------------


def run_bench(hosts: int = 870, rate: float = 4.0, duration: float = 300.0,
              memory_hosts=(100, 200, 400)) -> BenchReport:
    return BenchReport(run_throughput(hosts, rate, duration),
                       run_memory_scaling(memory_hosts))
