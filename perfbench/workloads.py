"""The four benchmark workloads.

Each workload builds its inputs from the seed (never timed), loads the
fleet's initial state into a fresh engine several times to time set-up,
drives the engine through its public entry points (`Engine.submit_flow`,
`Engine.ingest_result`, `Engine.register_host`, `schedule_replay`), and
judges every emitted result against the generator's ground truth.

Three workloads run on the virtual-time `EventLoop` in one thread, as fast
as the engine allows.  `live_paced` is an open loop on the wall clock: the
main thread issues inputs on a fixed schedule while the `WallScheduler`
thread fires timers.
"""

from __future__ import annotations

import collections
import gc
import heapq
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from flowlink import engine as engine_mod
from flowlink import flowlog
from flowlink.agents import (HostInit, ScenarioHook, ScenarioKind, SimAgent,
                             ActionKind, WorkloadSpec, build_workload,
                             host_name)
from flowlink.config import EngineConfig
from flowlink.engine import Engine, EngineOutputs, run_simulation
from flowlink.flowlog import FlowRecord
from flowlink.model import (Action, Direction, HostEvent, ProcessInfo, Proto,
                            SnapshotBatch, SocketInfo, Source, TableKind,
                            UserInfo)
from flowlink.runtime import WallScheduler

from harness import (ResultLog, StampedLoop, judge, peak_rss_mb,
                     windowed_quantile)

HOME_TOPIC = "node/engine"
SETUP_BEFORE = 7             # set-ups timed before a run's timed phase
SETUP_AFTER = 7              # and after it; setup_s is the median of all


@dataclass
class Outcome:
    """What one run measured and what its correctness gate found."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # non-flow check failures
    metrics: dict = field(default_factory=dict)    # name -> (value, unit)
    info: dict = field(default_factory=dict)       # printed, not bounded
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


def _users(host: str) -> list[UserInfo]:
    return [UserInfo(host, 0, "root", True), UserInfo(host, 1000, "alice"),
            UserInfo(host, 1001, "bob")]


def _init_proc(host: str) -> ProcessInfo:
    return ProcessInfo(host, 1, 0, "/sbin/init", 0, 0.0, Source.STATUS)


def initial_batches(init: HostInit) -> list[SnapshotBatch]:
    """The state-table snapshots an agent sends when it connects."""
    return SimAgent(init, scheduler=None).initial_batches(0.0)


def load_fleet(eng: Engine, fleet) -> None:
    for host, batches in fleet:
        eng.register_host(host)
        for batch in batches:
            eng.ingest_result(HOME_TOPIC, batch)


def _outputs(out_dir: str) -> EngineOutputs:
    """`conn.log` and `alerts.log` on real files, flushed per line as in
    `flowlink replay`."""
    return EngineOutputs(
        flows=open(os.path.join(out_dir, engine_mod.FLOWS_LOG), "w", encoding="utf-8"),
        alerts=open(os.path.join(out_dir, engine_mod.ALERTS_LOG), "w", encoding="utf-8"),
        owns=True)


def timed_setup(build, out_dir: str, repeats: int, keep: bool = False):
    """Call `build(outputs)`, which returns (engine, teardown), `repeats`
    times and time each call.  The logs are opened before the clock starts:
    set-up runs from engine construction until the fleet is loaded.  Each
    engine is torn down and dropped before the next is built, so every
    set-up starts from the same heap; with `keep` the last one is returned
    instead.  Returns the times in seconds and the kept (engine, teardown)
    or None.  Runs time set-up both before and after their timed phase, so
    a slow spell of the machine moves only some of the samples."""
    times = []
    last = None
    for i in range(repeats):
        outputs = _outputs(out_dir)
        gc.collect()
        t0 = time.perf_counter()
        last = build(outputs)
        times.append(time.perf_counter() - t0)
        if not (keep and i == repeats - 1):
            last[1]()
            last = None
    return times, last


def _latency_metrics(out: Outcome, latencies: list[float]) -> None:
    out.info["latency_p50_us"] = (windowed_quantile(latencies, 0.50) * 1e6, "us")
    out.info["latency_p99_us"] = (windowed_quantile(latencies, 0.99) * 1e6, "us")
    out.notes.append(f"latency samples {len(latencies)}")


# --- fleet_replay --------------------------------------------------------------------

FLEET_HOSTS = 870
FLEET_EVENT_RATE = 4.0
FLEET_DURATION = 24.0
FLEET_PROBE = 8.0            # periodic snapshots at 8, 16, 24 s
FLEET_VERIFY = 12.0          # verification passes at 12 and 24 s
FLEET_UNTIL = 28.5           # the ssh chain's last flow is reported at 26 s


def fleet_spec(seed: int) -> WorkloadSpec:
    rng = random.Random(f"fleet:{seed}")
    a, b, c, d, e, f, g = (host_name(i) for i in rng.sample(range(FLEET_HOSTS), 7))
    return WorkloadSpec(
        hosts=FLEET_HOSTS, duration=FLEET_DURATION, event_rate=FLEET_EVENT_RATE,
        probe_interval=FLEET_PROBE, seed=seed, audit_local_missing=0.2,
        udp_sockets_per_host=1,
        scenarios=[
            ScenarioHook(ScenarioKind.SSH_CHAIN, 1.0, params={"chain": [a, b, c]}),
            ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 3.0, host=d),
            ScenarioHook(ScenarioKind.PROCESS_CRASH, 2.0, host=e),
            ScenarioHook(ScenarioKind.PROCESS_CRASH, 9.0, host=f),
            ScenarioHook(ScenarioKind.HOST_RECONNECT, 6.0, host=g,
                         params={"down": 3.0}),
        ])


def fleet_config() -> EngineConfig:
    return EngineConfig(probe_interval=FLEET_PROBE,
                        verification_interval=FLEET_VERIFY)


def fleet_expectations(workload) -> dict:
    """Ground truth per flow uid.  A flow stays unattributable when the
    engine never sees its socket: a status-only UDP socket whose lifetime
    spans no probe, or a socket opened and reported while its host is
    disconnected."""
    down: dict[str, list[list[float]]] = collections.defaultdict(list)
    opened: dict[tuple[str, int], float] = {}
    for act in workload.actions:
        if act.kind is ActionKind.HOST_DOWN:
            down[act.host].append([act.time, float("inf")])
        elif act.kind is ActionKind.HOST_UP and down[act.host]:
            down[act.host][-1][1] = act.time
        elif act.kind is ActionKind.SOCK_OPEN:
            opened[(act.host, act.sock.local_port)] = act.time

    def dark(host: str, t: float) -> bool:
        return any(lo <= t < hi for lo, hi in down.get(host, ()))

    expect = {}
    for flow in workload.flows:
        truth = workload.truth.flows[flow.uid]
        t_open = opened.get((truth.host, flow.orig_p), flow.ts)
        visible = truth.spans_probe is not False and not (
            dark(truth.host, t_open) and dark(truth.host, flow.end))
        expect[flow.uid] = (truth.host, truth.pid) if visible else None
    return expect


def alerts_match(alerts, expected: list[dict]) -> bool:
    """Each expected alert matched by exactly one emitted alert carrying the
    expected evidence, and no alert left over."""
    if len(alerts) != len(expected):
        return False
    unmatched = list(alerts)
    for want in expected:
        hit = next((a for a in unmatched if a.kind == want["kind"] and all(
            a.evidence.get(k) == v for k, v in want.items() if k != "kind")), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


class FleetReplay:
    """Record the paper's fleet once with `run_simulation`, then time
    `flowlink replay`'s path on the recording: read, decode, engine."""

    name = "fleet_replay"

    def __init__(self, seed: int, out_dir: str):
        self.rec_dir = os.path.join(out_dir, "recording")
        self.replay_dir = os.path.join(out_dir, "replay")
        os.makedirs(self.rec_dir, exist_ok=True)
        os.makedirs(self.replay_dir, exist_ok=True)
        self.config = fleet_config()
        workload = build_workload(fleet_spec(seed))
        self.expect = fleet_expectations(workload)
        self.expected_alerts = workload.truth.expected_alerts
        outputs = engine_mod.open_outputs(self.rec_dir, record_inputs=True)
        recorder = run_simulation(self.config, workload, outputs, until=FLEET_UNTIL)
        self.until = recorder.scheduler.now()
        self.inputs_path = os.path.join(self.rec_dir, engine_mod.INPUTS_LOG)
        with open(os.path.join(self.rec_dir, engine_mod.FLOWS_LOG), "rb") as fh:
            self.recorded_conn = fh.read()
        self.fleet = self._initial_fleet()

    def _initial_fleet(self):
        """Host registrations and connect-time snapshots, decoded from the
        head of the recording (agents connect 0.1 ms apart from t=0)."""
        fleet: dict[str, list] = {}
        with open(self.inputs_path, encoding="utf-8") as fh:
            for entry in flowlog.read_inputs(fh):
                if entry["t"] >= 0.1:
                    break
                if entry["kind"] == "host_up":
                    fleet.setdefault(entry["data"]["host"], [])
                elif entry["kind"] == "snapshot":
                    batch = SnapshotBatch.from_dict(entry["data"])
                    fleet.setdefault(batch.host, []).append(batch)
        return list(fleet.items())

    def _build(self, outputs):
        eng = Engine(self.config, StampedLoop(), outputs=outputs)
        eng.start()
        load_fleet(eng, self.fleet)
        return eng, eng.shutdown

    def replay(self, tracer=None):
        """One timed replay.  Returns (seconds, inputs, engine, log, loop)
        and leaves the seconds spent reading plus JSON parsing, scheduling
        plus record decoding, and running the engine in `self.phases`."""
        gc.collect()                # start each replay from the same heap
        t0 = time.perf_counter()
        with open(self.inputs_path, encoding="utf-8") as fh:
            if tracer is None:
                entries = list(flowlog.read_inputs(fh))
            else:
                entries = tracer.run_span("flowlog.read_inputs", list,
                                          (flowlog.read_inputs(fh),), {})
        t1 = time.perf_counter()
        loop = StampedLoop(tracer)
        eng = Engine(self.config, loop, outputs=_outputs(self.replay_dir))
        if tracer is not None:
            tracer.wrap_lock(eng)
        log = ResultLog(due_of=lambda uid: loop.cb_start)
        eng.result_sinks.append(log)
        eng.start()
        n = engine_mod.schedule_replay(eng, entries)
        del entries
        t2 = time.perf_counter()
        loop.run_until(self.until)
        log.due_of = None           # shutdown flushes outside any callback
        eng.shutdown()
        t3 = time.perf_counter()
        self.phases = (t1 - t0, t2 - t1, t3 - t2)
        return t3 - t0, n, eng, log, loop

    def check(self, out: Outcome, eng, log) -> None:
        out.attempted = len(self.expect)
        out.failures = judge(self.expect, log, self.expect)
        with open(os.path.join(self.replay_dir, engine_mod.FLOWS_LOG), "rb") as fh:
            if fh.read() != self.recorded_conn:
                out.problems.append("replayed conn.log differs from the recording's")
        if not alerts_match(eng.alerts, self.expected_alerts):
            out.problems.append(f"alerts {[a.to_dict() for a in eng.alerts]} != "
                                f"ground truth {self.expected_alerts}")

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        setups, _ = timed_setup(self._build, self.replay_dir, SETUP_BEFORE)
        rates, latencies = [], []
        spent = 0.0
        while spent < seconds:
            dt, n, eng, log, loop = self.replay()
            spent += dt
            rates.append(n / dt)
            out.notes.append("replay phases: read+parse %.2f s, decode+schedule "
                             "%.2f s, engine %.2f s" % self.phases)
            latencies.extend(log.latency)
            self.check(out, eng, log)
            del eng, log, loop      # the next replay starts from an empty heap
            if not out.correct:
                break
        more, _ = timed_setup(self._build, self.replay_dir, SETUP_AFTER)
        out.metrics["setup_s"] = (statistics.median(setups + more), "s")
        out.metrics["inputs_per_s"] = (statistics.median(rates), "1/s")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        _latency_metrics(out, latencies)
        out.notes.append(f"{len(rates)} replays of {n} inputs, "
                         f"rates {[round(r) for r in rates]}")
        return out

    def trace(self, tracer) -> dict:
        dt_u, n, *_ = self.replay()
        read_s, decode_s, _ = self.phases
        tracer.install()
        try:
            dt_t, n, eng, log, loop = self.replay(tracer)
        finally:
            tracer.uninstall()
        out = Outcome()
        self.check(out, eng, log)
        return dict(outcome=out, engine=eng, inputs=n, untraced_s=dt_u,
                    traced_s=dt_t, flows=len(self.expect),
                    extra={"bench.decode_share": ((read_s + decode_s) / dt_u, "ratio")})


# --- synthetic virtual-time workloads --------------------------------------------------

class _Stream:
    """A seeded virtual-time input generator, consumed slice by slice.
    Subclasses implement `_flow(i, t)`, which adds flow i (due at t) and the
    telemetry around it through `_add`."""

    flow_rate = 1000.0          # flows per virtual second
    lookahead = 2.5             # latest input offset from its flow's time

    def __init__(self, seed: int, tag: str):
        self.rng = random.Random(f"{tag}:{seed}")
        self.heap: list = []     # (t, seq, kind, obj)
        self.expect: dict = {}   # uid -> (host, pid) or None
        self.submitted: list[str] = []
        self._seq = 0
        self._next_flow = 0

    def _add(self, t: float, kind: str, obj) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, obj))

    def take(self, until: float) -> list:
        """Every input due before `until`, in time order."""
        while self._next_flow / self.flow_rate < until + self.lookahead:
            self._flow(self._next_flow, self._next_flow / self.flow_rate)
            self._next_flow += 1
        out = []
        while self.heap and self.heap[0][0] < until:
            out.append(heapq.heappop(self.heap))
        return out

    def _flow(self, i: int, t: float) -> None:
        raise NotImplementedError

    def finalize(self, t_stop: float) -> None:
        """Settle expectations once the run stopped at virtual time t_stop."""


def _sock_event(host, action, sock, t) -> HostEvent:
    return HostEvent(host, TableKind.SOCKET_EVENTS, action, sock, t)


def _proc_event(host, action, proc, t) -> HostEvent:
    return HostEvent(host, TableKind.PROCESS_EVENTS, action, proc, t)


class _VirtualWorkload:
    """Drives a `_Stream` into a fresh engine in slices of virtual time.
    Each slice is timed on its own; a run reports the median slice rate
    after the warm-up and stops once the timed slices add up to the
    requested seconds."""

    name = ""
    slice_vt = 0.05
    warmup_vt = 0.0
    trace_vt = 1.0

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.config = EngineConfig()
        self.fleet = [(init.name, initial_batches(init)) for init in self.hosts()]

    def hosts(self) -> list[HostInit]:
        raise NotImplementedError

    def stream(self) -> _Stream:
        raise NotImplementedError

    def _build(self, outputs, tracer=None):
        loop = StampedLoop(tracer)
        eng = Engine(self.config, loop, outputs=outputs)
        eng.start()
        load_fleet(eng, self.fleet)
        return (eng, loop), eng.shutdown

    def drive(self, eng, loop, stream: _Stream, seconds=None, max_vt=None):
        """Feed `stream` until the timed slices add up to `seconds`, or to
        virtual time `max_vt`.  Returns the post-warm-up slice rates and
        flow latencies (s), all inputs fed, the wall seconds of all slices,
        and the result log."""
        log = ResultLog(due_of=lambda uid: loop.cb_start)
        eng.result_sinks.append(log)
        gc.collect()
        rates, inputs, timed, wall, t = [], 0, 0.0, 0.0, 0.0
        warm = True
        while True:
            batch = stream.take(t + self.slice_vt)
            for when, _, kind, obj in batch:
                if kind == "flow":
                    stream.submitted.append(obj.uid)
                    loop.call_at(when, eng.submit_flow, obj)
                else:
                    loop.call_at(when, eng.ingest_result, HOME_TOPIC, obj)
            c0 = time.perf_counter()
            loop.run_until(t + self.slice_vt)
            dt = time.perf_counter() - c0
            t += self.slice_vt
            inputs += len(batch)
            wall += dt
            if warm and t >= self.warmup_vt - 1e-9:
                warm = False
                log.latency.clear()
            elif not warm:
                rates.append(len(batch) / dt)
                timed += dt
            if max_vt is not None:
                if t >= max_vt - 1e-9:
                    break
            elif timed >= seconds:
                break
        log.due_of = None          # shutdown flushes outside any callback
        latencies = list(log.latency)
        eng.shutdown()
        stream.finalize(t)
        return rates, latencies, inputs, wall, log

    def check(self, out: Outcome, stream: _Stream, log) -> None:
        out.attempted = len(stream.submitted)
        out.failures = judge(stream.submitted, log, stream.expect)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        setups, ((eng, loop), _) = timed_setup(self._build, self.out_dir,
                                               SETUP_BEFORE, keep=True)
        stream = self.stream()
        rates, latencies, inputs, _, log = self.drive(
            eng, loop, stream, seconds=seconds)
        self.check(out, stream, log)
        out.notes.append(f"{inputs} inputs, {len(rates)} timed slices, parked "
                         f"{eng.correlator.counters['parked']} of "
                         f"{len(stream.submitted)} flows")
        del eng, loop
        more, _ = timed_setup(self._build, self.out_dir, SETUP_AFTER)
        out.metrics["setup_s"] = (statistics.median(setups + more), "s")
        out.metrics["inputs_per_s"] = (statistics.median(rates), "1/s")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        _latency_metrics(out, latencies)
        return out

    def trace(self, tracer) -> dict:
        (eng, loop), _ = self._build(_outputs(self.out_dir))
        _, _, inputs, untraced_s, _ = self.drive(eng, loop, self.stream(),
                                                 max_vt=self.trace_vt)
        tracer.install()
        try:
            (eng, loop), _ = self._build(_outputs(self.out_dir), tracer)
            tracer.wrap_lock(eng)
            stream = self.stream()
            _, _, inputs, traced_s, log = self.drive(eng, loop, stream,
                                                    max_vt=self.trace_vt)
        finally:
            tracer.uninstall()
        out = Outcome()
        self.check(out, stream, log)
        return dict(outcome=out, engine=eng, inputs=inputs, untraced_s=untraced_s,
                    traced_s=traced_s, flows=len(stream.submitted), extra={})


# --- dense_sockets -----------------------------------------------------------------------

DENSE_SERVERS = 4
DENSE_SOCKETS = 2000         # established inbound sockets held per server
DENSE_SERVER_WORKERS = 8
DENSE_CLIENTS = 200
DENSE_CLIENT_WORKERS = 4
DENSE_CENSORED = 0.2         # client audit sockets without a local endpoint
DENSE_CHURN = 2              # held server sockets replaced per flow
SERVICE_PORT = 443


def _server(i: int) -> tuple[str, str]:
    return f"srv{i}", f"10.2.0.{i + 1}"


def _client(i: int) -> tuple[str, str]:
    return f"cli{i:03d}", f"10.3.{i // 200}.{i % 200 + 1}"


class DenseStream(_Stream):
    """Client-to-server flows.  Per flow: the client's outbound socket
    (sometimes without its local endpoint), the server's inbound socket,
    `DENSE_CHURN` held server sockets replaced by new ones from fresh remote
    addresses, the flow, then both flow sockets close."""

    flow_rate = 1000.0
    lookahead = 0.1

    def __init__(self, seed: int, held: dict):
        super().__init__(seed, "dense")
        self.held = {s: collections.deque(socks) for s, socks in held.items()}
        self.next_fd = {s: DENSE_SOCKETS + 100 for s in held}
        self.next_port = collections.Counter()

    def _flow(self, i: int, t: float) -> None:
        rng = self.rng
        client, caddr = _client(rng.randrange(DENSE_CLIENTS))
        server, saddr = _server(rng.randrange(DENSE_SERVERS))
        cpid = 1000 + rng.randrange(DENSE_CLIENT_WORKERS)
        self.next_port[client] += 1
        port = 20000 + self.next_port[client] % 40000
        local = (None, None) if rng.random() < DENSE_CENSORED else (caddr, port)
        csock = SocketInfo(client, cpid, port, Proto.TCP, Direction.OUTGOING,
                           Source.AUDIT, local[0], local[1], saddr,
                           SERVICE_PORT, first_seen=t)
        ssock = self._server_sock(server, saddr, caddr, port, t)
        uid = f"DS{i:07d}"
        self._add(t, "event", _sock_event(client, Action.ADDED, csock, t))
        self._add(t + 1e-4, "event", _sock_event(server, Action.ADDED, ssock, t))
        for _ in range(DENSE_CHURN):
            old = self.held[server].popleft()
            new = self._server_sock(server, saddr, _remote_addr(rng),
                                    1024 + rng.randrange(60000), t)
            self.held[server].append(new)
            self._add(t + 2e-4, "event", _sock_event(server, Action.REMOVED, old, t))
            self._add(t + 3e-4, "event", _sock_event(server, Action.ADDED, new, t))
        self._add(t + 4e-4, "flow", FlowRecord(
            ts=t, uid=uid, orig_h=caddr, orig_p=port, resp_h=saddr,
            resp_p=SERVICE_PORT, proto=Proto.TCP, duration=3e-4))
        self._add(t + 0.02, "event", _sock_event(client, Action.REMOVED, csock, t + 0.02))
        self._add(t + 0.02, "event", _sock_event(server, Action.REMOVED, ssock, t + 0.02))
        self.expect[uid] = (client, cpid)

    def _server_sock(self, server, saddr, raddr, rport, t) -> SocketInfo:
        self.next_fd[server] += 1
        pid = 100 + self.next_fd[server] % DENSE_SERVER_WORKERS
        return SocketInfo(server, pid, self.next_fd[server], Proto.TCP,
                          Direction.INCOMING, Source.AUDIT, saddr, SERVICE_PORT,
                          raddr, rport, first_seen=t)


def _remote_addr(rng: random.Random) -> str:
    """A client address outside the monitored fleet, drawn from 4M, so the
    population outgrows `canonical_addr`'s 8,192-entry cache."""
    k = rng.getrandbits(22)
    return f"100.{64 + (k >> 16)}.{(k >> 8) & 255}.{k & 255}"


class DenseSockets(_VirtualWorkload):
    name = "dense_sockets"
    slice_vt = 0.05
    # The scan slows as churn scatters the held sockets over the heap; it is
    # steady once every held socket has been replaced (8,000 replacements).
    warmup_vt = 4.0
    trace_vt = 1.0

    def hosts(self) -> list[HostInit]:
        """Servers and clients; also keeps each server's held sockets in
        `self.held`, which every new stream starts from."""
        rng = random.Random(f"dense-hosts:{self.seed}")
        self.held = {}
        out = []
        for i in range(DENSE_SERVERS):
            name, addr = _server(i)
            procs = [_init_proc(name),
                     ProcessInfo(name, 70, 1, "/usr/sbin/webd", 1, 0.0, Source.STATUS)]
            procs += [ProcessInfo(name, 100 + w, 70, "/usr/sbin/webd", 1, 0.0,
                                  Source.STATUS) for w in range(DENSE_SERVER_WORKERS)]
            held = [SocketInfo(name, 100 + k % DENSE_SERVER_WORKERS, 100 + k,
                               Proto.TCP, Direction.INCOMING, Source.STATUS,
                               addr, SERVICE_PORT, _remote_addr(rng),
                               1024 + rng.randrange(60000))
                    for k in range(DENSE_SOCKETS)]
            self.held[name] = held
            listen = SocketInfo(name, 70, 3, Proto.TCP, Direction.LISTENING,
                                Source.STATUS, "0.0.0.0", SERVICE_PORT)
            out.append(HostInit(name, addr, _users(name), procs, [listen] + held, {}))
        for i in range(DENSE_CLIENTS):
            name, addr = _client(i)
            procs = [_init_proc(name)] + [
                ProcessInfo(name, 1000 + w, 1, f"/usr/bin/worker-{w}",
                            1000 + w % 2, 0.0, Source.STATUS)
                for w in range(DENSE_CLIENT_WORKERS)]
            out.append(HostInit(name, addr, _users(name), procs, [], {}))
        return out

    def stream(self) -> _Stream:
        return DenseStream(self.seed, self.held)


# --- late_telemetry -------------------------------------------------------------------------

LATE_HOSTS = 100
LATE_FLOW_RATE = 1850.0      # virtual flows/s; keeps ~2,000 flows parked
LATE_DARK = 0.10             # flows that never get telemetry
LATE_MAX_LAG = 1.9           # below the 2 s retry window


def _late_host(i: int) -> tuple[str, str]:
    return f"lt{i:03d}", f"10.4.{i // 200}.{i % 200 + 1}"


class LateStream(_Stream):
    """Each flow is reported first; its process and socket appear a uniform
    0.05-1.9 s later (close and exit follow), or never for a dark flow."""

    flow_rate = LATE_FLOW_RATE
    lookahead = LATE_MAX_LAG + 0.3

    def __init__(self, seed: int):
        super().__init__(seed, "late")
        self.next_pid = collections.Counter()
        self.sock_at: dict[str, float] = {}

    def _flow(self, i: int, t: float) -> None:
        rng = self.rng
        host, addr = _late_host(rng.randrange(LATE_HOSTS))
        self.next_pid[host] += 1
        pid = 2000 + self.next_pid[host]
        port = 20000 + self.next_pid[host] % 40000
        remote = f"198.51.100.{rng.randint(1, 250)}"
        uid = f"LT{i:07d}"
        self._add(t, "flow", FlowRecord(
            ts=t - 0.3, uid=uid, orig_h=addr, orig_p=port, resp_h=remote,
            resp_p=SERVICE_PORT, proto=Proto.TCP, duration=0.2))
        if rng.random() < LATE_DARK:
            self.expect[uid] = None
            return
        at = t + rng.uniform(0.05, LATE_MAX_LAG)
        proc = ProcessInfo(host, pid, 1, "/usr/bin/curl", 1000, at, Source.AUDIT)
        sock = SocketInfo(host, pid, 5, Proto.TCP, Direction.OUTGOING,
                          Source.AUDIT, addr, port, remote, SERVICE_PORT,
                          first_seen=at + 0.001)
        self._add(at, "event", _proc_event(host, Action.ADDED, proc, at))
        self._add(at + 0.001, "event", _sock_event(host, Action.ADDED, sock, at + 0.001))
        self._add(at + 0.1, "event", _sock_event(host, Action.REMOVED, sock, at + 0.1))
        self._add(at + 0.2, "event", _proc_event(host, Action.REMOVED, proc, at + 0.2))
        self.expect[uid] = (host, pid)
        self.sock_at[uid] = at + 0.001

    def finalize(self, t_stop: float) -> None:
        # a flow whose socket was still due at shutdown is flushed unattributed
        for uid, at in self.sock_at.items():
            if at > t_stop:
                self.expect[uid] = None


class LateTelemetry(_VirtualWorkload):
    name = "late_telemetry"
    slice_vt = 0.05
    warmup_vt = LATE_MAX_LAG + 0.1
    trace_vt = LATE_MAX_LAG + 0.6

    def hosts(self) -> list[HostInit]:
        out = []
        for i in range(LATE_HOSTS):
            name, addr = _late_host(i)
            out.append(HostInit(name, addr, _users(name), [_init_proc(name)], [], {}))
        return out

    def stream(self) -> _Stream:
        return LateStream(self.seed)


# --- live_paced ------------------------------------------------------------------------------

LIVE_HOSTS = 870
LIVE_PERIOD = 1.0            # one telemetry cycle per host per second
LIVE_OFFERED = LIVE_HOSTS * 5 / LIVE_PERIOD   # inputs/s: 4 events + 1 flow
LIVE_LATE = 0.05             # flows reported before their socket
LIVE_MAX_LAG = 1.5
LIVE_DARK = 0.005            # flows that never get telemetry and expire
LIVE_TRACE_SECONDS = 6.0
_STEPS = (0.0, 0.25, 0.45, 0.50, 0.75)   # start, open, flow, close, exit


def _live_host(i: int) -> tuple[str, str]:
    return f"lv{i:03d}", f"10.5.{i // 200}.{i % 200 + 1}"


def live_schedule(seed: int, seconds: float):
    """The open-loop schedule: sorted (due offset, seq, kind, obj), per flow
    the due offset of its last contributing input (None for a flow nothing
    explains in time), and expectations."""
    rng = random.Random(f"live:{seed}")
    items, flows, expect = [], {}, {}
    seq = 0

    def add(at, kind, obj):
        nonlocal seq
        if at < seconds:
            seq += 1
            items.append((at, seq, kind, obj))

    for i in range(LIVE_HOSTS):
        host, addr = _live_host(i)
        stagger = i / LIVE_HOSTS * LIVE_PERIOD
        k = 0
        while stagger + k * LIVE_PERIOD + _STEPS[2] * LIVE_PERIOD < seconds:
            base = stagger + k * LIVE_PERIOD
            at = [base + s * LIVE_PERIOD for s in _STEPS]
            pid, port = 2000 + k, 20000 + k % 40000
            uid = f"LV-{host}-{k}"
            remote = f"198.51.100.{rng.randint(1, 250)}"
            proc = ProcessInfo(host, pid, 1, "/usr/bin/worker", 1000, at[0], Source.AUDIT)
            roll = rng.random()
            kind = "dark" if roll < LIVE_DARK else (
                "late" if roll < LIVE_DARK + LIVE_LATE else "now")
            if kind == "late":
                at[1] = at[2] + rng.uniform(0.05, LIVE_MAX_LAG)
                at[3] = at[1] + 0.05
                at[4] = at[3] + 0.05
            dark = kind == "dark" or at[1] >= seconds   # never explained in time
            sock = SocketInfo(host, pid, 7, Proto.TCP, Direction.OUTGOING,
                              Source.AUDIT, addr, port, remote, SERVICE_PORT,
                              first_seen=at[1])
            add(at[0], "event", _proc_event(host, Action.ADDED, proc, at[0]))
            if kind != "dark":
                add(at[1], "event", _sock_event(host, Action.ADDED, sock, at[1]))
                add(at[3], "event", _sock_event(host, Action.REMOVED, sock, at[3]))
            add(at[2], "flow", FlowRecord(
                ts=at[2] - 0.1, uid=uid, orig_h=addr, orig_p=port, resp_h=remote,
                resp_p=SERVICE_PORT, proto=Proto.TCP, duration=0.1))
            add(at[4], "event", _proc_event(host, Action.REMOVED, proc, at[4]))
            flows[uid] = None if dark else max(at[1], at[2])
            expect[uid] = None if dark else (host, pid)
            k += 1
    items.sort()
    return items, flows, expect


class LivePaced:
    """Open loop on the wall clock at `LIVE_OFFERED` inputs/s.  The main
    thread issues each input at its due time and the `WallScheduler` thread
    fires retry deadlines, so dark flows expire while ingest continues."""

    name = "live_paced"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.config = EngineConfig()
        fleet = []
        for i in range(LIVE_HOSTS):
            name, addr = _live_host(i)
            fleet.append((name, initial_batches(
                HostInit(name, addr, _users(name), [_init_proc(name)], [], {}))))
        self.fleet = fleet

    def _build(self, outputs):
        sched = WallScheduler()
        eng = Engine(self.config, sched, outputs=outputs)
        eng.start()
        load_fleet(eng, self.fleet)

        def teardown():
            eng.shutdown()
            sched.stop()
        return (eng, sched), teardown

    def drive(self, eng, sched, seconds: float):
        items, flows, expect = live_schedule(self.seed, seconds)
        retry = self.config.retry_window
        submit_at: dict[str, float] = {}
        t0 = time.perf_counter() + 0.2

        def due_of(uid):
            # the last contributing input's due time; a dark flow's clock
            # starts at its retry deadline
            due = flows[uid]
            return submit_at[uid] + retry if due is None else t0 + due

        log = ResultLog(due_of=due_of)
        eng.result_sinks.append(log)
        lags = []
        submitted = []
        for due_off, _, kind, obj in items:
            due = t0 + due_off
            now = time.perf_counter()
            if now < due:
                # a blocking sleep, not a spin, so the timer thread gets the
                # interpreter lock as it would behind an idle ingest queue
                time.sleep(due - now)
                now = time.perf_counter()
            lags.append(now - due)
            if kind == "flow":
                submit_at[obj.uid] = now
                submitted.append(obj.uid)
                eng.submit_flow(obj)
            else:
                eng.ingest_result(HOME_TOPIC, obj)
        achieved = len(items) / (time.perf_counter() - t0)
        # let pending retry deadlines fire on the timer thread
        quiet = time.perf_counter() + retry + 1.0
        while len(log.count) < len(submitted) and time.perf_counter() < quiet:
            time.sleep(0.01)
        log.due_of = None
        eng.shutdown()
        sched.stop()
        return achieved, list(log.latency), lags, len(items), submitted, expect, log

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        setups, ((eng, sched), _) = timed_setup(self._build, self.out_dir,
                                                SETUP_BEFORE, keep=True)
        achieved, latencies, lags, n, submitted, expect, log = self.drive(
            eng, sched, seconds)
        out.attempted = len(submitted)
        out.failures = judge(submitted, log, expect)
        doubles = sum(1 for c in log.count.values() if c > 1)
        out.notes.append(f"offered {LIVE_OFFERED:.0f} inputs/s, {n} inputs, "
                         f"double emissions {doubles}, "
                         f"expired {eng.correlator.counters['retry_expired']}")
        del eng, sched
        more, _ = timed_setup(self._build, self.out_dir, SETUP_AFTER)
        out.metrics["setup_s"] = (statistics.median(setups + more), "s")
        out.metrics["inputs_per_s"] = (achieved, "1/s")
        out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        _latency_metrics(out, latencies)
        out.info["sched_lag_p99_us"] = (windowed_quantile(lags, 0.99) * 1e6, "us")
        return out

    def trace(self, tracer) -> dict:
        (eng, sched), _ = self._build(_outputs(self.out_dir))
        achieved_u, *_ = self.drive(eng, sched, LIVE_TRACE_SECONDS)
        tracer.install()
        try:
            (eng, sched), _ = self._build(_outputs(self.out_dir))
            tracer.wrap_lock(eng)
            # timers armed during set-up wait behind it; sample the run only
            tracer.timer_late_from = time.time()
            achieved_t, _, _, n, submitted, expect, log = self.drive(
                eng, sched, LIVE_TRACE_SECONDS)
        finally:
            tracer.uninstall()
        out = Outcome()
        out.attempted = len(submitted)
        out.failures = judge(submitted, log, expect)
        return dict(outcome=out, engine=eng, inputs=n, untraced_s=n / achieved_u,
                    traced_s=n / achieved_t, flows=len(submitted), extra={})


WORKLOADS = {w.name: w for w in (FleetReplay, DenseSockets, LateTelemetry, LivePaced)}
