"""Simulated host-agent fleet.

`build_workload` deterministically expands a `WorkloadSpec` into per-host
baselines, a time-ordered action script (process/socket lifecycles plus
scripted incidents), coupled flow records, download events, and the ground
truth a test can judge the engine against.

`SimAgent` is the runtime half: it maintains the simulated OS tables,
executes query schedules delivered over the overlay (evented streams,
periodic snapshots, one-time queries including file hashes and
verification probes), and emits initial snapshots for all state tables
when it connects.
"""

from __future__ import annotations

import collections
import hashlib
import math
import random
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Optional

from .flowlog import DownloadEvent, FlowRecord
from .model import (
    TABLE_KINDS,
    Action,
    Direction,
    FileHashRecord,
    HostEvent,
    InterfaceRecord,
    ProcessInfo,
    Proto,
    QueryErrorResult,
    SnapshotBatch,
    SocketInfo,
    Source,
    TableKind,
    UserInfo,
)
from .overlay import (ParsedQuery, QueryError, ScheduleDelta, ScheduleEntry,
                      parse_query)

EXTERNAL_NET = "203.0.113."          # unmonitored remote space
DNS_SERVER = "203.0.113.53"

# The engine's own overlay topic, where agents send their connect-time
# snapshots; equals `node_topic(engine.ENGINE_NODE_ID)`.
ENGINE_TOPIC = "node/engine"

WORKER_BINARIES = ("/usr/bin/worker-a", "/usr/bin/worker-b", "/usr/bin/curl",
                   "/usr/bin/wget", "/usr/bin/python3")

STATE_TABLE_ORDER = (TableKind.INTERFACES, TableKind.USERS, TableKind.PROCESSES,
                     TableKind.PROCESS_OPEN_SOCKETS, TableKind.LISTENING_PORTS)

EVENTED_TABLES = (TableKind.PROCESS_EVENTS, TableKind.SOCKET_EVENTS)


def file_digest(path: str) -> str:
    """Deterministic stand-in content hash for a simulated file."""
    return hashlib.sha256(f"content:{path}".encode()).hexdigest()


class ScenarioKind(str, Enum):
    PROCESS_CRASH = "process_crash"
    SHORT_SOCKET = "short_socket"
    PID_REUSE = "pid_reuse"
    HOST_RECONNECT = "host_reconnect"
    SSH_CHAIN = "ssh_chain"
    SSH_UNRELATED = "ssh_unrelated"
    ATTACHMENT_EXEC = "attachment_exec"
    ATTACHMENT_NOEXEC = "attachment_noexec"


@dataclass(slots=True)
class ScenarioHook:
    kind: ScenarioKind
    at: float
    host: str = ""              # defaults to the first host (or hosts for chains)
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioHook":
        if not isinstance(d, dict):
            raise ValueError(f"scenarios: expected an object, got {d!r}")
        for name in ("kind", "at"):
            if name not in d:
                raise ValueError(f"scenarios: missing field {name!r}")
        _check_field("scenario at", d["at"], float)
        host, params = d.get("host", ""), d.get("params", {})
        if not isinstance(host, str):
            raise ValueError(f"scenario host: expected a string, got {host!r}")
        if not isinstance(params, dict):
            raise ValueError(f"scenario params: expected an object, got {params!r}")
        return cls(kind=ScenarioKind(d["kind"]), at=float(d["at"]),
                   host=host, params=dict(params))

    def validate(self, hosts: int) -> None:
        """Reject a hook whose host is not in a fleet of `hosts`, a param its
        kind does not read or of the wrong type, and an ssh chain that is not
        three distinct hosts of the fleet."""
        host = self.host or host_name(0)
        if not _in_fleet(host, hosts):
            raise ValueError(f"scenario host: {host!r} is not in the fleet "
                             f"of {hosts} hosts")
        takes = _SCENARIO_PARAMS[self.kind]
        for name, value in self.params.items():
            if name not in takes:
                raise ValueError(f"scenario params: {self.kind.value} takes "
                                 f"no param {name!r}")
            if takes[name] in (str, list):
                if not isinstance(value, takes[name]):
                    raise ValueError(f"scenario param {name}: expected a "
                                     f"{takes[name].__name__}, got {value!r}")
            else:
                _check_field(f"scenario param {name}", value, takes[name])
        if "chain" in takes:
            chain = self.params.get("chain") or [
                host_name(i) for i in range(min(hosts, 3))]
            if not (len(chain) == 3
                    and all(isinstance(h, str) and _in_fleet(h, hosts)
                            for h in chain)
                    and len(set(chain)) == 3):
                raise ValueError(f"scenario param chain: {self.kind.value} "
                                 f"needs three distinct hosts of the fleet, "
                                 f"got {chain!r}")


# the params each scenario kind reads, and the type of each
_SCENARIO_PARAMS: dict[ScenarioKind, dict[str, type]] = {
    ScenarioKind.PROCESS_CRASH: {"after": float},
    ScenarioKind.SHORT_SOCKET: {"flow": bool},
    ScenarioKind.PID_REUSE: {"pid": int},
    ScenarioKind.HOST_RECONNECT: {"down": float},
    ScenarioKind.SSH_CHAIN: {"chain": list},
    ScenarioKind.SSH_UNRELATED: {"chain": list},
    ScenarioKind.ATTACHMENT_EXEC: {"path": str, "origin_kind": str, "execs": int},
    ScenarioKind.ATTACHMENT_NOEXEC: {"path": str, "origin_kind": str},
}


def _in_fleet(name: str, hosts: int) -> bool:
    """Whether `name` is `host_name(i)` for some i < hosts."""
    digits = name[1:]
    return (name[:1] == "h" and digits.isascii() and digits.isdigit()
            and int(digits) < hosts and host_name(int(digits)) == name)


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false"}


def _check_field(name: str, value, kind: type) -> None:
    """Reject a value that is not of `kind`: an int field takes integers, a
    float field finite numbers, a bool field true or false.  JSON booleans
    load as Python bools, which count as no number here."""
    if isinstance(value, bool):
        ok = kind is bool
    elif isinstance(value, int):
        ok = kind is not bool
    elif isinstance(value, float):
        ok = kind is float and math.isfinite(value)
    else:
        ok = False
    if not ok:
        raise ValueError(f"{name}: expected {_EXPECTED[kind]}, got {value!r}")


@dataclass(slots=True)
class WorkloadSpec:
    hosts: int = 4
    duration: float = 60.0
    event_rate: float = 4.0            # audit events per second per host
    probe_interval: float = 30.0
    flow_coupling: float = 0.5         # fraction of lifecycle sockets with a flow
    seed: int = 1
    audit_local_missing: float = 0.0   # P(audit socket event omits local endpoint)
    internal_flow_fraction: float = 0.3
    udp_sockets_per_host: int = 0      # status-only UDP sockets (probe visibility)
    udp_span_probability: float = 0.5  # exact fraction spanning a probe instant
    full_visibility: bool = False      # static sockets, known before any flow
    flows_per_host: int = 50           # full-visibility mode only
    scenarios: list[ScenarioHook] = field(default_factory=list)

    def validate(self) -> None:
        for f in fields(self):
            if f.name != "scenarios":   # the default's type is the field's type
                _check_field(f.name, getattr(self, f.name), type(f.default))
        for name in ("hosts", "udp_sockets_per_host", "flows_per_host"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        for name in ("duration", "probe_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.event_rate < 0:
            raise ValueError(f"event_rate: must be >= 0, got {self.event_rate}")
        if not 0 <= self.flow_coupling <= 1:
            raise ValueError(f"flow_coupling: must be in [0,1], got {self.flow_coupling}")
        if not 0 <= self.udp_span_probability <= 1:
            raise ValueError("udp_span_probability: must be in [0,1]")
        if self.udp_sockets_per_host and self.duration < 3 * self.probe_interval:
            raise ValueError("duration: need >= 3 probe intervals for "
                             "probe-visibility sockets")
        for hook in self.scenarios:
            hook.validate(self.hosts)

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown workload field {unknown[0]!r}")
        d = dict(d)
        scenarios = d.get("scenarios", [])
        if not isinstance(scenarios, list):
            raise ValueError(f"scenarios: expected a list, got {scenarios!r}")
        d["scenarios"] = [ScenarioHook.from_dict(s) for s in scenarios]
        spec = cls(**d)
        spec.validate()
        return spec


class ActionKind(str, Enum):
    PROC_START = "proc_start"
    PROC_EXIT = "proc_exit"
    PROC_CRASH = "proc_crash"       # vanishes from tables, no audit event
    SOCK_OPEN = "sock_open"
    SOCK_CLOSE = "sock_close"
    HOST_DOWN = "host_down"
    HOST_UP = "host_up"


@dataclass(frozen=True, slots=True)
class SimAction:
    """One scripted host-side change.

    `audit` controls whether the change surfaces on the audit event stream;
    the simulated OS tables always reflect it either way.  `censor_local`
    strips the local endpoint from the emitted audit record only.
    """

    time: float
    host: str
    kind: ActionKind
    proc: Optional[ProcessInfo] = None
    sock: Optional[SocketInfo] = None
    audit: bool = True
    censor_local: bool = False

    def audit_event(self) -> Optional[HostEvent]:
        if not self.audit:
            return None
        if self.kind is ActionKind.PROC_START:
            return HostEvent(self.host, TableKind.PROCESS_EVENTS, Action.ADDED,
                             self.proc, self.time)
        if self.kind is ActionKind.PROC_EXIT:
            return HostEvent(self.host, TableKind.PROCESS_EVENTS, Action.REMOVED,
                             self.proc, self.time)
        if self.kind is ActionKind.SOCK_OPEN:
            sock = self.sock
            if self.censor_local:
                sock = replace(sock, local_addr=None, local_port=None)
            return HostEvent(self.host, TableKind.SOCKET_EVENTS, Action.ADDED,
                             sock, self.time)
        if self.kind is ActionKind.SOCK_CLOSE:
            return HostEvent(self.host, TableKind.SOCKET_EVENTS, Action.REMOVED,
                             self.sock, self.time)
        return None


@dataclass(slots=True)
class HostInit:
    """A host's baseline: identity, address, accounts, long-lived daemons,
    their sockets, and its file inventory."""

    name: str
    addr: str
    users: list[UserInfo]
    processes: list[ProcessInfo]
    sockets: list[SocketInfo]
    files: dict[str, str]           # path -> sha256


@dataclass(frozen=True, slots=True)
class FlowTruth:
    flow_uid: str
    host: str
    pid: int
    uid: int
    spans_probe: Optional[bool] = None   # set for probe-visibility-only sockets


@dataclass(slots=True)
class GroundTruth:
    flows: dict[str, FlowTruth] = field(default_factory=dict)
    expected_alerts: list[dict] = field(default_factory=list)
    crashes: list[tuple[float, str, int]] = field(default_factory=list)


@dataclass(slots=True)
class Workload:
    spec: WorkloadSpec
    hosts: list[HostInit]
    actions: list[SimAction]         # time-ordered
    flows: list[FlowRecord]          # ordered by end time (delivery order)
    downloads: list[DownloadEvent]
    truth: GroundTruth

    @property
    def end(self) -> float:
        """The latest of the duration, the last action and the last flow end."""
        last_action = self.actions[-1].time if self.actions else 0.0
        last_flow = max((f.end for f in self.flows), default=0.0)
        return max(self.spec.duration, last_action, last_flow)


def shift_workload(workload: Workload, base: float) -> Workload:
    """Translate every generated timestamp by `base`, so a workload built on
    the virtual timeline (starting at zero) can run against wall-clock
    schedulers.  Baseline state keeps time zero ("running since boot")."""
    def bump_proc(p: Optional[ProcessInfo]) -> Optional[ProcessInfo]:
        return None if p is None else replace(p, start_time=p.start_time + base)

    def bump_sock(s: Optional[SocketInfo]) -> Optional[SocketInfo]:
        return None if s is None else replace(s, first_seen=s.first_seen + base)

    actions = [replace(a, time=a.time + base, proc=bump_proc(a.proc),
                       sock=bump_sock(a.sock)) for a in workload.actions]
    flows = [replace(f, ts=f.ts + base) for f in workload.flows]
    downloads = [replace(d, ts=d.ts + base) for d in workload.downloads]
    truth = GroundTruth(
        flows=dict(workload.truth.flows),
        expected_alerts=[dict(a) for a in workload.truth.expected_alerts],
        crashes=[(t + base, h, pid) for t, h, pid in workload.truth.crashes])
    return Workload(spec=workload.spec, hosts=workload.hosts, actions=actions,
                    flows=flows, downloads=downloads, truth=truth)


def host_name(i: int) -> str:
    return f"h{i:03d}"


def host_addr(i: int) -> str:
    return f"10.1.{i // 200}.{(i % 200) + 1}"


# Baseline pids: fixed daemons below 1000, workers allocated from 1000,
# scenario actors from 9000.
PID_INIT, PID_SSHD, PID_UDPD, PID_WEBD, PID_BROWSER = 1, 50, 60, 70, 71


def _baseline(i: int, with_browser: bool) -> HostInit:
    name, addr = host_name(i), host_addr(i)
    users = [UserInfo(name, 0, "root", True), UserInfo(name, 1, "daemon", True),
             UserInfo(name, 1000, "alice"), UserInfo(name, 1001, "bob")]
    procs = [
        ProcessInfo(name, PID_INIT, 0, "/sbin/init", 0, 0.0, Source.STATUS),
        ProcessInfo(name, PID_SSHD, 1, "/usr/sbin/sshd", 0, 0.0, Source.STATUS),
        ProcessInfo(name, PID_UDPD, 1, "/usr/sbin/udpd", 1, 0.0, Source.STATUS),
        ProcessInfo(name, PID_WEBD, 1, "/usr/sbin/webd", 1, 0.0, Source.STATUS),
    ]
    socks = [
        SocketInfo(name, PID_SSHD, 3, Proto.TCP, Direction.LISTENING,
                   Source.STATUS, "0.0.0.0", 22),
        SocketInfo(name, PID_WEBD, 3, Proto.TCP, Direction.LISTENING,
                   Source.STATUS, "0.0.0.0", 80),
    ]
    files = {p.binary_path: file_digest(p.binary_path) for p in procs}
    files.update({b: file_digest(b) for b in WORKER_BINARIES})
    files["/usr/bin/ssh"] = file_digest("/usr/bin/ssh")
    files["/bin/bash"] = file_digest("/bin/bash")
    if with_browser:
        procs.append(ProcessInfo(name, PID_BROWSER, 1, "/usr/bin/browser",
                                 1000, 0.0, Source.STATUS))
        files["/usr/bin/browser"] = file_digest("/usr/bin/browser")
    return HostInit(name=name, addr=addr, users=users, processes=procs,
                    sockets=socks, files=files)


class _HostScript:
    """Deterministic per-host generator state."""

    def __init__(self, init: HostInit, spec: WorkloadSpec, index: int):
        self.init = init
        self.spec = spec
        self.rng = random.Random(f"{spec.seed}:{init.name}")
        self.index = index
        self.next_pid = 1000
        self.next_port = 20000
        self.next_flow = 0

    def alloc_pid(self) -> int:
        self.next_pid += 1
        return self.next_pid

    def alloc_port(self) -> int:
        self.next_port += 1
        return self.next_port

    def flow_uid(self) -> str:
        self.next_flow += 1
        return f"F{self.init.name}-{self.next_flow:05d}"


def _lifecycle_script(script: _HostScript, n_hosts: int,
                      actions: list[SimAction], flows: list[FlowRecord],
                      truth: GroundTruth) -> None:
    """The steady workload: rate-paced audit ticks cycling one worker process
    through start / connect / disconnect / exit."""
    spec, rng, init = script.spec, script.rng, script.init
    if spec.event_rate <= 0:
        return
    dt = 1.0 / spec.event_rate
    n_ticks = int(round(spec.event_rate * spec.duration))
    cur: dict = {}
    for j in range(n_ticks):
        t = (j + 0.5) * dt
        phase = j % 4
        if phase == 0:
            pid = script.alloc_pid()
            binary = rng.choice(WORKER_BINARIES)
            uid = rng.choice([1000, 1001])
            cur = {"pid": pid,
                   "proc": ProcessInfo(init.name, pid, 1, binary, uid, t,
                                       Source.AUDIT)}
            actions.append(SimAction(t, init.name, ActionKind.PROC_START,
                                     proc=cur["proc"]))
        elif phase == 1:
            if rng.random() < spec.internal_flow_fraction and n_hosts > 1:
                peer = rng.randrange(n_hosts)
                if peer == script.index:
                    peer = (peer + 1) % n_hosts
                dest = (host_addr(peer), 80)
            else:
                dest = (EXTERNAL_NET + str(rng.randint(1, 250)),
                        rng.choice([443, 80, 8443]))
            lport = script.alloc_port()
            sock = SocketInfo(init.name, cur["pid"], 5, Proto.TCP,
                              Direction.OUTGOING, Source.AUDIT,
                              init.addr, lport, dest[0], dest[1], first_seen=t)
            cur["sock"] = sock
            cur["opened"] = t
            actions.append(SimAction(
                t, init.name, ActionKind.SOCK_OPEN, sock=sock,
                censor_local=rng.random() < spec.audit_local_missing))
            if rng.random() < spec.flow_coupling:
                uid = script.flow_uid()
                start = t + 0.1 * dt
                end = t + dt - 0.1 * dt
                flows.append(FlowRecord(
                    ts=start, uid=uid, orig_h=init.addr, orig_p=lport,
                    resp_h=dest[0], resp_p=dest[1], proto=Proto.TCP,
                    duration=end - start,
                    orig_bytes=rng.randint(100, 5000),
                    resp_bytes=rng.randint(100, 50000),
                    orig_pkts=rng.randint(2, 40), resp_pkts=rng.randint(2, 60)))
                truth.flows[uid] = FlowTruth(uid, init.name, cur["pid"],
                                             cur["proc"].uid)
        elif phase == 2 and "sock" in cur:
            actions.append(SimAction(t, init.name, ActionKind.SOCK_CLOSE,
                                     sock=cur["sock"]))
        elif phase == 3 and "proc" in cur:
            actions.append(SimAction(t, init.name, ActionKind.PROC_EXIT,
                                     proc=cur["proc"]))
            cur = {}


def _udp_script(script: _HostScript, actions: list[SimAction],
                flows: list[FlowRecord], truth: GroundTruth) -> None:
    """Status-only UDP sockets: never on the audit stream, so the engine
    learns them only if a probe instant lands inside their lifetime."""
    spec, rng, init = script.spec, script.rng, script.init
    n = spec.udp_sockets_per_host
    if n == 0:
        return
    grid = spec.probe_interval
    n_probes = int(spec.duration // grid)
    usable = max(n_probes - 1, 1)
    spanning = [True] * round(spec.udp_span_probability * n)
    spanning += [False] * (n - len(spanning))
    rng.shuffle(spanning)
    half = grid / 2 - 1
    for m, spans in enumerate(spanning):
        if spans:
            k = rng.randint(1, usable)
            t0 = k * grid - rng.uniform(1.0, half)
            t1 = k * grid + rng.uniform(1.0, half)
        else:
            k = rng.randint(0, usable - 1)
            t0 = k * grid + rng.uniform(1.0, grid - 4.0)
            t1 = t0 + rng.uniform(0.2, min(2.0, (k + 1) * grid - 1.0 - t0))
        lport = 30000 + m
        sock = SocketInfo(init.name, PID_UDPD, 100 + m, Proto.UDP,
                          Direction.OUTGOING, Source.STATUS,
                          init.addr, lport, DNS_SERVER, 53, first_seen=t0)
        actions.append(SimAction(t0, init.name, ActionKind.SOCK_OPEN,
                                 sock=sock, audit=False))
        actions.append(SimAction(t1, init.name, ActionKind.SOCK_CLOSE,
                                 sock=sock, audit=False))
        uid = script.flow_uid()
        start, end = t0 + 0.05, t1 - 0.1
        flows.append(FlowRecord(
            ts=start, uid=uid, orig_h=init.addr, orig_p=lport,
            resp_h=DNS_SERVER, resp_p=53, proto=Proto.UDP,
            duration=end - start, orig_bytes=rng.randint(40, 400),
            resp_bytes=rng.randint(60, 4000), orig_pkts=rng.randint(1, 8),
            resp_pkts=rng.randint(1, 8)))
        truth.flows[uid] = FlowTruth(uid, init.name, PID_UDPD, 1,
                                     spans_probe=spans)


def _full_visibility_script(script: _HostScript, actions: list[SimAction],
                            flows: list[FlowRecord], truth: GroundTruth) -> None:
    """Static workers whose sockets (full endpoints) exist from the baseline,
    so initial snapshots deliver them before any flow ends."""
    spec, rng, init = script.spec, script.rng, script.init
    n_workers = 5
    workers = []
    for w in range(n_workers):
        pid = script.alloc_pid()
        binary = WORKER_BINARIES[w % len(WORKER_BINARIES)]
        proc = ProcessInfo(init.name, pid, 1, binary, rng.choice([1000, 1001]),
                           0.0, Source.STATUS)
        lport = script.alloc_port()
        dest = (EXTERNAL_NET + str(rng.randint(1, 250)), 443)
        sock = SocketInfo(init.name, pid, 5, Proto.TCP, Direction.OUTGOING,
                          Source.STATUS, init.addr, lport, dest[0], dest[1])
        init.processes.append(proc)
        init.sockets.append(sock)
        init.files.setdefault(binary, file_digest(binary))
        workers.append((proc, sock))
    for _ in range(spec.flows_per_host):
        proc, sock = workers[rng.randrange(n_workers)]
        start = rng.uniform(1.0, spec.duration - 2.0)
        end = start + rng.uniform(0.1, 1.0)
        uid = script.flow_uid()
        flows.append(FlowRecord(
            ts=start, uid=uid, orig_h=sock.local_addr, orig_p=sock.local_port,
            resp_h=sock.remote_addr, resp_p=sock.remote_port, proto=Proto.TCP,
            duration=end - start, orig_bytes=rng.randint(100, 1000),
            resp_bytes=rng.randint(100, 1000), orig_pkts=3, resp_pkts=3))
        truth.flows[uid] = FlowTruth(uid, init.name, proc.pid, proc.uid)


# --- scenario scripting ------------------------------------------------------------

def _script_attachment(script: _HostScript, hook: ScenarioHook,
                       actions: list[SimAction], flows: list[FlowRecord],
                       downloads: list[DownloadEvent], truth: GroundTruth,
                       execute: bool) -> None:
    init = script.init
    t = hook.at
    path = hook.params.get("path", f"/home/alice/attachment-{init.name}.bin")
    digest = file_digest(path)
    init.files[path] = digest
    # the carrying download: a browser flow that ends just before the record
    lport = script.alloc_port()
    browser_sock = SocketInfo(init.name, PID_BROWSER, 9, Proto.TCP,
                              Direction.OUTGOING, Source.AUDIT, init.addr,
                              lport, EXTERNAL_NET + "80", 443, first_seen=t - 1.2)
    actions.append(SimAction(t - 1.2, init.name, ActionKind.SOCK_OPEN,
                             sock=browser_sock))
    actions.append(SimAction(t + 0.4, init.name, ActionKind.SOCK_CLOSE,
                             sock=browser_sock))
    dl_uid = f"D-{init.name}-{int(t)}"
    flow = FlowRecord(ts=t - 1.1, uid=dl_uid, orig_h=init.addr, orig_p=lport,
                      resp_h=EXTERNAL_NET + "80", resp_p=443, proto=Proto.TCP,
                      duration=1.0, orig_bytes=500, resp_bytes=80_000,
                      orig_pkts=10, resp_pkts=60)
    flows.append(flow)
    truth.flows[dl_uid] = FlowTruth(dl_uid, init.name, PID_BROWSER, 1000)
    downloads.append(DownloadEvent(
        ts=t, sha256=digest, flow=flow.flow_tuple(), flow_uid=dl_uid,
        origin_kind=hook.params.get("origin_kind", "http_download")))
    if not execute:
        return
    for e in range(int(hook.params.get("execs", 1))):
        pid = 9000 + script.next_pid % 1000 + e
        script.next_pid += 1
        exec_t = t + 3.0 + 3.0 * e
        proc = ProcessInfo(init.name, pid, 1, path, 1000, exec_t, Source.AUDIT)
        actions.append(SimAction(exec_t, init.name, ActionKind.PROC_START,
                                 proc=proc))
        actions.append(SimAction(exec_t + 20.0, init.name, ActionKind.PROC_EXIT,
                                 proc=proc))
        truth.expected_alerts.append({
            "kind": "attachment_executed", "host": init.name, "pid": pid,
            "sha256": digest, "flow_uid": dl_uid})


def _script_ssh(scripts: dict[str, _HostScript], hook: ScenarioHook,
                actions: list[SimAction], flows: list[FlowRecord],
                truth: GroundTruth, related: bool) -> None:
    chain = hook.params.get("chain") or list(scripts)[:3]
    a, b, c = chain
    sa, sb, sc = scripts[a], scripts[b], scripts[c]
    t = hook.at
    pa = sa.alloc_port()
    pb = sb.alloc_port()

    client_a = ProcessInfo(a, sa.alloc_pid(), 1, "/usr/bin/ssh", 1000,
                           t - 0.5, Source.AUDIT)
    sock_a = SocketInfo(a, client_a.pid, 5, Proto.TCP, Direction.OUTGOING,
                        Source.AUDIT, sa.init.addr, pa, sb.init.addr, 22,
                        first_seen=t - 0.4)
    session_b = ProcessInfo(b, sb.alloc_pid(), PID_SSHD, "/usr/sbin/sshd", 0,
                            t - 0.3, Source.AUDIT)
    sock_b_in = SocketInfo(b, session_b.pid, 4, Proto.TCP, Direction.INCOMING,
                           Source.AUDIT, sb.init.addr, 22, sa.init.addr, pa,
                           first_seen=t - 0.2)
    shell_b = ProcessInfo(b, sb.alloc_pid(), session_b.pid, "/bin/bash", 1000,
                          t + 0.5, Source.AUDIT)
    out_parent = shell_b.pid if related else 1
    client_b = ProcessInfo(b, sb.alloc_pid(), out_parent, "/usr/bin/ssh", 1000,
                           t + 1.0, Source.AUDIT)
    sock_b_out = SocketInfo(b, client_b.pid, 5, Proto.TCP, Direction.OUTGOING,
                            Source.AUDIT, sb.init.addr, pb, sc.init.addr, 22,
                            first_seen=t + 1.1)
    session_c = ProcessInfo(c, sc.alloc_pid(), PID_SSHD, "/usr/sbin/sshd", 0,
                            t + 1.2, Source.AUDIT)
    sock_c_in = SocketInfo(c, session_c.pid, 4, Proto.TCP, Direction.INCOMING,
                           Source.AUDIT, sc.init.addr, 22, sb.init.addr, pb,
                           first_seen=t + 1.3)

    for when, host, kind, obj in [
        (t - 0.5, a, ActionKind.PROC_START, client_a),
        (t - 0.4, a, ActionKind.SOCK_OPEN, sock_a),
        (t - 0.3, b, ActionKind.PROC_START, session_b),
        (t - 0.2, b, ActionKind.SOCK_OPEN, sock_b_in),
        (t + 0.5, b, ActionKind.PROC_START, shell_b),
        (t + 1.0, b, ActionKind.PROC_START, client_b),
        (t + 1.1, b, ActionKind.SOCK_OPEN, sock_b_out),
        (t + 1.2, c, ActionKind.PROC_START, session_c),
        (t + 1.3, c, ActionKind.SOCK_OPEN, sock_c_in),
    ]:
        if isinstance(obj, ProcessInfo):
            actions.append(SimAction(when, host, kind, proc=obj))
        else:
            actions.append(SimAction(when, host, kind, sock=obj))
    # teardown well after the flows have been reported
    for when, host, kind, obj in [
        (t + 31.0, b, ActionKind.SOCK_CLOSE, sock_b_out),
        (t + 31.5, c, ActionKind.SOCK_CLOSE, sock_c_in),
        (t + 32.0, a, ActionKind.SOCK_CLOSE, sock_a),
        (t + 32.5, b, ActionKind.SOCK_CLOSE, sock_b_in),
    ]:
        actions.append(SimAction(when, host, kind, sock=obj))

    out_uid = f"S-{b}-out-{int(t)}"
    in_uid = f"S-{b}-in-{int(t)}"
    flows.append(FlowRecord(ts=t + 1.4, uid=out_uid, orig_h=sb.init.addr,
                            orig_p=pb, resp_h=sc.init.addr, resp_p=22,
                            proto=Proto.TCP, duration=20.0 - 1.4,
                            orig_bytes=4000, resp_bytes=4000,
                            orig_pkts=50, resp_pkts=50))
    truth.flows[out_uid] = FlowTruth(out_uid, b, client_b.pid, 1000)
    flows.append(FlowRecord(ts=t - 0.1, uid=in_uid, orig_h=sa.init.addr,
                            orig_p=pa, resp_h=sb.init.addr, resp_p=22,
                            proto=Proto.TCP, duration=25.0 + 0.1,
                            orig_bytes=9000, resp_bytes=9000,
                            orig_pkts=80, resp_pkts=80))
    truth.flows[in_uid] = FlowTruth(in_uid, a, client_a.pid, 1000)
    if related:
        truth.expected_alerts.append({
            "kind": "stepping_stone", "host": b,
            "in_pid": session_b.pid, "out_pid": client_b.pid,
            "in_flow": in_uid, "out_flow": out_uid})


def _script_hook(scripts: dict[str, _HostScript], hook: ScenarioHook,
                 actions: list[SimAction], flows: list[FlowRecord],
                 downloads: list[DownloadEvent], truth: GroundTruth) -> None:
    host = hook.host or next(iter(scripts))
    script = scripts[host]
    init, t = script.init, hook.at
    if hook.kind is ScenarioKind.ATTACHMENT_EXEC:
        _script_attachment(script, hook, actions, flows, downloads, truth, True)
    elif hook.kind is ScenarioKind.ATTACHMENT_NOEXEC:
        _script_attachment(script, hook, actions, flows, downloads, truth, False)
    elif hook.kind in (ScenarioKind.SSH_CHAIN, ScenarioKind.SSH_UNRELATED):
        _script_ssh(scripts, hook, actions, flows, truth,
                    hook.kind is ScenarioKind.SSH_CHAIN)
    elif hook.kind is ScenarioKind.PROCESS_CRASH:
        pid = 9500 + script.next_pid % 100
        script.next_pid += 1
        proc = ProcessInfo(host, pid, 1, "/usr/bin/leaky", 1000, t, Source.AUDIT)
        sock = SocketInfo(host, pid, 5, Proto.TCP, Direction.OUTGOING,
                          Source.AUDIT, init.addr, script.alloc_port(),
                          EXTERNAL_NET + "9", 443, first_seen=t + 0.2)
        actions.append(SimAction(t, host, ActionKind.PROC_START, proc=proc))
        actions.append(SimAction(t + 0.2, host, ActionKind.SOCK_OPEN, sock=sock))
        crash_at = t + float(hook.params.get("after", 2.0))
        actions.append(SimAction(crash_at, host, ActionKind.PROC_CRASH,
                                 proc=proc, audit=False))
        truth.crashes.append((crash_at, host, pid))
    elif hook.kind is ScenarioKind.PID_REUSE:
        pid = int(hook.params.get("pid", 9800))
        first = ProcessInfo(host, pid, 1, "/bin/a", 1000, t, Source.AUDIT)
        sock = SocketInfo(host, pid, 5, Proto.TCP, Direction.OUTGOING,
                          Source.AUDIT, init.addr, script.alloc_port(),
                          EXTERNAL_NET + "10", 443, first_seen=t + 0.2)
        second = ProcessInfo(host, pid, 1, "/bin/b", 1001, t + 5.0, Source.AUDIT)
        actions.append(SimAction(t, host, ActionKind.PROC_START, proc=first))
        actions.append(SimAction(t + 0.2, host, ActionKind.SOCK_OPEN, sock=sock))
        actions.append(SimAction(t + 1.0, host, ActionKind.PROC_CRASH,
                                 proc=first, audit=False))
        actions.append(SimAction(t + 5.0, host, ActionKind.PROC_START,
                                 proc=second))
    elif hook.kind is ScenarioKind.HOST_RECONNECT:
        down = float(hook.params.get("down", 5.0))
        actions.append(SimAction(t, host, ActionKind.HOST_DOWN, audit=False))
        actions.append(SimAction(t + down, host, ActionKind.HOST_UP, audit=False))
    elif hook.kind is ScenarioKind.SHORT_SOCKET:
        pid = script.alloc_pid()
        proc = ProcessInfo(host, pid, 1, "/usr/bin/blip", 1000, t, Source.AUDIT)
        sock = SocketInfo(host, pid, 5, Proto.TCP, Direction.OUTGOING,
                          Source.AUDIT, init.addr, script.alloc_port(),
                          EXTERNAL_NET + "11", 443, first_seen=t + 0.1)
        actions.append(SimAction(t, host, ActionKind.PROC_START, proc=proc))
        actions.append(SimAction(t + 0.1, host, ActionKind.SOCK_OPEN, sock=sock))
        actions.append(SimAction(t + 0.6, host, ActionKind.SOCK_CLOSE, sock=sock))
        actions.append(SimAction(t + 0.7, host, ActionKind.PROC_EXIT, proc=proc))
        if hook.params.get("flow", True):
            uid = script.flow_uid()
            flows.append(FlowRecord(ts=t + 0.15, uid=uid, orig_h=init.addr,
                                    orig_p=sock.local_port,
                                    resp_h=sock.remote_addr, resp_p=443,
                                    proto=Proto.TCP, duration=0.4,
                                    orig_bytes=64, resp_bytes=64,
                                    orig_pkts=2, resp_pkts=2))
            truth.flows[uid] = FlowTruth(uid, host, pid, 1000)


def build_workload(spec: WorkloadSpec) -> Workload:
    spec.validate()
    needs_browser = any(h.kind in (ScenarioKind.ATTACHMENT_EXEC,
                                   ScenarioKind.ATTACHMENT_NOEXEC)
                        for h in spec.scenarios)
    inits = [_baseline(i, needs_browser) for i in range(spec.hosts)]
    scripts = {init.name: _HostScript(init, spec, i)
               for i, init in enumerate(inits)}
    actions: list[SimAction] = []
    flows: list[FlowRecord] = []
    downloads: list[DownloadEvent] = []
    truth = GroundTruth()

    for script in scripts.values():
        if spec.full_visibility:
            _full_visibility_script(script, actions, flows, truth)
        else:
            _lifecycle_script(script, spec.hosts, actions, flows, truth)
            _udp_script(script, actions, flows, truth)

    for hook in spec.scenarios:
        _script_hook(scripts, hook, actions, flows, downloads, truth)

    actions.sort(key=lambda a: (a.time, a.host, a.kind.value))
    flows.sort(key=lambda f: (f.end, f.uid))
    downloads.sort(key=lambda d: (d.ts, d.sha256))
    return Workload(spec=spec, hosts=inits, actions=actions, flows=flows,
                    downloads=downloads, truth=truth)


# --- the runtime agent ------------------------------------------------------------------


@dataclass(slots=True)
class _Job:
    """One schedule entry as an agent runs it: the proxy's entry, its query
    parsed once, the table the query reads (None if no such table) and,
    for a snapshot table on a period, the timer of its next run."""

    entry: ScheduleEntry
    query: ParsedQuery
    table: Optional[TableKind]
    timer: object = None


class SimAgent:
    """One simulated host: OS tables plus schedule execution.

    The fleet driver applies `SimAction`s; audit events and query results
    leave through `emit(topic, record)` (normally the proxy's
    `route_result`).  Each delivered schedule entry is parsed once, into a
    `_Job`: evented tables stream on change, one-time queries run on add,
    and snapshots run every `ScheduleEntry.period`.
    """

    def __init__(self, init: HostInit, scheduler,
                 emit: Callable = lambda topic, record: None):
        self.init = init
        self.host = init.name
        self.scheduler = scheduler
        self.emit = emit
        self.connected = False
        self.counters: collections.Counter = collections.Counter()
        self._batch_id = 0
        self._jobs: dict[tuple, _Job] = {}
        self._stream_topics: dict[TableKind, tuple[str, ...]] = {}
        # live tables
        self.processes: dict[int, ProcessInfo] = {p.pid: p for p in init.processes}
        self.sockets: dict[tuple[int, int], SocketInfo] = {
            s.key: s for s in init.sockets}
        self.users: dict[int, UserInfo] = {u.uid: u for u in init.users}
        self.files: dict[str, str] = dict(init.files)
        self.addr = init.addr

    # -- table maintenance ---------------------------------------------------

    def apply_action(self, action: SimAction) -> None:
        kind = action.kind
        if kind is ActionKind.PROC_START:
            self.processes[action.proc.pid] = action.proc
        elif kind in (ActionKind.PROC_EXIT, ActionKind.PROC_CRASH):
            self.processes.pop(action.proc.pid, None)
            for key in [k for k in self.sockets if k[0] == action.proc.pid]:
                del self.sockets[key]
        elif kind is ActionKind.SOCK_OPEN:
            self.sockets[action.sock.key] = action.sock
        elif kind is ActionKind.SOCK_CLOSE:
            self.sockets.pop(action.sock.key, None)
        if self.connected:
            ev = action.audit_event()
            if ev is not None:
                self._emit_stream(ev)

    def _emit_stream(self, ev: HostEvent) -> None:
        for topic in self._stream_topics.get(ev.table, ()):
            self.emit(topic, ev)
            self.counters["events_emitted"] += 1

    # -- connection lifecycle ----------------------------------------------------

    def connect(self, proxy) -> None:
        """Emit initial snapshots for all state tables, then register for a
        schedule (one-time entries execute once per connection)."""
        self.connected = True
        for batch in self.initial_batches(self.scheduler.now()):
            self.emit(ENGINE_TOPIC, batch)
        proxy.connect_agent(self.host, deliver=self.on_delta)

    def disconnect(self, proxy=None) -> None:
        self.connected = False
        if proxy is not None:
            proxy.disconnect_agent(self.host)
        for job in self._jobs.values():
            if job.timer is not None:
                self.scheduler.cancel(job.timer)
        self._jobs.clear()
        self._stream_topics = {}

    def initial_batches(self, now: float) -> list[SnapshotBatch]:
        out = []
        for table in STATE_TABLE_ORDER:
            rows = self._snapshot_rows(table, None)
            out.append(self._batch(table, rows, now))
        return out

    # -- schedule execution ---------------------------------------------------------

    def on_delta(self, delta: ScheduleDelta) -> None:
        entry = delta.entry
        if delta.action == "remove":
            job = self._jobs.pop(entry.key, None)
            if job is not None and job.timer is not None:
                self.scheduler.cancel(job.timer)
            self._rebuild_streams()
            return
        job = self._jobs.get(entry.key)
        if job is None:
            try:
                query = parse_query(entry.query)
            except QueryError as exc:
                self._emit_error(entry.query, str(exc), entry.response_topics)
                return
            job = self._jobs[entry.key] = _Job(entry, query,
                                               TABLE_KINDS.get(query.table))
        job.entry = entry
        if job.table in EVENTED_TABLES:
            if entry.one_time:
                self._emit_error(entry.query,
                                 f"{job.query.table} is evented; schedule it",
                                 entry.response_topics)
            else:
                self._rebuild_streams()
            return
        if entry.one_time:
            if delta.action == "add":
                self._execute(job)
            return
        if delta.action == "add" and job.timer is None:
            job.timer = self.scheduler.call_later(entry.period, self._tick, job)

    def _rebuild_streams(self) -> None:
        streams: dict[TableKind, list[str]] = {t: [] for t in EVENTED_TABLES}
        for job in self._jobs.values():
            if job.table in EVENTED_TABLES and not job.entry.one_time:
                for topic in sorted(job.entry.response_topics):
                    if topic not in streams[job.table]:
                        streams[job.table].append(topic)
        self._stream_topics = {t: tuple(topics) for t, topics in streams.items()
                               if topics}

    def _tick(self, job: _Job) -> None:
        # a job's timer is cancelled when it leaves the schedule, so a tick
        # that fires belongs to a job still scheduled on a connected agent
        self._execute(job)
        job.timer = self.scheduler.call_later(job.entry.period, self._tick, job)

    def _execute(self, job: _Job) -> None:
        entry = job.entry
        rows = self._snapshot_rows(job.table, job.query)
        if rows is None:
            self._emit_error(entry.query, f"unknown table {job.query.table!r}",
                             entry.response_topics)
            return
        now = self.scheduler.now()
        for topic in sorted(entry.response_topics):
            self.emit(topic, self._batch(job.table, rows, now))

    def _emit_error(self, query: str, error: str, topics) -> None:
        self.counters["query_errors"] += 1
        now = self.scheduler.now()
        for topic in sorted(topics):
            self.emit(topic, QueryErrorResult(host=self.host, query=query,
                                              error=error, event_time=now))

    def _batch(self, table: TableKind, rows, now: float) -> SnapshotBatch:
        self._batch_id += 1
        return SnapshotBatch(host=self.host, table=table, batch_id=self._batch_id,
                             rows=tuple(rows), event_time=now)

    # -- table queries -----------------------------------------------------------------

    def _snapshot_rows(self, table: Optional[TableKind], parsed) -> Optional[list]:
        """The rows of `table` that `parsed` selects; None if not served."""
        if table is TableKind.PROCESSES:
            rows = [replace(p, source=Source.STATUS)
                    for _, p in sorted(self.processes.items())]
        elif table is TableKind.PROCESS_OPEN_SOCKETS:
            rows = [replace(s, source=Source.STATUS)
                    for _, s in sorted(self.sockets.items())
                    if s.direction is not Direction.LISTENING]
        elif table is TableKind.LISTENING_PORTS:
            rows = [replace(s, source=Source.STATUS)
                    for _, s in sorted(self.sockets.items())
                    if s.direction is Direction.LISTENING]
        elif table is TableKind.USERS:
            rows = [u for _, u in sorted(self.users.items())]
        elif table is TableKind.INTERFACES:
            rows = [InterfaceRecord(self.host, self.addr)]
        elif table is TableKind.FILE_HASH:
            rows = [FileHashRecord(self.host, path, sha)
                    for path, sha in sorted(self.files.items())]
        elif table is TableKind.VERIFICATION:
            rows = ([replace(p, source=Source.STATUS)
                     for _, p in sorted(self.processes.items())]
                    + [replace(s, source=Source.STATUS)
                       for _, s in sorted(self.sockets.items())])
            return rows  # atomic snapshot: no predicate filtering
        else:
            return None
        if parsed is not None and parsed.column:
            rows = [r for r in rows if parsed.matches(r)]
        return rows


class FleetSimulator:
    """Schedules a workload's actions, flows and downloads onto an event loop
    and manages agent connect/disconnect against the engine."""

    def __init__(self, workload: Workload, loop, proxy,
                 flow_sink: Callable[[FlowRecord], None],
                 download_sink: Optional[Callable[[DownloadEvent], None]] = None,
                 register_host: Optional[Callable[[str], None]] = None,
                 deregister_host: Optional[Callable[[str], None]] = None):
        self.workload = workload
        self.loop = loop
        self.proxy = proxy
        self.flow_sink = flow_sink
        self.download_sink = download_sink or (lambda d: None)
        self.register_host = register_host or (lambda h: None)
        self.deregister_host = deregister_host or (lambda h: None)
        self.agents = {
            init.name: SimAgent(init, loop, emit=proxy.route_result)
            for init in workload.hosts}

    def start(self) -> None:
        for i, name in enumerate(sorted(self.agents)):
            self.loop.call_at(i * 1e-4, self._connect, name)
        for action in self.workload.actions:
            self.loop.call_at(action.time, self._apply, action)
        for flow in self.workload.flows:
            self.loop.call_at(flow.end, self.flow_sink, flow)
        for dl in self.workload.downloads:
            self.loop.call_at(dl.ts, self.download_sink, dl)

    def _connect(self, name: str) -> None:
        self.register_host(name)
        self.agents[name].connect(self.proxy)

    def _apply(self, action: SimAction) -> None:
        agent = self.agents[action.host]
        if action.kind is ActionKind.HOST_DOWN:
            agent.disconnect(self.proxy)
            self.deregister_host(action.host)
        elif action.kind is ActionKind.HOST_UP:
            self._connect(action.host)
        else:
            agent.apply_action(action)
