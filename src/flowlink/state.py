"""Per-host live state assembled from telemetry: processes, sockets, users,
and interface addresses.

Audit streams push additions/removals as they happen; status snapshots upsert
whatever a probe saw. Periodic verification probes reconcile both against the
kernel's current view, purging entries that vanished without a removal event
(crashes, broken connections).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from flowlink.model import (
    Action,
    HostEvent,
    InterfaceRecord,
    ProcessInfo,
    SnapshotBatch,
    SocketInfo,
    Source,
    TableKind,
    UserInfo,
    payload_to_dict,
)

SOCKET_TABLES = (TableKind.SOCKET_EVENTS, TableKind.LISTENING_PORTS,
                 TableKind.PROCESS_OPEN_SOCKETS)

STATE_TABLES = (TableKind.PROCESSES, TableKind.PROCESS_OPEN_SOCKETS,
                TableKind.LISTENING_PORTS, TableKind.USERS, TableKind.INTERFACES)


class StateError(Exception):
    """Raised when an operation violates the host lifecycle (e.g. verifying a
    disconnected host)."""


@dataclass(frozen=True)
class StateChange:
    """Derived notification emitted after each state mutation."""

    host: str
    kind: str              # process | socket | user | address | host
    action: Action
    key: Any
    payload: Any = None
    time: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    host: str
    removed_processes: list[int]
    removed_sockets: list[tuple[int, int]]
    checked_at: float


@dataclass(frozen=True)
class ExecTransition:
    """Binary handover on a pid (execve): the prior generation stays quotable
    as an attribution candidate for sockets created near the transition."""

    time: float
    prior: ProcessInfo


@dataclass
class HostState:
    host: str
    connected: bool = True
    addresses: set[str] = field(default_factory=set)
    processes: dict[int, ProcessInfo] = field(default_factory=dict)
    sockets: dict[tuple[int, int], SocketInfo] = field(default_factory=dict)
    users: dict[int, UserInfo] = field(default_factory=dict)
    exec_history: dict[int, list[ExecTransition]] = field(default_factory=dict)
    last_snapshot_time: float = 0.0
    last_batch_id: dict[TableKind, int] = field(default_factory=dict)
    disconnected_at: float | None = None


@dataclass(frozen=True)
class HostView:
    """Immutable cross-host read snapshot of one host's state."""

    host: str
    connected: bool
    addresses: frozenset[str]
    processes: dict[int, ProcessInfo]
    sockets: dict[tuple[int, int], SocketInfo]
    users: dict[int, UserInfo]
    exec_history: dict[int, tuple[ExecTransition, ...]]


class HostStateStore:
    """Owns all per-host state.  It takes no lock of its own: callers
    serialize every call, as the engine does with the scheduler's lock."""

    def __init__(self, clock: Callable[[], float], grace_period: float = 60.0):
        self._clock = clock
        self.grace_period = grace_period
        self._hosts: dict[str, HostState] = {}
        self.counters: Counter = Counter()
        self._listeners: list[Callable[[StateChange], None]] = []

    # -- wiring ---------------------------------------------------------

    def add_listener(self, fn: Callable[[StateChange], None]):
        self._listeners.append(fn)

    def _emit(self, changes: list[StateChange]):
        for ch in changes:
            for fn in self._listeners:
                fn(ch)

    # -- lifecycle ------------------------------------------------------

    def handle_reconnect(self, host: str) -> list[StateChange]:
        """(Re-)connect a host: prior state is discarded and a fresh, empty
        connected state is created. Initial snapshot requests are the
        caller's responsibility."""
        now = self._clock()
        changes: list[StateChange] = []
        old = self._hosts.pop(host, None)
        if old is not None:
            for addr in sorted(old.addresses):
                changes.append(StateChange(host, "address", Action.REMOVED, addr, time=now))
            changes.append(StateChange(host, "host", Action.REMOVED, host, time=now))
        self._hosts[host] = HostState(host=host)
        changes.append(StateChange(host, "host", Action.ADDED, host, time=now))
        self._emit(changes)
        return changes

    def handle_disconnect(self, host: str) -> list[StateChange]:
        """Freeze the host's state; it stays readable for late attribution
        until the grace period expires."""
        now = self._clock()
        st = self._hosts.get(host)
        if st is None:
            self.counters["disconnect_unknown_host"] += 1
            return []
        if not st.connected:
            self.counters["disconnect_noop"] += 1
            return []
        st.connected = False
        st.disconnected_at = now
        changes = [StateChange(host, "host", Action.REMOVED, "connected", time=now)]
        self._emit(changes)
        return changes

    def expire_disconnected(self, now: float | None = None) -> list[str]:
        """Discard frozen state whose grace period has run out; their
        addresses leave the index so reused IPs resolve to the new owner."""
        now = self._clock() if now is None else now
        expired = [host for host, st in self._hosts.items()
                   if not st.connected and st.disconnected_at is not None
                   and now - st.disconnected_at >= self.grace_period]
        changes: list[StateChange] = []
        for host in expired:
            st = self._hosts.pop(host)
            for addr in sorted(st.addresses):
                changes.append(StateChange(host, "address", Action.REMOVED, addr, time=now))
            changes.append(StateChange(host, "host", Action.REMOVED, host, time=now))
        self._emit(changes)
        return expired

    # -- event application ----------------------------------------------

    def apply_event(self, ev: HostEvent) -> list[StateChange]:
        """Fold one streamed add/remove row into the host's state."""
        st = self._hosts.get(ev.host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return []
        changes = self._apply(st, ev)
        self._emit(changes)
        return changes

    def _apply(self, st: HostState, ev: HostEvent) -> list[StateChange]:
        now = ev.event_time
        if ev.table == TableKind.PROCESS_EVENTS:
            if ev.action == Action.REMOVED:
                return self._remove_process(st, ev.payload.pid, now)
            return self._upsert_process(st, ev.payload, now)
        if ev.table in SOCKET_TABLES:
            if ev.action == Action.REMOVED:
                return self._remove_socket(st, ev.payload.key, now)
            return self._upsert_socket(st, ev.payload, now)
        if ev.table == TableKind.USERS:
            if ev.action == Action.REMOVED:
                if st.users.pop(ev.payload.uid, None) is None:
                    self.counters["late_removal_noop"] += 1
                    return []
                return [StateChange(st.host, "user", Action.REMOVED, ev.payload.uid, time=now)]
            st.users[ev.payload.uid] = ev.payload
            return [StateChange(st.host, "user", Action.ADDED, ev.payload.uid, ev.payload, now)]
        if ev.table == TableKind.INTERFACES:
            addr = ev.payload.addr
            if ev.action == Action.REMOVED:
                if addr not in st.addresses:
                    self.counters["late_removal_noop"] += 1
                    return []
                st.addresses.discard(addr)
                return [StateChange(st.host, "address", Action.REMOVED, addr, time=now)]
            if addr in st.addresses:
                return []
            st.addresses.add(addr)
            return [StateChange(st.host, "address", Action.ADDED, addr, ev.payload, now)]
        if ev.table == TableKind.TLS_KEYS:
            # Reserved message kind: counted, carried, never interpreted.
            self.counters["tls_keys_received"] += 1
            return []
        self.counters["unroutable_table"] += 1
        return []

    def _upsert_process(self, st: HostState, proc: ProcessInfo, now: float) -> list[StateChange]:
        changes: list[StateChange] = []
        old = st.processes.get(proc.pid)
        proc = replace(proc, last_verified=max(proc.last_verified, now))
        if old is not None and old.start_time == proc.start_time:
            same_image = old.binary_path == proc.binary_path
            if not same_image:
                # execve: same generation, new image; keep sockets, remember
                # the prior image for near-transition attribution ambiguity.
                hist = st.exec_history.setdefault(proc.pid, [])
                hist.append(ExecTransition(now, old))
                del hist[:-8]
            merged = replace(
                proc,
                binary_hash=old.binary_hash
                if same_image and proc.binary_hash is None else proc.binary_hash,
                source=Source.STATUS
                if same_image and Source.STATUS in (proc.source, old.source) else proc.source,
            )
            st.processes[proc.pid] = merged
            changes.append(StateChange(st.host, "process", Action.ADDED, proc.pid, merged, now))
            return changes
        if old is not None:
            # pid reuse: a different generation took over; its predecessor's
            # sockets cannot explain new flows and are closed here.
            for key in [k for k in st.sockets if k[0] == proc.pid]:
                del st.sockets[key]
                changes.append(StateChange(st.host, "socket", Action.REMOVED, key, time=now))
            st.exec_history.pop(proc.pid, None)
        st.processes[proc.pid] = proc
        changes.append(StateChange(st.host, "process", Action.ADDED, proc.pid, proc, now))
        return changes

    def _remove_process(self, st: HostState, pid: int, now: float) -> list[StateChange]:
        if st.processes.pop(pid, None) is None:
            self.counters["late_removal_noop"] += 1
            return []
        st.exec_history.pop(pid, None)
        return [StateChange(st.host, "process", Action.REMOVED, pid, time=now)]

    def _upsert_socket(self, st: HostState, sock: SocketInfo, now: float) -> list[StateChange]:
        old = st.sockets.get(sock.key)
        merged = sock
        if old is not None:
            merged = _merge_socket(old, sock)
        merged = replace(merged, last_verified=max(merged.last_verified, now))
        if merged.first_seen == 0.0:
            merged = replace(merged, first_seen=now)
        st.sockets[sock.key] = merged
        return [StateChange(st.host, "socket", Action.ADDED, sock.key, merged, now)]

    def _remove_socket(self, st: HostState, key: tuple[int, int], now: float) -> list[StateChange]:
        if st.sockets.pop(key, None) is None:
            self.counters["late_removal_noop"] += 1
            return []
        return [StateChange(st.host, "socket", Action.REMOVED, key, time=now)]

    # -- snapshots --------------------------------------------------------

    def merge_snapshot(self, batch: SnapshotBatch) -> list[StateChange]:
        """Upsert a probe's rows; absence from a plain snapshot removes
        nothing (that is verification's job)."""
        if batch.verification:
            raise StateError("verification batches must go through verify()")
        st = self._hosts.get(batch.host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return []
        last = st.last_batch_id.get(batch.table, -1)
        if batch.batch_id <= last:
            self.counters["stale_batch"] += 1
            return []
        st.last_batch_id[batch.table] = batch.batch_id
        st.last_snapshot_time = batch.event_time
        now = batch.event_time
        changes: list[StateChange] = []
        for row in batch.rows:
            if batch.table == TableKind.PROCESSES:
                changes += self._upsert_process(st, row, now)
            elif batch.table in SOCKET_TABLES:
                changes += self._upsert_socket(st, row, now)
            elif batch.table == TableKind.USERS:
                st.users[row.uid] = row
                changes.append(StateChange(st.host, "user", Action.ADDED, row.uid, row, now))
            elif batch.table == TableKind.INTERFACES:
                if row.addr not in st.addresses:
                    st.addresses.add(row.addr)
                    changes.append(StateChange(st.host, "address", Action.ADDED, row.addr, row, now))
            else:
                self.counters["unroutable_table"] += 1
        self._emit(changes)
        return changes

    def verify(self, batch: SnapshotBatch) -> VerificationReport:
        """Reconcile held processes and sockets against one atomic probe of
        the kernel status: anything we hold that the probe did not see is
        purged, survivors get a fresh last_verified."""
        st = self._hosts.get(batch.host)
        if st is None or not st.connected:
            raise StateError(f"cannot verify disconnected host {batch.host!r}")
        seen_pids = {r.pid for r in batch.rows if isinstance(r, ProcessInfo)}
        seen_socks = {r.key for r in batch.rows if isinstance(r, SocketInfo)}
        now = batch.event_time
        changes: list[StateChange] = []
        removed_procs = sorted(pid for pid in st.processes if pid not in seen_pids)
        removed_socks = sorted(key for key in st.sockets if key not in seen_socks)
        for pid in removed_procs:
            del st.processes[pid]
            st.exec_history.pop(pid, None)
            changes.append(StateChange(st.host, "process", Action.REMOVED, pid, time=now))
        for key in removed_socks:
            del st.sockets[key]
            changes.append(StateChange(st.host, "socket", Action.REMOVED, key, time=now))
        for pid, proc in st.processes.items():
            st.processes[pid] = replace(proc, last_verified=now)
        for key, s in st.sockets.items():
            st.sockets[key] = replace(s, last_verified=now)
        self._emit(changes)
        return VerificationReport(batch.host, removed_procs, removed_socks, now)

    # -- reads ------------------------------------------------------------

    def view(self, host: str) -> HostView | None:
        st = self._hosts.get(host)
        if st is None:
            return None
        return HostView(
            host=st.host, connected=st.connected,
            addresses=frozenset(st.addresses),
            processes=dict(st.processes),
            sockets=dict(st.sockets),
            users=dict(st.users),
            exec_history={pid: tuple(h) for pid, h in st.exec_history.items()},
        )

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def connected_hosts(self) -> list[str]:
        return sorted(h for h, st in self._hosts.items() if st.connected)

    def dump_records(self, host: str | None = None) -> Iterator[dict]:
        """Full state as plain records, the same row shape agents emit in
        snapshot batches."""
        hosts = [host] if host else self.hosts()
        for h in hosts:
            view = self.view(h)
            if view is None:
                continue
            for addr in sorted(view.addresses):
                yield payload_to_dict(InterfaceRecord(h, addr))
            for pid in sorted(view.processes):
                yield payload_to_dict(view.processes[pid])
            for key in sorted(view.sockets):
                yield payload_to_dict(view.sockets[key])
            for uid in sorted(view.users):
                yield payload_to_dict(view.users[uid])


def _merge_socket(old: SocketInfo, new: SocketInfo) -> SocketInfo:
    """Consolidate two sightings of the same (pid, fd): status-sourced fields
    override absent audit fields, never the other way around."""
    def pick(new_a, new_p, old_a, old_p):
        if new_a is not None and new_p is not None:
            return new_a, new_p
        return old_a, old_p

    la, lp = pick(new.local_addr, new.local_port, old.local_addr, old.local_port)
    ra, rp = pick(new.remote_addr, new.remote_port, old.remote_addr, old.remote_port)
    source = Source.STATUS if Source.STATUS in (old.source, new.source) else Source.AUDIT
    first_seen = min(t for t in (old.first_seen, new.first_seen) if t > 0.0) \
        if (old.first_seen > 0.0 or new.first_seen > 0.0) else 0.0
    return SocketInfo(
        host=new.host, pid=new.pid, fd=new.fd, proto=new.proto,
        direction=new.direction, source=source,
        local_addr=la, local_port=lp, remote_addr=ra, remote_port=rp,
        first_seen=first_seen,
        last_verified=max(old.last_verified, new.last_verified),
    )
