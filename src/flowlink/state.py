"""Per-host live state assembled from telemetry: processes, sockets, users,
and interface addresses, with the index of which hosts claim each address.

Audit streams push additions/removals as they happen; status snapshots upsert
whatever a probe saw. Periodic verification probes reconcile both against the
kernel's current view, purging entries that vanished without a removal event
(crashes, broken connections).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from flowlink.model import (
    Action,
    HostEvent,
    InterfaceRecord,
    ProcessInfo,
    SnapshotBatch,
    SocketInfo,
    TableKind,
    UserInfo,
    canonical_addr,
    payload_to_dict,
)

PROCESS_TABLES = (TableKind.PROCESS_EVENTS, TableKind.PROCESSES)
SOCKET_TABLES = (TableKind.SOCKET_EVENTS, TableKind.LISTENING_PORTS,
                 TableKind.PROCESS_OPEN_SOCKETS)


@dataclass(frozen=True, slots=True)
class StateChange:
    """A mutation that can alter an attribution, announced to listeners.

    Exactly three kinds are announced: `socket` (a socket upsert whose
    stored record differs from the one held before, key `(pid, fd)`, action
    ADDED), `address` (an interface address added to or removed from the
    host, key the address) and `host` (the host disconnected, action
    REMOVED, key the host name).  Process and user rows, socket removals,
    verification purges and a socket re-sighting equal to the held record
    announce nothing: none of them can give a flow side a candidate or
    change its host set.  Nor do a reconnect and an expiry beyond their
    address removals: by then the host claims no address, so no flow side
    can name it."""

    host: str
    kind: str              # socket | address | host
    action: Action
    key: Any


@dataclass(frozen=True, slots=True)
class ExecTransition:
    """Binary handover on a pid (execve): the prior generation stays quotable
    as an attribution candidate for sockets created near the transition."""

    time: float
    prior: ProcessInfo


class AddressIndex:
    """Mutable map from interface address to the hosts currently claiming it.

    Multiple hosts may claim one address (NAT, address reuse, agents racing
    during DHCP churn); lookups return all claimants and leave the ambiguity
    to the attribution layer.

    The index follows the store's address changes only.  A disconnected host
    keeps its addresses through its grace period, so its frozen state stays
    reachable for late attribution; reconnect and grace expiry emit the
    address removals that take them out.
    """

    def __init__(self):
        self._hosts_by_addr: dict[str, set[str]] = defaultdict(set)

    def add(self, host: str, addr: str) -> None:
        addr = canonical_addr(addr)
        self._hosts_by_addr[addr].add(host)

    def remove(self, host: str, addr: str) -> None:
        addr = canonical_addr(addr)
        self._hosts_by_addr.get(addr, set()).discard(host)
        if not self._hosts_by_addr.get(addr):
            self._hosts_by_addr.pop(addr, None)

    def hosts_for(self, addr: str) -> frozenset[str]:
        return frozenset(self._hosts_by_addr.get(canonical_addr(addr), ()))

    def apply_change(self, change: StateChange) -> None:
        if change.kind == "address":
            if change.action.value == "added":
                self.add(change.host, change.key)
            else:
                self.remove(change.host, change.key)


@dataclass(slots=True)
class HostState:
    """One host's held state.  After a disconnect it stays readable, frozen,
    until the grace period runs out; `disconnected_at` is None while the
    host is connected."""

    host: str
    addresses: set[str] = field(default_factory=set)
    processes: dict[int, ProcessInfo] = field(default_factory=dict)
    sockets: dict[tuple[int, int], SocketInfo] = field(default_factory=dict)
    users: dict[int, UserInfo] = field(default_factory=dict)
    exec_history: dict[int, list[ExecTransition]] = field(default_factory=dict)
    last_batch_id: dict[TableKind, int] = field(default_factory=dict)
    disconnected_at: float | None = None

    @property
    def connected(self) -> bool:
        return self.disconnected_at is None


class HostStateStore:
    """Owns all per-host state.  It takes no lock of its own: callers
    serialize every call, as the engine does with the scheduler's lock.

    `view(host)` hands out the held `HostState` itself, not a copy.  Readers
    call it under the same lock and never mutate what it returns; a reader
    that keeps it past its call sees later folds.  Listeners hear each
    `StateChange` (see there for what is announced) once the call that made
    it has finished.

    The store also keeps `index`, the `AddressIndex` of which hosts claim
    which address.  It applies each change to the index just before the
    listeners hear that change, so a listener that looks hosts up by
    address already sees the change.

    Every row enters through `_upsert`, streamed or from a snapshot, and
    processes and sockets leave only through `_remove_process` and
    `_remove_socket`.  Held records are frozen and shared: folding a row
    stores the incoming record itself unless consolidation changes a field,
    and then builds one new record.  Verification only purges; survivors
    stay the records they were.

    A disconnect freezes a host's state and hands it back; the caller owns
    the grace period and hands that state to `expire` when it runs out."""

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._hosts: dict[str, HostState] = {}
        self.counters: Counter = Counter()
        self.index = AddressIndex()
        self._listeners: list[Callable[[StateChange], None]] = []

    # -- wiring ---------------------------------------------------------

    def add_listener(self, fn: Callable[[StateChange], None]):
        self._listeners.append(fn)

    def _emit(self, changes: list[StateChange]):
        for ch in changes:
            self.index.apply_change(ch)
            for fn in self._listeners:
                fn(ch)

    # -- lifecycle ------------------------------------------------------

    def handle_reconnect(self, host: str) -> None:
        """(Re-)connect a host: prior state is discarded and a fresh, empty
        connected state is created. Initial snapshot requests are the
        caller's responsibility."""
        changes = self._drop(host)
        self._hosts[host] = HostState(host=host)
        self._emit(changes)

    def handle_disconnect(self, host: str) -> HostState | None:
        """Freeze the host's state and return it; it stays readable for late
        attribution until it is handed to `expire`.  An unknown or already
        disconnected host is counted, and None returned."""
        st = self._hosts.get(host)
        if st is None:
            self.counters["disconnect_unknown_host"] += 1
            return None
        if not st.connected:
            self.counters["disconnect_noop"] += 1
            return None
        st.disconnected_at = self._clock()
        self._emit([StateChange(host, "host", Action.REMOVED, host)])
        return st

    def expire(self, frozen: HostState) -> None:
        """Discard `frozen`, a state `handle_disconnect` returned, if the
        store still holds it (a reconnect replaces it); its addresses leave
        the index so reused IPs resolve to the new owner."""
        if self._hosts.get(frozen.host) is frozen:
            self._emit(self._drop(frozen.host))

    def _drop(self, host: str) -> list[StateChange]:
        """Discard a host's state; the changes are its address removals."""
        st = self._hosts.pop(host, None)
        if st is None:
            return []
        return [StateChange(host, "address", Action.REMOVED, addr)
                for addr in sorted(st.addresses)]

    def _live(self, host: str) -> HostState | None:
        """The state telemetry from `host` may change, or None (counted)
        when the host is unknown or disconnected."""
        st = self._hosts.get(host)
        if st is None or not st.connected:
            self.counters["events_while_down"] += 1
            return None
        return st

    # -- folding rows -----------------------------------------------------

    def apply_event(self, ev: HostEvent) -> None:
        """Fold one streamed add/remove row into the host's state."""
        st = self._live(ev.host)
        if st is not None:
            change = self._apply(st, ev)
            if change is not None:
                self._emit([change])

    def _apply(self, st: HostState, ev: HostEvent) -> StateChange | None:
        row = ev.payload
        if ev.action != Action.REMOVED:
            return self._upsert(st, ev.table, row, ev.event_time)
        if ev.table in PROCESS_TABLES:
            self._remove_process(st, row.pid)
        elif ev.table in SOCKET_TABLES:
            self._remove_socket(st, row.key)
        elif ev.table == TableKind.USERS:
            if st.users.pop(row.uid, None) is None:
                self.counters["late_removal_noop"] += 1
        elif ev.table == TableKind.INTERFACES:
            if row.addr not in st.addresses:
                self.counters["late_removal_noop"] += 1
                return None
            st.addresses.remove(row.addr)
            return StateChange(st.host, "address", Action.REMOVED, row.addr)
        else:
            self.counters["unroutable_table"] += 1
        return None

    def merge_snapshot(self, batch: SnapshotBatch) -> None:
        """Upsert a probe's rows; absence from a plain snapshot removes
        nothing (that is verification's job: a verification batch goes to
        `verify`)."""
        if batch.table is TableKind.VERIFICATION:
            self.verify(batch)
            return
        st = self._live(batch.host)
        if st is None:
            return
        if batch.batch_id <= st.last_batch_id.get(batch.table, -1):
            self.counters["stale_batch"] += 1
            return
        st.last_batch_id[batch.table] = batch.batch_id
        changes: list[StateChange] = []
        for row in batch.rows:
            change = self._upsert(st, batch.table, row, batch.event_time)
            if change is not None:
                changes.append(change)
        self._emit(changes)

    def _upsert(self, st: HostState, table: TableKind, row, now: float) -> StateChange | None:
        """Fold one added or sighted row of `table`."""
        if table in SOCKET_TABLES:
            old = st.sockets.get(row.key)
            st.sockets[row.key] = merged = _merge_socket(old, row, now)
            if merged == old:
                return None
            return StateChange(st.host, "socket", Action.ADDED, row.key)
        if table in PROCESS_TABLES:
            self._upsert_process(st, row, now)
        elif table == TableKind.USERS:
            st.users[row.uid] = row
        elif table == TableKind.INTERFACES:
            if row.addr in st.addresses:
                return None
            st.addresses.add(row.addr)
            return StateChange(st.host, "address", Action.ADDED, row.addr)
        else:
            self.counters["unroutable_table"] += 1
        return None

    def _upsert_process(self, st: HostState, proc: ProcessInfo, now: float) -> None:
        old = st.processes.get(proc.pid)
        if old is not None and old.start_time == proc.start_time:
            if old.binary_path != proc.binary_path:
                # execve: same generation, new image; keep sockets, remember
                # the prior image for near-transition attribution ambiguity.
                hist = st.exec_history.setdefault(proc.pid, [])
                hist.append(ExecTransition(now, old))
                del hist[:-8]
        elif old is not None:
            # pid reuse: a different generation took over; its predecessor's
            # sockets cannot explain new flows and are closed here, and its
            # images are no attribution candidates for the new one.
            for key in [k for k in st.sockets if k[0] == proc.pid]:
                self._remove_socket(st, key)
            st.exec_history.pop(proc.pid, None)
        st.processes[proc.pid] = proc

    def _remove_process(self, st: HostState, pid: int) -> None:
        if st.processes.pop(pid, None) is None:
            self.counters["late_removal_noop"] += 1
            return
        st.exec_history.pop(pid, None)

    def _remove_socket(self, st: HostState, key: tuple[int, int]) -> None:
        if st.sockets.pop(key, None) is None:
            self.counters["late_removal_noop"] += 1

    def verify(self, batch: SnapshotBatch) -> None:
        """Reconcile held processes and sockets against one atomic probe of
        the kernel status: anything we hold that the probe did not see is
        purged; survivors are left as they are."""
        st = self._live(batch.host)
        if st is None:
            return
        seen_pids = {r.pid for r in batch.rows if isinstance(r, ProcessInfo)}
        seen_socks = {r.key for r in batch.rows if isinstance(r, SocketInfo)}
        for pid in [pid for pid in st.processes if pid not in seen_pids]:
            self._remove_process(st, pid)
        for key in [key for key in st.sockets if key not in seen_socks]:
            self._remove_socket(st, key)

    # -- reads ------------------------------------------------------------

    def view(self, host: str) -> HostState | None:
        """The held state of `host` (see the class docstring), or None."""
        return self._hosts.get(host)

    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def connected_hosts(self) -> list[str]:
        return sorted(h for h, st in self._hosts.items() if st.connected)

    def is_connected(self, host: str) -> bool:
        st = self._hosts.get(host)
        return st is not None and st.connected

    def dump_records(self) -> Iterator[dict]:
        """Full state as plain records, the same row shape agents emit in
        snapshot batches."""
        for h in self.hosts():
            st = self.view(h)
            if st is None:
                continue
            for addr in sorted(st.addresses):
                yield payload_to_dict(InterfaceRecord(h, addr))
            for pid in sorted(st.processes):
                yield payload_to_dict(st.processes[pid])
            for key in sorted(st.sockets):
                yield payload_to_dict(st.sockets[key])
            for uid in sorted(st.users):
                yield payload_to_dict(st.users[uid])


def _merge_socket(old: SocketInfo | None, new: SocketInfo, now: float) -> SocketInfo:
    """Consolidate a sighting of a (pid, fd) at `now` with what is held for
    it: an endpoint the sighting lacks keeps its held value, and the earliest
    known `first_seen` wins.  Returns `new` itself when consolidation changes
    none of its fields, and otherwise builds exactly one record."""
    la, lp, ra, rp = new.local_addr, new.local_port, new.remote_addr, new.remote_port
    first_seen = new.first_seen
    if old is not None:
        if la is None or lp is None:
            la, lp = old.local_addr, old.local_port
        if ra is None or rp is None:
            ra, rp = old.remote_addr, old.remote_port
        if first_seen <= 0.0:
            first_seen = max(old.first_seen, 0.0)
        elif 0.0 < old.first_seen < first_seen:
            first_seen = old.first_seen
    if first_seen == 0.0:
        first_seen = now
    if (la == new.local_addr and lp == new.local_port and ra == new.remote_addr
            and rp == new.remote_port and first_seen == new.first_seen):
        return new
    return SocketInfo(
        host=new.host, pid=new.pid, fd=new.fd, proto=new.proto,
        direction=new.direction, source=new.source,
        local_addr=la, local_port=lp, remote_addr=ra, remote_port=rp,
        first_seen=first_seen,
    )
