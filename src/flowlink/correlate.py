"""Flow-to-process attribution.

Resolves which hosts own a flow's endpoint addresses, then walks socket
state on those hosts to find the processes (and users) whose sockets match
the flow.  Flows that arrive before the matching telemetry can be parked
for a short retry window and re-attributed when relevant state changes.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .model import FlowTuple, MatchQuality, Proto, Side, canonical_addr, match_socket
from .state import HostStateStore, HostView, StateChange

log = logging.getLogger(__name__)


class AddressIndex:
    """Mutable map from interface address to the hosts currently claiming it.

    Multiple hosts may claim one address (NAT, address reuse, agents racing
    during DHCP churn); lookups return all claimants and leave the ambiguity
    to the attribution layer.
    """

    def __init__(self):
        self._hosts_by_addr: dict[str, set[str]] = collections.defaultdict(set)
        self._addrs_by_host: dict[str, set[str]] = collections.defaultdict(set)

    def add(self, host: str, addr: str) -> None:
        addr = canonical_addr(addr)
        self._hosts_by_addr[addr].add(host)
        self._addrs_by_host[host].add(addr)

    def remove(self, host: str, addr: str) -> None:
        addr = canonical_addr(addr)
        self._hosts_by_addr.get(addr, set()).discard(host)
        if not self._hosts_by_addr.get(addr):
            self._hosts_by_addr.pop(addr, None)
        self._addrs_by_host.get(host, set()).discard(addr)
        if not self._addrs_by_host.get(host):
            self._addrs_by_host.pop(host, None)

    def drop_host(self, host: str) -> None:
        for addr in list(self._addrs_by_host.get(host, ())):
            self.remove(host, addr)

    def hosts_for(self, addr: str) -> frozenset[str]:
        return frozenset(self._hosts_by_addr.get(canonical_addr(addr), ()))

    def addresses_of(self, host: str) -> frozenset[str]:
        return frozenset(self._addrs_by_host.get(host, ()))

    def apply_change(self, change: StateChange) -> None:
        if change.kind == "address":
            if change.action.value == "added":
                self.add(change.host, change.key)
            else:
                self.remove(change.host, change.key)
        elif change.kind == "host" and change.action.value == "removed":
            self.drop_host(change.host)


@dataclass(frozen=True)
class Candidate:
    """One (host, process, user) explanation for a flow endpoint."""

    host: str
    pid: int
    binary_path: str = ""
    uid: Optional[int] = None
    user_name: str = ""
    quality: MatchQuality = MatchQuality.EXACT
    socket_key: tuple[int, int] = (0, 0)

    def entity_process(self) -> tuple:
        return (self.host, self.pid, self.binary_path)

    def entity_user(self) -> tuple:
        return (self.host, self.uid)


# Attribution status per flow side, in decreasing order of confidence.
UNIQUE = "unique"
VAGUE = "vague"
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class AttributionResult:
    flow: FlowTuple
    flow_start: float
    flow_end: float
    originator: tuple[Candidate, ...] = ()
    responder: tuple[Candidate, ...] = ()
    originator_hosts: frozenset[str] = frozenset()
    responder_hosts: frozenset[str] = frozenset()
    decided_at: float = 0.0
    tag: object = None  # caller context (e.g. the raw flow record), carried through

    def side_candidates(self, side: Side) -> tuple[Candidate, ...]:
        return self.originator if side is Side.ORIGINATOR else self.responder

    def side_status(self, side: Side) -> str:
        cands = self.side_candidates(side)
        if not cands:
            return UNATTRIBUTED
        if len({c.entity_process() for c in cands}) == 1:
            return UNIQUE
        return VAGUE

    def status(self) -> str:
        """Combined status: best information available about the originator,
        falling back to the responder when the originator side is dark."""
        if self.originator:
            return self.side_status(Side.ORIGINATOR)
        if self.responder:
            return self.side_status(Side.RESPONDER)
        return UNATTRIBUTED


def _candidate_from_socket(view: HostView, sock, quality: MatchQuality,
                           flow_end: float, ambiguity_window: float) -> list[Candidate]:
    """Build candidates for one matching socket, including the pre-exec image
    when the socket was created close enough to an exec transition that the
    owning image is ambiguous."""
    host = view.host
    out = []
    proc = view.processes.get(sock.pid)
    if proc is None:
        out.append(Candidate(host=host, pid=sock.pid, quality=quality,
                             socket_key=sock.key))
        return out
    user = view.users.get(proc.uid)
    out.append(Candidate(host=host, pid=proc.pid, binary_path=proc.binary_path,
                         uid=proc.uid, user_name=user.name if user else "",
                         quality=quality, socket_key=sock.key))
    for trans in view.exec_history.get(sock.pid, ()):
        if abs(sock.first_seen - trans.time) <= ambiguity_window:
            prior = trans.prior
            puser = view.users.get(prior.uid)
            out.append(Candidate(host=host, pid=prior.pid, binary_path=prior.binary_path,
                                 uid=prior.uid, user_name=puser.name if puser else "",
                                 quality=quality, socket_key=sock.key))
    return out


def attribute(flow: FlowTuple, flow_start: float, flow_end: float,
              index: AddressIndex, store: HostStateStore,
              decided_at: float = 0.0,
              ambiguity_window: float = 0.1) -> AttributionResult:
    """One-shot attribution of a flow against current state.

    Per side: find the hosts owning the side's address, match every socket
    on those hosts against the flow, keep exact matches when any exist
    (otherwise the partial ones), and expand each surviving socket into
    candidates.
    """
    sides = {
        Side.ORIGINATOR: index.hosts_for(flow.orig_addr),
        Side.RESPONDER: index.hosts_for(flow.resp_addr),
    }
    picked: dict[Side, tuple[Candidate, ...]] = {}
    for side, hosts in sides.items():
        exact: list[tuple[float, Candidate]] = []
        partial: list[tuple[float, Candidate]] = []
        if flow.proto is not Proto.ICMP:
            for host in sorted(hosts):
                view = store.view(host)
                if view is None:
                    continue
                for sock in view.sockets.values():
                    quality = match_socket(flow, side, sock)
                    if quality is MatchQuality.NONE:
                        continue
                    cands = _candidate_from_socket(view, sock, quality,
                                                   flow_end, ambiguity_window)
                    bucket = exact if quality is MatchQuality.EXACT else partial
                    bucket.extend((sock.first_seen, c) for c in cands)
        chosen = exact if exact else partial
        # newest socket first; candidate identity breaks ties deterministically
        chosen.sort(key=lambda it: (-it[0], it[1].host, it[1].pid, it[1].binary_path))
        picked[side] = tuple(c for _, c in chosen)
    return AttributionResult(
        flow=flow, flow_start=flow_start, flow_end=flow_end,
        originator=picked[Side.ORIGINATOR], responder=picked[Side.RESPONDER],
        originator_hosts=sides[Side.ORIGINATOR], responder_hosts=sides[Side.RESPONDER],
        decided_at=decided_at,
    )


@dataclass
class _Parked:
    flow: FlowTuple
    flow_start: float
    flow_end: float
    parked_at: float
    tag: object = None
    timer: object = None


class Correlator:
    """Attribution with a bounded retry window for late telemetry.

    A flow whose endpoint resolves to monitored hosts but yields no socket
    candidates is parked; any state change on a relevant host triggers
    re-attribution.  At the deadline the flow is finalized as-is.  Every
    submitted flow produces exactly one emitted result.
    """

    def __init__(self, store: HostStateStore, index: AddressIndex,
                 emit: Callable[[AttributionResult], None],
                 scheduler,
                 retry_window: float = 2.0,
                 max_parked: int = 10_000,
                 ambiguity_window: float = 0.1):
        self.store = store
        self.index = index
        self.emit = emit
        self.scheduler = scheduler
        self.retry_window = retry_window
        self.max_parked = max_parked
        self.ambiguity_window = ambiguity_window
        self._parked: collections.OrderedDict[int, _Parked] = collections.OrderedDict()
        self._next_id = 0
        self.counters: collections.Counter = collections.Counter()

    # -- submission -------------------------------------------------------

    def submit(self, flow: FlowTuple, flow_start: float, flow_end: float,
               tag: object = None) -> None:
        now = self._now()
        result = attribute(flow, flow_start, flow_end, self.index, self.store,
                           decided_at=now, ambiguity_window=self.ambiguity_window)
        if self.retry_window > 0 and self._should_park(result):
            self._park(flow, flow_start, flow_end, now, tag)
            return
        self._finish(replace(result, tag=tag))

    def _should_park(self, result: AttributionResult) -> bool:
        # Parking only helps when some monitored host could still produce
        # telemetry for a side that currently has nothing.
        if result.flow.proto is Proto.ICMP:
            return False
        for hosts, cands in ((result.originator_hosts, result.originator),
                             (result.responder_hosts, result.responder)):
            if hosts and not cands:
                connected = any(h in self.store.connected_hosts() for h in hosts)
                if connected:
                    return True
        return False

    def _park(self, flow: FlowTuple, flow_start: float, flow_end: float,
              now: float, tag: object = None) -> None:
        while len(self._parked) >= self.max_parked:
            _, oldest = self._parked.popitem(last=False)
            self._cancel_timer(oldest)
            self.counters["parked_evicted"] += 1
            self._finalize(oldest)
        pid = self._next_id
        self._next_id += 1
        entry = _Parked(flow=flow, flow_start=flow_start, flow_end=flow_end,
                        parked_at=now, tag=tag)
        entry.timer = self.scheduler.call_later(
            self.retry_window, self._on_deadline, pid)
        self._parked[pid] = entry
        self.counters["parked"] += 1

    # -- retry paths -------------------------------------------------------

    def on_state_change(self, change: StateChange) -> None:
        if change.kind not in ("socket", "process", "host"):
            return
        if not self._parked:
            return
        host = change.host
        for pid in list(self._parked):
            entry = self._parked.get(pid)
            if entry is None:
                continue
            relevant = (host in self.index.hosts_for(entry.flow.orig_addr)
                        or host in self.index.hosts_for(entry.flow.resp_addr))
            if not relevant:
                continue
            result = attribute(entry.flow, entry.flow_start, entry.flow_end,
                               self.index, self.store, decided_at=self._now(),
                               ambiguity_window=self.ambiguity_window)
            if not self._should_park(result):
                self._unpark(pid)
                self.counters["retry_resolved"] += 1
                self._finish(replace(result, tag=entry.tag))

    def _on_deadline(self, pid: int) -> None:
        entry = self._parked.pop(pid, None)
        if entry is None:
            return
        self.counters["retry_expired"] += 1
        self._finalize(entry)

    def flush(self) -> None:
        """Finalize everything still parked (shutdown path)."""
        for pid in list(self._parked):
            entry = self._parked.pop(pid)
            self._cancel_timer(entry)
            self.counters["flushed"] += 1
            self._finalize(entry)

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    # -- internals ----------------------------------------------------------

    def _finalize(self, entry: _Parked) -> None:
        result = attribute(entry.flow, entry.flow_start, entry.flow_end,
                           self.index, self.store, decided_at=self._now(),
                           ambiguity_window=self.ambiguity_window)
        self._finish(replace(result, tag=entry.tag))

    def _finish(self, result: AttributionResult) -> None:
        self.counters["emitted"] += 1
        self.emit(result)

    def _unpark(self, pid: int) -> None:
        entry = self._parked.pop(pid, None)
        if entry is not None:
            self._cancel_timer(entry)

    def _cancel_timer(self, entry: _Parked) -> None:
        if entry.timer is not None:
            self.scheduler.cancel(entry.timer)
            entry.timer = None

    def _now(self) -> float:
        return self.scheduler.now()


@dataclass
class SideTally:
    flows: int = 0
    attributed: int = 0
    unique_host: int = 0
    unique_process: int = 0
    unique_user: int = 0
    host_entities: int = 0
    process_entities: int = 0
    user_entities: int = 0

    def rate(self) -> float:
        return self.attributed / self.flows if self.flows else 0.0

    def host_uniqueness(self) -> float:
        return self.unique_host / self.attributed if self.attributed else 0.0

    def process_uniqueness(self) -> float:
        return self.unique_process / self.attributed if self.attributed else 0.0

    def user_uniqueness(self) -> float:
        return self.unique_user / self.attributed if self.attributed else 0.0

    def avg_hosts(self) -> float:
        return self.host_entities / self.attributed if self.attributed else 0.0

    def avg_processes(self) -> float:
        return self.process_entities / self.attributed if self.attributed else 0.0

    def avg_users(self) -> float:
        return self.user_entities / self.attributed if self.attributed else 0.0


class AttributionMetrics:
    """Streaming attribution quality tallies, split by protocol.

    "Attributed" means the originator side produced at least one candidate.
    Uniqueness counts flows whose candidate set names exactly one distinct
    entity (host; (host, pid, binary); (host, uid)), over attributed flows.
    Per-application counts rank by the first candidate's binary basename.
    An optional address filter (e.g. DNS servers) reports process uniqueness
    with flows to those responders excluded.
    """

    def __init__(self, filtered_responders: Iterable[str] = ()):
        self.per_proto: dict[Proto, SideTally] = {p: SideTally() for p in Proto}
        self.filtered = SideTally()
        self.filtered_responders = {canonical_addr(a) for a in filtered_responders}
        self.by_application: collections.Counter = collections.Counter()
        self.status_counts: collections.Counter = collections.Counter()

    def observe(self, result: AttributionResult) -> None:
        tally = self.per_proto[result.flow.proto]
        self._observe_into(tally, result)
        if result.flow.resp_addr not in self.filtered_responders:
            self._observe_into(self.filtered, result)
        self.status_counts[result.status()] += 1
        if result.originator:
            top = result.originator[0]
            name = top.binary_path.rsplit("/", 1)[-1] if top.binary_path else "<unknown>"
            self.by_application[name] += 1

    @staticmethod
    def _observe_into(tally: SideTally, result: AttributionResult) -> None:
        tally.flows += 1
        cands = result.originator
        if not cands:
            return
        tally.attributed += 1
        hosts = {c.host for c in cands}
        procs = {c.entity_process() for c in cands}
        users = {c.entity_user() for c in cands}
        tally.host_entities += len(hosts)
        tally.process_entities += len(procs)
        tally.user_entities += len(users)
        if len(hosts) == 1:
            tally.unique_host += 1
        if len(procs) == 1:
            tally.unique_process += 1
        if len(users) == 1:
            tally.unique_user += 1

    def top_applications(self, n: int = 10) -> list[tuple[str, int]]:
        return self.by_application.most_common(n)

    def snapshot(self) -> dict:
        out: dict = {"per_proto": {}, "status": dict(self.status_counts),
                     "top_applications": self.top_applications()}
        for proto, tally in self.per_proto.items():
            out["per_proto"][proto.value] = {
                "flows": tally.flows,
                "attribution_rate": tally.rate(),
                "host_uniqueness": tally.host_uniqueness(),
                "process_uniqueness": tally.process_uniqueness(),
                "user_uniqueness": tally.user_uniqueness(),
                "avg_hosts": tally.avg_hosts(),
                "avg_processes": tally.avg_processes(),
                "avg_users": tally.avg_users(),
            }
        if self.filtered_responders:
            out["filtered"] = {
                "flows": self.filtered.flows,
                "process_uniqueness": self.filtered.process_uniqueness(),
            }
        return out
