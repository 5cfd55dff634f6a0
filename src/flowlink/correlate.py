"""Flow-to-process attribution.

Resolves which hosts own a flow's endpoint addresses, then walks socket
state on those hosts to find the processes (and users) whose sockets match
the flow.  Flows that arrive before the matching telemetry can be parked
for a short retry window and re-attributed when relevant state changes.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .model import FlowTuple, MatchQuality, Proto, Side, canonical_addr, match_socket
from .runtime import DeadlineMap
from .state import AddressIndex, HostState, HostStateStore, StateChange

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One (host, process, user) explanation for a flow endpoint."""

    host: str
    pid: int
    binary_path: str = ""
    uid: Optional[int] = None
    user_name: str = ""
    quality: MatchQuality = MatchQuality.EXACT

    def entity_process(self) -> tuple:
        return (self.host, self.pid, self.binary_path)

    def entity_user(self) -> tuple:
        return (self.host, self.uid)


# Attribution status per flow side, in decreasing order of confidence.
UNIQUE = "unique"
VAGUE = "vague"
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True, slots=True)
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


# A socket first seen within this many seconds of an exec on its pid may
# belong to the image before the exec as well as the one after it.
EXEC_AMBIGUITY_WINDOW = 0.1


def _candidate_from_socket(state: HostState, sock,
                           quality: MatchQuality) -> list[Candidate]:
    """Build candidates for one matching socket, including the pre-exec image
    when the socket was created within `EXEC_AMBIGUITY_WINDOW` of an exec
    transition, so that the owning image is ambiguous."""
    host = state.host
    out = []
    proc = state.processes.get(sock.pid)
    if proc is None:
        out.append(Candidate(host=host, pid=sock.pid, quality=quality))
        return out
    user = state.users.get(proc.uid)
    out.append(Candidate(host=host, pid=proc.pid, binary_path=proc.binary_path,
                         uid=proc.uid, user_name=user.name if user else "",
                         quality=quality))
    for trans in state.exec_history.get(sock.pid, ()):
        if abs(sock.first_seen - trans.time) <= EXEC_AMBIGUITY_WINDOW:
            prior = trans.prior
            puser = state.users.get(prior.uid)
            out.append(Candidate(host=host, pid=prior.pid, binary_path=prior.binary_path,
                                 uid=prior.uid, user_name=puser.name if puser else "",
                                 quality=quality))
    return out


def attribute(flow: FlowTuple, flow_start: float, flow_end: float,
              index: AddressIndex, store: HostStateStore,
              decided_at: float = 0.0,
              tag: object = None) -> AttributionResult:
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
                state = store.view(host)
                if state is None:
                    continue
                for sock in state.sockets.values():
                    quality = match_socket(flow, side, sock)
                    if quality is MatchQuality.NONE:
                        continue
                    cands = _candidate_from_socket(state, sock, quality)
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
        decided_at=decided_at, tag=tag,
    )


@dataclass(slots=True)
class _Parked:
    flow: FlowTuple
    flow_start: float
    flow_end: float
    tag: object = None
    deadline: float = 0.0   # set by `DeadlineMap.add`


class Correlator:
    """Attribution with a bounded retry window for late telemetry.

    A flow whose endpoint resolves to monitored hosts but yields no socket
    candidates is parked.  It is re-attributed on the changes that can
    decide it: a socket added or updated on a host that claims one of its
    addresses, such a host disconnecting, and one of its addresses being
    added to or removed from any host (a reconnect or a grace expiry reaches
    it this way, by removing the host's addresses).
    A socket change retries nothing while no parked flow has the socket's
    protocol: a socket never matches a flow of another protocol.
    At the deadline the flow is finalized as-is.  Hosts are looked up in the
    store's address index, which already holds each change the correlator
    hears.

    The park is a `DeadlineMap`: every entry waits the same `retry_window`
    under the map's one timer, which expires what is due.  Resolved,
    expired, evicted and flushed entries all leave through `_release`, so
    each submitted flow is emitted exactly once; `_park` and `_release` also
    keep the count of parked flows per protocol.
    `counters["retry_attempts"]` counts the re-attributions and
    `counters["retry_resolved"]` those that decided the flow.
    """

    def __init__(self, store: HostStateStore,
                 emit: Callable[[AttributionResult], None],
                 scheduler,
                 retry_window: float,
                 max_parked: int):
        self.store = store
        self.index = store.index
        self.emit = emit
        self.scheduler = scheduler
        self.max_parked = max_parked
        self._parked = DeadlineMap(
            scheduler, retry_window,
            lambda pid: self._release(pid, "retry_expired"))
        self._parked_protos: collections.Counter = collections.Counter()
        self._next_id = 0
        self.counters: collections.Counter = collections.Counter()

    # -- submission -------------------------------------------------------

    def submit(self, flow: FlowTuple, flow_start: float, flow_end: float,
               tag: object = None) -> None:
        result = self._attribute(flow, flow_start, flow_end, tag)
        if self._should_park(result):
            self._park(flow, flow_start, flow_end, tag)
            return
        self._finish(result)

    def _should_park(self, result: AttributionResult) -> bool:
        # Parking only helps when some monitored host could still produce
        # telemetry for a side that currently has nothing.
        if result.flow.proto is Proto.ICMP:
            return False
        for hosts, cands in ((result.originator_hosts, result.originator),
                             (result.responder_hosts, result.responder)):
            if hosts and not cands:
                if any(self.store.is_connected(h) for h in hosts):
                    return True
        return False

    def _park(self, flow: FlowTuple, flow_start: float, flow_end: float,
              tag: object) -> None:
        while len(self._parked) >= self.max_parked:
            self._release(next(iter(self._parked)), "parked_evicted")
        self._parked.add(self._next_id, _Parked(flow, flow_start, flow_end, tag))
        self._parked_protos[flow.proto] += 1
        self._next_id += 1
        self.counters["parked"] += 1

    # -- retry paths -------------------------------------------------------

    def on_state_change(self, change: StateChange) -> None:
        # The store announces only the changes that can decide a parked
        # flow: a socket upsert (a side gains a candidate), a disconnect (a
        # side loses its last connected host) and an address added or
        # removed (a side's host set changes).  A socket upsert retries
        # nothing while no parked flow has the socket's protocol; skipping
        # the whole scan keeps the park order of what one batch decides.
        if not self._parked:
            return
        kind = change.kind
        host, addr = change.host, change.key
        if kind == "socket":
            sock = self.store.view(host).sockets[change.key]
            if not self._parked_protos[sock.proto]:
                return
        for pid in list(self._parked):
            entry = self._parked.get(pid)
            if entry is None:
                continue
            flow = entry.flow
            if kind == "address":
                # after a removal the host no longer claims the address, so
                # match the address itself (canonical, as flow addresses are)
                relevant = addr == flow.orig_addr or addr == flow.resp_addr
            else:
                relevant = (host in self.index.hosts_for(flow.orig_addr)
                            or host in self.index.hosts_for(flow.resp_addr))
            if not relevant:
                continue
            self.counters["retry_attempts"] += 1
            result = self._attribute(flow, entry.flow_start, entry.flow_end, entry.tag)
            if not self._should_park(result):
                self._release(pid, "retry_resolved", result)

    def flush(self) -> None:
        """Finalize everything still parked (shutdown path)."""
        for pid in list(self._parked):
            self._release(pid, "flushed")

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    @property
    def parked_by_proto(self) -> dict[str, int]:
        """Parked flows per protocol value, for each protocol that has any."""
        return {proto.value: n for proto, n in self._parked_protos.items() if n}

    # -- internals ----------------------------------------------------------

    def _release(self, pid: int, outcome: str,
                 result: Optional[AttributionResult] = None) -> None:
        """The one way out of the park: count `outcome`, attribute the flow
        now unless `result` already decided it, and emit."""
        entry = self._parked.pop(pid)
        self._parked_protos[entry.flow.proto] -= 1
        self.counters[outcome] += 1
        if result is None:
            result = self._attribute(entry.flow, entry.flow_start, entry.flow_end,
                                     entry.tag)
        self._finish(result)

    def _attribute(self, flow: FlowTuple, flow_start: float, flow_end: float,
                   tag: object) -> AttributionResult:
        return attribute(flow, flow_start, flow_end, self.index, self.store,
                         decided_at=self.scheduler.now(), tag=tag)

    def _finish(self, result: AttributionResult) -> None:
        self.counters["emitted"] += 1
        self.emit(result)


@dataclass(slots=True)
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
