"""Interest-based publish/subscribe management plane.

Authoritative nodes originate *interests* (a query bound to a group, with a
response topic for results).  Proxy nodes store every interest, keep the
consolidated query schedule of each directly connected agent, and route
results back via response topics.  A publish, a retract, a join and a
regroup all change a schedule the same way: the proxy recomputes the
agent's entries from the stored interests of its groups and delivers the
difference, so a late joiner gets every stored interest that applies and
identical queries share one entry.  One node may hold both roles.

A query is `table [WHERE column == 'literal']`, with `''` for a `'` in the
literal.  A scheduled interest carries its period in `Interest.period`,
never in the query text.

Transport is an in-process message bus, deterministic under a fixed
scheduler.
"""

from __future__ import annotations

import collections
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

log = logging.getLogger(__name__)


class Role(str, Enum):
    AUTHORITATIVE = "authoritative"
    PROXY = "proxy"


DEFAULT_GROUP = "all"
TOPIC_INTERESTS = "control/interests"
# Delay from publish to delivery on the in-process bus, in seconds.
BUS_LATENCY = 0.001


def host_group(host: str) -> str:
    return f"host/{host}"


def node_topic(node_id: str) -> str:
    return f"node/{node_id}"


class OverlayError(Exception):
    pass


# --- query language -------------------------------------------------------------

class QueryError(ValueError):
    pass


_QUERY_RE = re.compile(
    r"""\s*(?P<table>\w+)
        (?:\s+WHERE\s+(?P<column>\w+)\s*==\s*'(?P<literal>(?:[^']|'')*)')?
        \s*""",
    re.IGNORECASE | re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class ParsedQuery:
    """`table [WHERE column == 'literal']`; the period of a scheduled query
    is its interest's, not part of the text."""

    table: str
    column: str = ""
    literal: str = ""

    def matches(self, record) -> bool:
        return not self.column or getattr(record, self.column, None) == self.literal


def quote_literal(text: str) -> str:
    """`text` as a query literal: in `'`, with each `'` inside doubled."""
    return "'" + text.replace("'", "''") + "'"


def parse_query(text: str) -> ParsedQuery:
    """Parse `table [WHERE column == '<literal>']`, keywords in any case; a
    `'` inside the literal is written `''`, as in SQL."""
    m = _QUERY_RE.fullmatch(text)
    if not m:
        raise QueryError(f"unparseable query: {text!r}")
    return ParsedQuery(table=m.group("table").lower(),
                       column=m.group("column") or "",
                       literal=(m.group("literal") or "").replace("''", "'"))


# --- interests and schedules ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Interest:
    """A query bound to a group: executed on a period, or once, with results
    sent to `response_topic`."""

    interest_id: str
    query: str
    group: str
    one_time: bool = False
    period: float = 0.0
    response_topic: str = ""

    def __post_init__(self):
        if not self.one_time and self.period <= 0:
            raise ValueError(f"scheduled interest needs positive period: {self}")

    @property
    def mode_key(self) -> tuple:
        return (self.query, self.one_time, self.period)


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    query: str
    one_time: bool
    period: float
    response_topics: frozenset[str] = frozenset()

    @property
    def key(self) -> tuple:
        return (self.query, self.one_time, self.period)


@dataclass(frozen=True, slots=True)
class Schedule:
    agent: str
    entries: frozenset[ScheduleEntry] = frozenset()


@dataclass(frozen=True, slots=True)
class ScheduleDelta:
    """Minimal schedule change pushed to an agent: add a new entry, update an
    existing entry's response topics, or remove it."""

    action: str  # "add" | "update" | "remove"
    entry: ScheduleEntry


class InProcessBus:
    """Topic-exact pub/sub fabric with scheduler-mediated delivery.

    Every publish is delivered asynchronously after `BUS_LATENCY`, so
    message order is a pure function of publish order and the scheduler —
    the property the replayable simulator relies on.
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self._subs: dict[str, dict[str, Callable]] = {}

    def subscribe(self, topic: str, subscriber_id: str, callback: Callable) -> None:
        self._subs.setdefault(topic, {})[subscriber_id] = callback

    def publish(self, topic: str, payload) -> int:
        subs = list(self._subs.get(topic, {}).values())
        for cb in subs:
            self.scheduler.call_later(BUS_LATENCY, cb, topic, payload)
        return len(subs)


@dataclass(slots=True)
class _AgentConn:
    agent: str
    groups: set[str]
    deliver: Callable[[ScheduleDelta], None]
    entries: dict[tuple, ScheduleEntry] = field(default_factory=dict)


class OverlayNode:
    """One overlay participant, holding the authoritative role, the proxy
    role, or both.

    Authoritative: `publish_interest` / `retract_interest`, results arrive
    on this node's own topic (and any extra topics subscribed).
    Proxy: stores all interests, manages agent connections and their
    consolidated schedules, and routes agent results to response topics.
    """

    def __init__(self, node_id: str, bus: InProcessBus, roles=(Role.AUTHORITATIVE, Role.PROXY)):
        self.node_id = node_id
        self.bus = bus
        self.roles = frozenset(Role(r) for r in roles)
        self.topic = node_topic(node_id)
        self.counters: collections.Counter = collections.Counter()
        self._result_handlers: list[Callable] = []
        self._interests: dict[str, Interest] = {}
        self._agents: dict[str, _AgentConn] = {}
        if Role.PROXY in self.roles:
            self.bus.subscribe(TOPIC_INTERESTS, self.node_id, self._on_control)
        if Role.AUTHORITATIVE in self.roles:
            self.bus.subscribe(self.topic, self.node_id, self._on_result)

    def _require(self, role: Role) -> None:
        if role not in self.roles:
            raise OverlayError(f"node {self.node_id} lacks role {role.value}")

    # ---- authoritative ------------------------------------------------------

    def publish_interest(self, interest: Interest) -> Interest:
        self._require(Role.AUTHORITATIVE)
        if not interest.response_topic:
            interest = replace(interest, response_topic=self.topic)
        self.bus.publish(TOPIC_INTERESTS, ("publish", interest))
        return interest

    def retract_interest(self, interest_id: str) -> None:
        self._require(Role.AUTHORITATIVE)
        self.bus.publish(TOPIC_INTERESTS, ("retract", interest_id))

    def add_result_handler(self, fn: Callable) -> None:
        self._result_handlers.append(fn)

    def _on_result(self, topic: str, payload) -> None:
        self.counters["results_received"] += 1
        for fn in self._result_handlers:
            fn(topic, payload)

    # ---- proxy: interest storage ---------------------------------------------

    def _on_control(self, topic: str, msg) -> None:
        kind, payload = msg
        if kind == "publish":
            self._store_interest(payload)
        else:
            self._drop_interest(payload)

    def _store_interest(self, interest: Interest) -> None:
        old = self._interests.get(interest.interest_id)
        if old == interest:
            self.counters["republish_noop"] += 1
            return
        self._interests[interest.interest_id] = interest
        self._sync_groups({interest.group} if old is None
                          else {interest.group, old.group})

    def _drop_interest(self, interest_id: str) -> None:
        interest = self._interests.pop(interest_id, None)
        if interest is None:
            log.warning("retract of unknown interest %s ignored", interest_id)
            self.counters["retract_unknown"] += 1
            return
        self._sync_groups({interest.group})

    def _sync_groups(self, groups: set[str]) -> None:
        for conn in self._agents.values():
            if not conn.groups.isdisjoint(groups):
                self._sync(conn)

    def _sync(self, conn: _AgentConn) -> list[ScheduleDelta]:
        """Bring `conn`'s schedule to what the stored interests of its groups
        make it, and deliver the difference in key order: an add for a new
        entry, an update for an entry whose response topics changed, a
        remove for an entry no interest wants any more."""
        desired = self._entries_for(conn.groups)
        deltas: list[ScheduleDelta] = []
        for key in sorted(conn.entries.keys() | desired.keys()):
            entry, held = desired.get(key), conn.entries.get(key)
            if entry is None:
                deltas.append(ScheduleDelta("remove", ScheduleEntry(*key)))
            elif held is None:
                deltas.append(ScheduleDelta("add", entry))
            elif entry != held:
                deltas.append(ScheduleDelta("update", entry))
        conn.entries = desired
        for d in deltas:
            conn.deliver(d)
        return deltas

    # ---- proxy: agent management ------------------------------------------------

    def connect_agent(self, agent: str, groups=(),
                      deliver: Callable[[ScheduleDelta], None] = lambda d: None) -> Schedule:
        """Register `agent` and deliver, as adds, every stored interest of
        its groups: a late joiner gets the same schedule as an early one."""
        self._require(Role.PROXY)
        if agent in self._agents:
            self.counters["agent_rejoin"] += 1
            self.disconnect_agent(agent)
        full = set(groups) | {DEFAULT_GROUP, host_group(agent)}
        conn = _AgentConn(agent=agent, groups=full, deliver=deliver)
        self._agents[agent] = conn
        self._sync(conn)
        return self.schedule_for(agent)

    def disconnect_agent(self, agent: str) -> None:
        self._require(Role.PROXY)
        self._agents.pop(agent, None)

    def update_groups(self, agent: str, groups) -> list[ScheduleDelta]:
        self._require(Role.PROXY)
        conn = self._agents.get(agent)
        if conn is None:
            raise OverlayError(f"unknown agent {agent}")
        conn.groups = set(groups) | {DEFAULT_GROUP, host_group(agent)}
        return self._sync(conn)

    def _entries_for(self, groups: set[str]) -> dict[tuple, ScheduleEntry]:
        """The consolidated schedule of an agent in `groups`: one entry per
        (query, mode), answered on the topics of every interest it merges."""
        topics: dict[tuple, set[str]] = {}
        for interest in self._interests.values():
            if interest.group in groups:
                topics.setdefault(interest.mode_key, set()).add(interest.response_topic)
        return {key: ScheduleEntry(*key, response_topics=frozenset(t))
                for key, t in topics.items()}

    def schedule_for(self, agent: str) -> Schedule:
        conn = self._agents.get(agent)
        if conn is None:
            return Schedule(agent=agent)
        return Schedule(agent=agent, entries=frozenset(conn.entries.values()))

    def agent_groups(self, agent: str) -> frozenset[str]:
        conn = self._agents.get(agent)
        return frozenset(conn.groups) if conn else frozenset()

    def stored_interests(self) -> dict[str, Interest]:
        return dict(self._interests)

    # ---- proxy: result routing ----------------------------------------------------

    def route_result(self, topic: str, record) -> int:
        """Publish an agent's `record` on its response `topic`; an empty or
        unsubscribed topic is a dead letter."""
        self._require(Role.PROXY)
        if not topic:
            self.counters["dead_letter"] += 1
            return 0
        n = self.bus.publish(topic, record)
        if n == 0:
            self.counters["dead_letter"] += 1
        else:
            self.counters["routed"] += 1
        return n

