"""Interest-based publish/subscribe management plane.

Authoritative nodes originate *interests* (a query bound to a group, with a
response topic for results).  Proxy nodes store every interest, maintain the
query schedules of their directly connected agents, replay stored interests
to late joiners, consolidate semantically identical queries, and route
results back via response topics.  One node may hold both roles.

Transport is an in-process message bus, deterministic under a fixed
scheduler.
"""

from __future__ import annotations

import collections
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

log = logging.getLogger(__name__)


class Role(str, Enum):
    AUTHORITATIVE = "authoritative"
    PROXY = "proxy"


DEFAULT_GROUP = "all"
TOPIC_INTERESTS = "control/interests"


def host_group(host: str) -> str:
    return f"host/{host}"


def node_topic(node_id: str) -> str:
    return f"node/{node_id}"


class OverlayError(Exception):
    pass


# --- query language -------------------------------------------------------------

class QueryError(ValueError):
    pass


_OPS = ("==", "!=", "<=", ">=", "=", "<", ">")

_QUERY_RE = re.compile(
    r"""^\s*(?P<table>\w+)
        (?:\s+WHERE\s+(?P<column>\w+)\s*(?P<op>==|!=|<=|>=|=|<|>)\s*
            (?P<literal>'[^']*'|"[^"]*"|\S+))?
        (?:\s+EVERY\s+(?P<every>\S+))?
        \s*$""",
    re.IGNORECASE | re.VERBOSE,
)

_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)(ms|s|m|h)?$")

_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, None: 1.0}


def parse_duration(text: str) -> float:
    m = _DURATION_RE.match(text)
    if not m:
        raise QueryError(f"bad duration: {text!r}")
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


@dataclass(frozen=True)
class ParsedQuery:
    """`table [WHERE column op literal] [EVERY period]`"""

    table: str
    column: str = ""
    op: str = ""
    literal: object = None
    every: Optional[float] = None

    def matches(self, row: dict) -> bool:
        if not self.column:
            return True
        value = row.get(self.column)
        if value is None:
            return False
        lit = self.literal
        if self.op in ("=", "=="):
            return value == lit
        if self.op == "!=":
            return value != lit
        try:
            if self.op == "<":
                return value < lit
            if self.op == "<=":
                return value <= lit
            if self.op == ">":
                return value > lit
            return value >= lit
        except TypeError:
            return False


def _parse_literal(text: str):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_query(text: str) -> ParsedQuery:
    m = _QUERY_RE.match(text)
    if not m:
        raise QueryError(f"unparseable query: {text!r}")
    every = None
    if m.group("every") is not None:
        every = parse_duration(m.group("every"))
        if every <= 0:
            raise QueryError(f"period must be positive: {text!r}")
    column = m.group("column") or ""
    literal = _parse_literal(m.group("literal")) if column else None
    return ParsedQuery(table=m.group("table").lower(), column=column,
                       op=m.group("op") or "", literal=literal, every=every)


# --- interests and schedules ----------------------------------------------------

@dataclass(frozen=True)
class Interest:
    """A query bound to a group: executed on a period, or once, with results
    sent to `response_topic`."""

    interest_id: str
    query: str
    group: str
    one_time: bool = False
    period: float = 0.0
    response_topic: str = ""
    origin: str = ""

    def __post_init__(self):
        if not self.one_time and self.period <= 0:
            raise ValueError(f"scheduled interest needs positive period: {self}")

    @property
    def mode_key(self) -> tuple:
        return (self.query, self.one_time, self.period)

    def to_dict(self) -> dict:
        return {"interest_id": self.interest_id, "query": self.query,
                "group": self.group, "one_time": self.one_time,
                "period": self.period, "response_topic": self.response_topic,
                "origin": self.origin}

    @classmethod
    def from_dict(cls, d: dict) -> "Interest":
        return cls(**d)


@dataclass(frozen=True)
class ScheduleEntry:
    query: str
    one_time: bool
    period: float
    response_topics: frozenset[str] = frozenset()

    @property
    def key(self) -> tuple:
        return (self.query, self.one_time, self.period)


@dataclass(frozen=True)
class Schedule:
    agent: str
    entries: frozenset[ScheduleEntry] = frozenset()


@dataclass(frozen=True)
class ScheduleDelta:
    """Minimal schedule change pushed to an agent: add a new entry, update an
    existing entry's response topics, or remove it."""

    action: str  # "add" | "update" | "remove"
    entry: ScheduleEntry


class InProcessBus:
    """Topic-exact pub/sub fabric with scheduler-mediated delivery.

    Every publish is delivered asynchronously after a fixed latency, so
    message order is a pure function of publish order and the scheduler —
    the property the replayable simulator relies on.
    """

    def __init__(self, scheduler, latency: float = 0.001):
        self.scheduler = scheduler
        self.latency = latency
        self._subs: dict[str, dict[str, Callable]] = {}
        self.published = 0
        self.delivered = 0

    def subscribe(self, topic: str, subscriber_id: str, callback: Callable) -> None:
        self._subs.setdefault(topic, {})[subscriber_id] = callback

    def unsubscribe(self, topic: str, subscriber_id: str) -> None:
        subs = self._subs.get(topic)
        if subs:
            subs.pop(subscriber_id, None)
            if not subs:
                del self._subs[topic]

    def publish(self, topic: str, payload) -> int:
        self.published += 1
        subs = list(self._subs.get(topic, {}).values())
        for cb in subs:
            self.scheduler.call_later(self.latency, cb, topic, payload)
        self.delivered += len(subs)
        return len(subs)


@dataclass
class _AgentConn:
    agent: str
    groups: set[str]
    deliver: Callable[[ScheduleDelta], None]
    # schedule entry key -> {interest_id: response_topic}
    entries: dict[tuple, dict[str, str]] = field(default_factory=dict)


def _entry_from(key: tuple, contrib: dict[str, str]) -> ScheduleEntry:
    query, one_time, period = key
    return ScheduleEntry(query=query, one_time=one_time, period=period,
                         response_topics=frozenset(contrib.values()))


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
        self._published: dict[str, Interest] = {}
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
        if not interest.origin:
            interest = replace(interest, origin=self.node_id)
        self._published[interest.interest_id] = interest
        self.bus.publish(TOPIC_INTERESTS, ("publish", interest))
        return interest

    def retract_interest(self, interest_id: str) -> None:
        self._require(Role.AUTHORITATIVE)
        self._published.pop(interest_id, None)
        self.bus.publish(TOPIC_INTERESTS, ("retract", interest_id))

    def add_result_handler(self, fn: Callable) -> None:
        self._result_handlers.append(fn)

    def subscribe_results(self, topic: str) -> None:
        """Listen on an additional response topic (shared-topic deployments)."""
        self._require(Role.AUTHORITATIVE)
        self.bus.subscribe(topic, self.node_id, self._on_result)

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
        if old is not None:
            self._remove_from_agents(old)
        self._interests[interest.interest_id] = interest
        for conn in self._agents.values():
            if interest.group in conn.groups:
                self._add_to_agent(conn, interest)

    def _drop_interest(self, interest_id: str) -> None:
        interest = self._interests.pop(interest_id, None)
        if interest is None:
            log.warning("retract of unknown interest %s ignored", interest_id)
            self.counters["retract_unknown"] += 1
            return
        self._remove_from_agents(interest)

    def _add_to_agent(self, conn: _AgentConn, interest: Interest) -> None:
        key = interest.mode_key
        contrib = conn.entries.get(key)
        if contrib is None:
            conn.entries[key] = {interest.interest_id: interest.response_topic}
            conn.deliver(ScheduleDelta("add", _entry_from(key, conn.entries[key])))
            return
        old_topics = set(contrib.values())
        contrib[interest.interest_id] = interest.response_topic
        if set(contrib.values()) != old_topics:
            conn.deliver(ScheduleDelta("update", _entry_from(key, contrib)))

    def _remove_from_agents(self, interest: Interest) -> None:
        key = interest.mode_key
        for conn in self._agents.values():
            contrib = conn.entries.get(key)
            if contrib is None or interest.interest_id not in contrib:
                continue
            old_topics = set(contrib.values())
            del contrib[interest.interest_id]
            if not contrib:
                del conn.entries[key]
                conn.deliver(ScheduleDelta("remove", _entry_from(key, {})))
            elif set(contrib.values()) != old_topics:
                conn.deliver(ScheduleDelta("update", _entry_from(key, contrib)))

    # ---- proxy: agent management ------------------------------------------------

    def connect_agent(self, agent: str, groups=(),
                      deliver: Callable[[ScheduleDelta], None] = lambda d: None) -> Schedule:
        self._require(Role.PROXY)
        if agent in self._agents:
            self.counters["agent_rejoin"] += 1
            self.disconnect_agent(agent)
        full = set(groups) | {DEFAULT_GROUP, host_group(agent)}
        conn = _AgentConn(agent=agent, groups=full, deliver=deliver)
        self._agents[agent] = conn
        conn.entries = self._entry_map(full)
        # full replay: late joiners receive every stored applicable interest
        for key in sorted(conn.entries):
            conn.deliver(ScheduleDelta("add", _entry_from(key, conn.entries[key])))
        return self.schedule_for(agent)

    def disconnect_agent(self, agent: str) -> None:
        self._require(Role.PROXY)
        self._agents.pop(agent, None)

    def update_groups(self, agent: str, groups) -> list[ScheduleDelta]:
        self._require(Role.PROXY)
        conn = self._agents.get(agent)
        if conn is None:
            raise OverlayError(f"unknown agent {agent}")
        full = set(groups) | {DEFAULT_GROUP, host_group(agent)}
        desired = self._entry_map(full)
        deltas: list[ScheduleDelta] = []
        for key in sorted(set(conn.entries) | set(desired)):
            if key not in desired:
                deltas.append(ScheduleDelta("remove", _entry_from(key, {})))
            elif key not in conn.entries:
                deltas.append(ScheduleDelta("add", _entry_from(key, desired[key])))
            elif (set(desired[key].values()) != set(conn.entries[key].values())):
                deltas.append(ScheduleDelta("update", _entry_from(key, desired[key])))
        conn.groups = full
        conn.entries = desired
        for d in deltas:
            conn.deliver(d)
        return deltas

    def _entry_map(self, groups: set[str]) -> dict[tuple, dict[str, str]]:
        out: dict[tuple, dict[str, str]] = {}
        for interest in self._interests.values():
            if interest.group in groups:
                out.setdefault(interest.mode_key, {})[interest.interest_id] = \
                    interest.response_topic
        return out

    def schedule_for(self, agent: str) -> Schedule:
        conn = self._agents.get(agent)
        if conn is None:
            return Schedule(agent=agent)
        return Schedule(agent=agent, entries=frozenset(
            _entry_from(key, contrib) for key, contrib in conn.entries.items()))

    def connected_agents(self) -> list[str]:
        return sorted(self._agents)

    def agent_groups(self, agent: str) -> frozenset[str]:
        conn = self._agents.get(agent)
        return frozenset(conn.groups) if conn else frozenset()

    def stored_interests(self) -> dict[str, Interest]:
        return dict(self._interests)

    # ---- proxy: result routing ----------------------------------------------------

    def route_result(self, ev) -> int:
        self._require(Role.PROXY)
        topic = getattr(ev, "response_topic", "")
        if not topic:
            self.counters["dead_letter"] += 1
            return 0
        n = self.bus.publish(topic, ev)
        if n == 0:
            self.counters["dead_letter"] += 1
        else:
            self.counters["routed"] += 1
        return n

