"""Overlay management-plane tests.

Schedule maintenance is checked against an oracle that recomputes, from the
raw interest list alone, what every agent's consolidated schedule must be.
"""

from __future__ import annotations

import random

import pytest

from flowlink.overlay import (
    DEFAULT_GROUP,
    InProcessBus,
    Interest,
    OverlayError,
    OverlayNode,
    ParsedQuery,
    QueryError,
    Role,
    Schedule,
    ScheduleDelta,
    ScheduleEntry,
    host_group,
    parse_duration,
    parse_query,
)
from flowlink.runtime import EventLoop


# --- query language ---------------------------------------------------------

def test_parse_table_only():
    q = parse_query("processes")
    assert q == ParsedQuery(table="processes")


def test_parse_where_string_literal():
    q = parse_query("file_hash WHERE path = '/usr/bin/curl'")
    assert (q.table, q.column, q.op, q.literal) == ("file_hash", "path", "=", "/usr/bin/curl")


def test_parse_where_numeric_and_every():
    q = parse_query("process_descendants WHERE pid = 4242 EVERY 30s")
    assert q.literal == 4242 and q.every == 30.0


def test_parse_every_units():
    assert parse_query("users EVERY 2m").every == 120.0
    assert parse_query("users EVERY 45").every == 45.0
    assert parse_duration("500ms") == 0.5
    assert parse_duration("1h") == 3600.0


def test_parse_keywords_case_insensitive():
    q = parse_query("USERS where uid >= 1000 every 10s")
    assert (q.table, q.op, q.literal, q.every) == ("users", ">=", 1000, 10.0)


@pytest.mark.parametrize("bad", [
    "", "WHERE x = 1", "t WHERE col", "t WHERE col ~ 3", "t EVERY", "t EVERY -5s",
    "t EVERY abc", "t WHERE a = 1 b = 2",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(QueryError):
        parse_query(bad)


def test_predicate_evaluation():
    q = parse_query("processes WHERE uid >= 1000")
    assert q.matches({"uid": 1000}) and q.matches({"uid": 5000})
    assert not q.matches({"uid": 0})
    assert not q.matches({"pid": 7})  # missing column never matches
    assert parse_query("processes").matches({"anything": 1})
    assert parse_query("p WHERE name != 'sh'").matches({"name": "bash"})
    assert not parse_query("p WHERE uid < 10").matches({"uid": "oops"})


# --- bus ----------------------------------------------------------------------

def test_bus_delivers_in_publish_order():
    loop = EventLoop()
    bus = InProcessBus(loop, latency=0.001)
    got = []
    bus.subscribe("t", "n1", lambda topic, p: got.append(p))
    bus.publish("t", 1)
    bus.publish("t", 2)
    bus.publish("other", 99)
    loop.run_until_idle()
    assert got == [1, 2]


def test_bus_counts_and_unsubscribe():
    loop = EventLoop()
    bus = InProcessBus(loop, latency=0.0)
    bus.subscribe("t", "a", lambda *x: None)
    bus.subscribe("t", "b", lambda *x: None)
    assert bus.publish("t", "x") == 2
    bus.unsubscribe("t", "a")
    assert bus.publish("t", "x") == 1
    assert bus.publish("nobody", "x") == 0


# --- overlay node fixtures ------------------------------------------------------

class AgentStub:
    """Applies schedule deltas the way a real agent would."""

    def __init__(self, name):
        self.name = name
        self.entries: dict[tuple, ScheduleEntry] = {}
        self.deltas: list[ScheduleDelta] = []

    def deliver(self, delta: ScheduleDelta) -> None:
        self.deltas.append(delta)
        if delta.action == "remove":
            self.entries.pop(delta.entry.key, None)
        else:
            self.entries[delta.entry.key] = delta.entry

    def schedule(self) -> frozenset[ScheduleEntry]:
        return frozenset(self.entries.values())


def mesh(n_auth=1, n_proxy=1):
    loop = EventLoop()
    bus = InProcessBus(loop, latency=0.001)
    auths = [OverlayNode(f"auth{i}", bus, roles=(Role.AUTHORITATIVE,))
             for i in range(n_auth)]
    proxies = [OverlayNode(f"proxy{i}", bus, roles=(Role.PROXY,))
               for i in range(n_proxy)]
    return loop, bus, auths, proxies


def interest(iid, query="processes", group=DEFAULT_GROUP, one_time=False,
             period=30.0, topic="", origin=""):
    return Interest(interest_id=iid, query=query, group=group, one_time=one_time,
                    period=0.0 if one_time else period,
                    response_topic=topic, origin=origin)


def oracle_schedule(interests, groups) -> frozenset[ScheduleEntry]:
    merged: dict[tuple, set[str]] = {}
    for i in interests.values():
        if i.group in groups:
            merged.setdefault(i.mode_key, set()).add(i.response_topic)
    return frozenset(
        ScheduleEntry(query=q, one_time=ot, period=p, response_topics=frozenset(t))
        for (q, ot, p), t in merged.items())


# --- publish / join / retract examples --------------------------------------------

def test_group_filter_schedules_only_members():
    loop, bus, (auth,), (proxy,) = mesh()
    stubs = {f"h{i}": AgentStub(f"h{i}") for i in range(5)}
    for name, stub in stubs.items():
        groups = {"servers"} if name in ("h0", "h1") else set()
        proxy.connect_agent(name, groups, stub.deliver)
    auth.publish_interest(interest("i1", group="servers"))
    loop.run_until_idle()
    scheduled = {n for n, s in stubs.items() if s.entries}
    assert scheduled == {"h0", "h1"}


def test_republish_is_idempotent():
    loop, bus, (auth,), (proxy,) = mesh()
    stub = AgentStub("h1")
    proxy.connect_agent("h1", set(), stub.deliver)
    i = interest("i1")
    auth.publish_interest(i)
    loop.run_until_idle()
    before = list(stub.deltas)
    auth.publish_interest(i)
    loop.run_until_idle()
    assert stub.deltas == before
    assert proxy.counters["republish_noop"] == 1


def test_shared_response_topic_consolidates_and_fans_out():
    loop, bus, (a1, a2), (proxy,) = mesh(n_auth=2)
    a1.subscribe_results("results/shared")
    a2.subscribe_results("results/shared")
    stub = AgentStub("h1")
    proxy.connect_agent("h1", set(), stub.deliver)
    a1.publish_interest(interest("a1/q", topic="results/shared"))
    a2.publish_interest(interest("a2/q", topic="results/shared"))
    loop.run_until_idle()
    # one consolidated entry with the single shared topic
    assert len(stub.entries) == 1
    (entry,) = stub.entries.values()
    assert entry.response_topics == {"results/shared"}

    class Result:
        response_topic = "results/shared"

    proxy.route_result(Result())
    loop.run_until_idle()
    assert a1.counters["results_received"] == 1
    assert a2.counters["results_received"] == 1


def test_late_joiner_receives_stored_interests():
    loop, bus, (auth,), (proxy,) = mesh()
    auth.publish_interest(interest("early", group=DEFAULT_GROUP))
    auth.publish_interest(interest("one", group=DEFAULT_GROUP, one_time=True))
    loop.run_until_idle()
    stub = AgentStub("late")
    schedule = proxy.connect_agent("late", set(), stub.deliver)
    assert stub.schedule() == schedule.entries
    assert {e.query for e in schedule.entries} == {"processes"}
    assert len(schedule.entries) == 2  # scheduled and one_time are distinct modes


def test_join_with_no_matching_groups_gets_empty_schedule():
    loop, bus, (auth,), (proxy,) = mesh()
    auth.publish_interest(interest("i1", group="servers"))
    loop.run_until_idle()
    schedule = proxy.connect_agent("h1", set(), AgentStub("h1").deliver)
    assert schedule.entries == frozenset()


def test_rejoin_schedule_identical_given_unchanged_interests():
    loop, bus, (auth,), (proxy,) = mesh()
    auth.publish_interest(interest("i1"))
    auth.publish_interest(interest("i2", query="users", period=60.0))
    loop.run_until_idle()
    first = proxy.connect_agent("h1", {"g"}, AgentStub("h1").deliver)
    proxy.disconnect_agent("h1")
    again = proxy.connect_agent("h1", {"g"}, AgentStub("h1").deliver)
    assert first == again


def test_retract_only_interest_sends_one_removal():
    loop, bus, (auth,), (proxy,) = mesh()
    stub = AgentStub("h1")
    proxy.connect_agent("h1", set(), stub.deliver)
    auth.publish_interest(interest("i1"))
    loop.run_until_idle()
    auth.retract_interest("i1")
    loop.run_until_idle()
    removals = [d for d in stub.deltas if d.action == "remove"]
    assert len(removals) == 1
    assert stub.schedule() == frozenset()


def test_move_agent_into_group_sends_one_addition():
    loop, bus, (auth,), (proxy,) = mesh()
    stub = AgentStub("h1")
    proxy.connect_agent("h1", set(), stub.deliver)
    auth.publish_interest(interest("i1", group="servers"))
    loop.run_until_idle()
    assert stub.schedule() == frozenset()
    deltas = proxy.update_groups("h1", {"servers"})
    assert [d.action for d in deltas] == ["add"]
    assert len(stub.entries) == 1


def test_retract_one_of_two_consolidated_interests_keeps_entry():
    loop, bus, (auth,), (proxy,) = mesh()
    stub = AgentStub("h1")
    proxy.connect_agent("h1", set(), stub.deliver)
    auth.publish_interest(interest("i1", topic="results/a"))
    auth.publish_interest(interest("i2", topic="results/b"))
    loop.run_until_idle()
    (entry,) = stub.entries.values()
    assert entry.response_topics == {"results/a", "results/b"}
    auth.retract_interest("i1")
    loop.run_until_idle()
    (entry,) = stub.entries.values()
    assert entry.response_topics == {"results/b"}


def test_retract_unknown_interest_is_warned_noop():
    loop, bus, (auth,), (proxy,) = mesh()
    auth.retract_interest("never-published")
    loop.run_until_idle()
    assert proxy.counters["retract_unknown"] == 1


def test_route_result_delivery_and_dead_letter():
    loop, bus, (auth,), (proxy,) = mesh()
    got = []
    auth.add_result_handler(lambda topic, ev: got.append(ev))

    class Result:
        def __init__(self, topic):
            self.response_topic = topic

    assert proxy.route_result(Result(auth.topic)) == 1
    loop.run_until_idle()
    assert len(got) == 1
    assert proxy.route_result(Result("nobody/listens")) == 0
    assert proxy.route_result(Result("")) == 0
    assert proxy.counters["dead_letter"] == 2


def test_role_separation_enforced():
    loop, bus, (auth,), (proxy,) = mesh()
    with pytest.raises(OverlayError):
        proxy.publish_interest(interest("i1"))
    with pytest.raises(OverlayError):
        auth.connect_agent("h1", set(), lambda d: None)
    with pytest.raises(OverlayError):
        proxy.update_groups("ghost", set())


def test_scheduled_interest_requires_positive_period():
    with pytest.raises(ValueError):
        Interest(interest_id="x", query="q", group="g", one_time=False, period=0.0)


def test_default_response_topic_is_origin_topic():
    loop, bus, (auth,), (proxy,) = mesh()
    published = auth.publish_interest(interest("i1"))
    assert published.response_topic == auth.topic
    assert published.origin == "auth0"


def test_host_group_targets_single_agent():
    loop, bus, (auth,), (proxy,) = mesh()
    s1, s2 = AgentStub("h1"), AgentStub("h2")
    proxy.connect_agent("h1", set(), s1.deliver)
    proxy.connect_agent("h2", set(), s2.deliver)
    auth.publish_interest(interest("i1", group=host_group("h1"), one_time=True))
    loop.run_until_idle()
    assert len(s1.entries) == 1 and len(s2.entries) == 0


# --- scripted random scenarios vs oracle ---------------------------------------------

QUERY_POOL = ["processes", "users", "listening_ports",
              "process_open_sockets", "interfaces EVERY 30s"]
GROUP_POOL = [DEFAULT_GROUP, "servers", "workstations", "dmz"]
TOPIC_POOL = ["", "results/shared", "results/alt"]


def run_random_scenario(seed: int):
    """Random publish/retract/join/leave/regroup script, then quiescence.

    Returns everything the correctness assertions need.
    """
    rng = random.Random(seed)
    loop, bus, auths, proxies = mesh(n_auth=2, n_proxy=2)
    stubs: dict[str, AgentStub] = {}
    homes: dict[str, OverlayNode] = {}
    published: list[str] = []
    next_id = 0

    for step in range(rng.randint(10, 40)):
        op = rng.random()
        if op < 0.35:
            iid = f"i{next_id}"
            next_id += 1
            one_time = rng.random() < 0.3
            auth = rng.choice(auths)
            auth.publish_interest(interest(
                iid, query=rng.choice(QUERY_POOL), group=rng.choice(GROUP_POOL),
                one_time=one_time, period=rng.choice([15.0, 30.0]),
                topic=rng.choice(TOPIC_POOL)))
            published.append(iid)
        elif op < 0.45 and published:
            rng.choice(auths).retract_interest(rng.choice(published))
        elif op < 0.70:
            name = f"h{rng.randint(0, 7)}"
            if name not in stubs:
                stub = AgentStub(name)
                proxy = rng.choice(proxies)
                stubs[name] = stub
                homes[name] = proxy
                proxy.connect_agent(
                    name, set(rng.sample(GROUP_POOL[1:], rng.randint(0, 2))),
                    stub.deliver)
        elif op < 0.80 and stubs:
            name = rng.choice(sorted(stubs))
            homes[name].disconnect_agent(name)
            del stubs[name], homes[name]
        elif stubs:
            name = rng.choice(sorted(stubs))
            homes[name].update_groups(
                name, set(rng.sample(GROUP_POOL[1:], rng.randint(0, 2))))
        if rng.random() < 0.5:
            loop.run_until(loop.now() + rng.uniform(0.0, 0.01))

    loop.run_until_idle()
    return proxies, stubs, homes


@pytest.mark.parametrize("seed", range(20))
def test_post_quiescence_schedules_match_oracle(seed):
    proxies, stubs, homes = run_random_scenario(seed)
    for proxy in proxies:
        # all proxies converge on the same interest store
        assert proxy.stored_interests() == proxies[0].stored_interests()
    for name, stub in stubs.items():
        proxy = homes[name]
        expected = oracle_schedule(proxy.stored_interests(),
                                   proxy.agent_groups(name))
        assert proxy.schedule_for(name).entries == expected, name
        # the delta-built agent copy agrees with the proxy's authoritative view
        assert stub.schedule() == expected, name
        # consolidation: no duplicate (query, mode) entries
        keys = [e.key for e in stub.schedule()]
        assert len(keys) == len(set(keys)), name

