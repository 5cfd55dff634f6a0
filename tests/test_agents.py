"""Simulated fleet: deterministic generation, schedule execution, and the
agent-side query surface."""

import collections
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlink.agents import (
    DNS_SERVER,
    PID_BROWSER,
    PID_SSHD,
    PID_UDPD,
    ActionKind,
    FleetSimulator,
    ScenarioHook,
    ScenarioKind,
    SimAgent,
    WorkloadSpec,
    build_workload,
    file_digest,
    host_addr,
    host_name,
)
from flowlink.model import (
    Action,
    Direction,
    FileHashRecord,
    HostEvent,
    ProcessInfo,
    Proto,
    QueryErrorResult,
    SnapshotBatch,
    SocketInfo,
    Source,
    TableKind,
)
from flowlink.overlay import InProcessBus, Interest, OverlayNode
from flowlink.runtime import EventLoop


def spec(**kw) -> WorkloadSpec:
    base = dict(hosts=1, duration=20.0, event_rate=2.0, seed=11)
    base.update(kw)
    return WorkloadSpec(**base)


def audit_events(w) -> list[HostEvent]:
    """The events a workload's actions put on the audit stream."""
    return [e for e in (a.audit_event() for a in w.actions) if e is not None]


def wire():
    loop = EventLoop()
    bus = InProcessBus(loop)
    node = OverlayNode("engine", bus)
    inbox: list[tuple[str, object]] = []
    node.add_result_handler(lambda topic, payload: inbox.append((topic, payload)))
    return loop, node, inbox


def make_agent(workload, loop, node, name=None):
    name = name or workload.hosts[0].name
    init = next(h for h in workload.hosts if h.name == name)
    return SimAgent(init, loop, emit=node.route_result)


def interest(iid, query, group="all", one_time=False, period=0.0, topic=""):
    return Interest(interest_id=iid, query=query, group=group,
                    one_time=one_time, period=period, response_topic=topic)


def collect(node, inbox, topic):
    """Put the results sent to a shared response topic into `inbox` too."""
    node.bus.subscribe(topic, node.node_id,
                       lambda t, payload: inbox.append((t, payload)))


def batches(inbox, table=None, topic=None):
    out = []
    for t, payload in inbox:
        if not isinstance(payload, SnapshotBatch):
            continue
        if table is not None and payload.table is not table:
            continue
        if topic is not None and t != topic:
            continue
        out.append(payload)
    return out


# --- generation ------------------------------------------------------------------


def test_same_spec_same_bytes():
    a = build_workload(spec(hosts=3, seed=42))
    b = build_workload(spec(hosts=3, seed=42))
    assert a == b


def test_different_seed_different_bytes():
    a = build_workload(spec(hosts=2, seed=1))
    b = build_workload(spec(hosts=2, seed=2))
    assert a != b


def test_event_count_is_rate_times_duration_exactly():
    w = build_workload(spec(hosts=1, duration=60.0, event_rate=4.0))
    assert len(audit_events(w)) == 240


def test_load_shape_uniform_per_second():
    w = build_workload(spec(hosts=1, duration=60.0, event_rate=4.0))
    per_second = collections.Counter(int(e.event_time) for e in audit_events(w))
    assert set(per_second) == set(range(60))
    for count in per_second.values():
        assert abs(count - 4.0) <= 0.05 * 4.0


def test_actions_time_ordered_and_flows_end_ordered():
    w = build_workload(spec(hosts=3, duration=30.0, seed=9))
    times = [a.time for a in w.actions]
    assert times == sorted(times)
    ends = [f.end for f in w.flows]
    assert ends == sorted(ends)


def test_file_digest_is_plain_sha256():
    assert file_digest("/bin/x") == hashlib.sha256(b"content:/bin/x").hexdigest()


def test_flow_truth_matches_a_generated_socket():
    w = build_workload(spec(hosts=2, duration=40.0, event_rate=4.0,
                            flow_coupling=1.0, seed=5))
    opens = {}
    closes = {}
    for a in w.actions:
        if a.kind is ActionKind.SOCK_OPEN:
            opens[(a.host, a.sock.local_addr, a.sock.local_port)] = a
        elif a.kind is ActionKind.SOCK_CLOSE:
            closes[(a.host, a.sock.local_addr, a.sock.local_port)] = a
    for flow in w.flows:
        truth = w.truth.flows[flow.uid]
        action = opens[(truth.host, flow.orig_h, flow.orig_p)]
        assert action.sock.pid == truth.pid
        assert action.sock.remote_addr == flow.resp_h
        assert action.sock.remote_port == flow.resp_p
        assert action.time <= flow.ts
        close = closes.get((truth.host, flow.orig_h, flow.orig_p))
        if close is not None:
            assert flow.end <= close.time


def test_udp_spanning_allocation_is_exact():
    w = build_workload(spec(hosts=2, duration=90.0, event_rate=0.0,
                            probe_interval=30.0, udp_sockets_per_host=8,
                            udp_span_probability=0.5))
    grid_points = [30.0, 60.0, 90.0]
    lifetimes = {}
    for a in w.actions:
        if a.sock is not None and a.sock.proto is Proto.UDP:
            key = (a.host, a.sock.key)
            if a.kind is ActionKind.SOCK_OPEN:
                lifetimes.setdefault(key, [a.time, None])[0] = a.time
                assert not a.audit, "probe-visibility sockets must stay off audit"
            else:
                lifetimes[key][1] = a.time
    per_host = collections.Counter()
    for uid, truth in w.truth.flows.items():
        assert truth.spans_probe is not None
        per_host[(truth.host, truth.spans_probe)] += 1
    for host in (h.name for h in w.hosts):
        assert per_host[(host, True)] == 4
        assert per_host[(host, False)] == 4
    for (host, (pid, fd)), (t0, t1) in lifetimes.items():
        covered = any(t0 + 1.0 <= g <= t1 - 1.0 for g in grid_points)
        clear = all(g <= t0 - 1.0 or g >= t1 + 1.0 for g in grid_points)
        assert covered or clear, f"socket {host}/{pid}/{fd} too close to a probe"


def test_udp_flows_target_dns_and_end_before_close():
    w = build_workload(spec(hosts=1, duration=90.0, event_rate=0.0,
                            probe_interval=30.0, udp_sockets_per_host=6))
    assert len(w.flows) == 6
    for flow in w.flows:
        assert flow.proto is Proto.UDP
        assert (flow.resp_h, flow.resp_p) == (DNS_SERVER, 53)
        assert w.truth.flows[flow.uid].pid == PID_UDPD


def test_full_visibility_sockets_exist_from_baseline():
    w = build_workload(spec(hosts=2, duration=30.0, full_visibility=True,
                            flows_per_host=20))
    by_endpoint = {}
    for init in w.hosts:
        for s in init.sockets:
            by_endpoint[(init.name, s.local_addr, s.local_port)] = s
    assert len(w.flows) == 40
    for flow in w.flows:
        truth = w.truth.flows[flow.uid]
        sock = by_endpoint[(truth.host, flow.orig_h, flow.orig_p)]
        assert sock.pid == truth.pid
        assert (sock.remote_addr, sock.remote_port) == (flow.resp_h, flow.resp_p)


def test_audit_local_censoring_strips_endpoint_from_events_only():
    w = build_workload(spec(hosts=1, duration=60.0, event_rate=4.0,
                            audit_local_missing=1.0, seed=3))
    opens = [e for e in audit_events(w)
             if e.table is TableKind.SOCKET_EVENTS and e.action is Action.ADDED]
    assert opens and all(not e.payload.has_local() for e in opens)
    # the scripted actions still carry the full socket for table state
    raw = [a for a in w.actions if a.kind is ActionKind.SOCK_OPEN]
    assert all(a.sock.has_local() for a in raw)


def test_spec_roundtrip_and_unknown_field():
    s = spec(hosts=2, scenarios=[ScenarioHook(ScenarioKind.SHORT_SOCKET, 5.0,
                                              host="h001")])
    # a workload section as read from a JSON config file
    again = WorkloadSpec.from_dict(json.loads(json.dumps(dataclasses.asdict(s))))
    assert again == s
    with pytest.raises(ValueError, match="bogus"):
        WorkloadSpec.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="duration"):
        WorkloadSpec(duration=0).validate()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32))
def test_generation_properties(hosts, rate, coupling, seed):
    s = WorkloadSpec(hosts=hosts, duration=12.0, event_rate=float(rate),
                     flow_coupling=coupling, seed=seed)
    w1, w2 = build_workload(s), build_workload(s)
    assert w1 == w2
    assert [a.time for a in w1.actions] == sorted(a.time for a in w1.actions)
    names = {h.name for h in w1.hosts}
    assert all(t.host in names for t in w1.truth.flows.values())
    assert len(audit_events(w1)) == int(round(rate * 12.0)) * hosts


# --- scenario scripting ---------------------------------------------------------


def test_short_socket_in_audit_but_not_probe_snapshots():
    w = build_workload(spec(hosts=1, duration=40.0, event_rate=0.0,
                            scenarios=[ScenarioHook(ScenarioKind.SHORT_SOCKET, 7.0)]))
    kinds = [e for e in audit_events(w) if e.table is TableKind.SOCKET_EVENTS]
    assert [e.action for e in kinds] == [Action.ADDED, Action.REMOVED]
    agent = SimAgent(w.hosts[0], scheduler=None)
    for a in w.actions:
        if a.time <= 20.0:
            agent.apply_action(a)
    socks = agent._snapshot_rows(TableKind.PROCESS_OPEN_SOCKETS, None)
    assert socks == []


def test_process_crash_leaves_no_audit_trace():
    w = build_workload(spec(hosts=1, duration=30.0, event_rate=0.0,
                            scenarios=[ScenarioHook(ScenarioKind.PROCESS_CRASH, 4.0)]))
    (crash_time, host, pid) = w.truth.crashes[0]
    assert crash_time == 6.0
    removed = [e for e in audit_events(w)
               if e.table is TableKind.PROCESS_EVENTS and e.action is Action.REMOVED]
    assert removed == []
    agent = SimAgent(w.hosts[0], scheduler=None)
    for a in w.actions:
        agent.apply_action(a)
    assert pid not in agent.processes
    assert all(k[0] != pid for k in agent.sockets)


def test_ssh_chain_truth_has_alert_and_unrelated_does_not():
    chain = build_workload(spec(
        hosts=3, duration=60.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_CHAIN, 10.0)]))
    unrelated = build_workload(spec(
        hosts=3, duration=60.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_UNRELATED, 10.0)]))
    alerts = [a for a in chain.truth.expected_alerts
              if a["kind"] == "stepping_stone"]
    assert len(alerts) == 1 and alerts[0]["host"] == "h001"
    assert unrelated.truth.expected_alerts == []
    ends = sorted(f.end for f in chain.flows)
    assert ends == [30.0, 35.0]  # outgoing leg reported before incoming


def test_attachment_scenario_download_precedes_exec():
    w = build_workload(spec(
        hosts=1, duration=60.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 10.0,
                                params={"execs": 2})]))
    assert len(w.downloads) == 1
    dl = w.downloads[0]
    assert dl.sha256 == file_digest("/home/alice/attachment-h000.bin")
    assert w.truth.flows[dl.flow_uid].pid == PID_BROWSER
    execs = [e for e in audit_events(w)
             if e.table is TableKind.PROCESS_EVENTS and e.action is Action.ADDED
             and e.payload.binary_path.startswith("/home/alice/")]
    assert [e.event_time for e in execs] == [13.0, 16.0]
    assert len(w.truth.expected_alerts) == 2
    assert {a["pid"] for a in w.truth.expected_alerts} == \
        {e.payload.pid for e in execs}
    # the file inventory serves the hash the download reported
    assert w.hosts[0].files["/home/alice/attachment-h000.bin"] == dl.sha256


def test_attachment_noexec_has_download_but_no_alert():
    w = build_workload(spec(
        hosts=1, duration=60.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_NOEXEC, 10.0)]))
    assert len(w.downloads) == 1
    assert w.truth.expected_alerts == []


# --- baseline tables -------------------------------------------------------------


def test_initial_batches_cover_all_state_tables():
    w = build_workload(spec(hosts=1, event_rate=0.0))
    got = SimAgent(w.hosts[0], None).initial_batches(0.0)
    assert [b.table for b in got] == [
        TableKind.INTERFACES, TableKind.USERS, TableKind.PROCESSES,
        TableKind.PROCESS_OPEN_SOCKETS, TableKind.LISTENING_PORTS]
    by_table = {b.table: b for b in got}
    assert [r.addr for r in by_table[TableKind.INTERFACES].rows] == ["10.1.0.1"]
    assert {u.uid for u in by_table[TableKind.USERS].rows} == {0, 1, 1000, 1001}
    procs = by_table[TableKind.PROCESSES].rows
    assert {p.pid for p in procs} >= {1, PID_SSHD, PID_UDPD}
    assert all(p.source is Source.STATUS for p in procs)
    ports = {s.local_port for s in by_table[TableKind.LISTENING_PORTS].rows}
    assert ports == {22, 80}
    assert by_table[TableKind.PROCESS_OPEN_SOCKETS].rows == ()


def test_host_naming_and_addressing():
    assert host_name(0) == "h000" and host_name(123) == "h123"
    assert host_addr(0) == "10.1.0.1"
    assert host_addr(199) == "10.1.0.200"
    assert host_addr(200) == "10.1.1.1"


# --- schedule execution over the overlay ------------------------------------------


def connect(loop, node, agent, at=0.01):
    loop.call_at(at, lambda: agent.connect(node))
    loop.run_until(at)


def test_initial_snapshots_emitted_before_schedule_runs():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    node.publish_interest(interest("i1", "processes", one_time=True))
    connect(loop, node, agent)
    loop.run_until(0.1)
    tables = [b.table for b in batches(inbox)]
    assert tables[:5] == [
        TableKind.INTERFACES, TableKind.USERS, TableKind.PROCESSES,
        TableKind.PROCESS_OPEN_SOCKETS, TableKind.LISTENING_PORTS]
    assert tables.count(TableKind.PROCESSES) == 2  # initial + one-time


def test_one_time_runs_once_per_connection():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest("i1", "users", one_time=True, topic="collect"))
    connect(loop, node, agent)
    loop.run_until(5.0)
    assert len(batches(inbox, topic="collect")) == 1
    agent.disconnect(node)
    loop.call_at(6.0, lambda: agent.connect(node))
    loop.run_until(10.0)
    assert len(batches(inbox, topic="collect")) == 2


def test_scheduled_interest_three_batches_in_90s():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest("i1", "processes", period=30.0,
                                   topic="collect"))
    connect(loop, node, agent)
    loop.run_until(91.0)
    got = batches(inbox, topic="collect")
    assert len(got) == 3
    assert all(b.table is TableKind.PROCESSES for b in got)
    times = [b.event_time for b in got]
    assert times == sorted(times)
    assert all(abs(t - k * 30.0) < 1.0 for t, k in zip(times, (1, 2, 3)))


def test_agent_parses_each_entry_once(monkeypatch):
    from flowlink import agents
    parsed = []
    real = agents.parse_query
    monkeypatch.setattr(agents, "parse_query",
                        lambda text: parsed.append(text) or real(text))
    loop, node, inbox = wire()
    agent = make_agent(build_workload(spec(event_rate=0.0)), loop, node)
    collect(node, inbox, "collect")
    collect(node, inbox, "other")
    node.publish_interest(interest("i1", "users", period=5.0, topic="collect"))
    node.publish_interest(interest("s1", "socket_events", period=1.0))
    connect(loop, node, agent)
    loop.run_until(12.0)
    # a second topic updates the entry; its timer and parsed query stay
    node.publish_interest(interest("i2", "users", period=5.0, topic="other"))
    loop.run_until(21.0)
    assert sorted(parsed) == ["socket_events", "users"]
    times = [(b.event_time, t) for t, b in inbox
             if isinstance(b, SnapshotBatch) and t in ("collect", "other")]
    assert [round(t) for t, _ in times] == [5, 10, 15, 15, 20, 20]
    assert [topic for t, topic in times if t > 12.0] == ["collect", "other"] * 2


def test_scheduled_interest_stops_after_retract():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest("i1", "users", period=10.0,
                                   topic="collect"))
    connect(loop, node, agent)
    loop.run_until(25.0)
    assert len(batches(inbox, topic="collect")) == 2
    node.retract_interest("i1")
    loop.run_until(120.0)
    assert len(batches(inbox, topic="collect")) == 2


def test_evented_table_streams_on_change_not_on_period():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    node.publish_interest(interest("s1", "socket_events", period=1.0))
    node.publish_interest(interest("s2", "process_events", period=1.0))
    connect(loop, node, agent)
    sock = SocketInfo("h000", 500, 9, Proto.TCP, Direction.OUTGOING,
                      Source.AUDIT, "10.1.0.1", 41000, "203.0.113.7", 443,
                      first_seen=3.0)
    proc = ProcessInfo("h000", 501, 1, "/usr/bin/curl", 1000, 4.0, Source.AUDIT)
    from flowlink.agents import SimAction
    loop.call_at(3.0, agent.apply_action,
                 SimAction(3.0, "h000", ActionKind.SOCK_OPEN, sock=sock))
    loop.call_at(4.0, agent.apply_action,
                 SimAction(4.0, "h000", ActionKind.PROC_START, proc=proc))
    loop.run_until(30.0)
    events = [p for _, p in inbox if isinstance(p, HostEvent)]
    assert len(events) == 2
    assert events[0].table is TableKind.SOCKET_EVENTS
    assert events[0].payload == sock
    assert events[1].table is TableKind.PROCESS_EVENTS
    assert events[1].payload == proc
    assert batches(inbox, table=TableKind.SOCKET_EVENTS) == []
    assert batches(inbox, table=TableKind.PROCESS_EVENTS) == []


def test_malformed_query_reports_error_and_agent_continues():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    node.publish_interest(interest("bad", "SELECT * FROM processes",
                                   one_time=True))
    node.publish_interest(interest("ok", "users", one_time=True))
    connect(loop, node, agent)
    loop.run_until(1.0)
    errors = [p for _, p in inbox if isinstance(p, QueryErrorResult)]
    assert len(errors) == 1
    assert errors[0].query == "SELECT * FROM processes"
    assert errors[0].host == "h000"
    assert agent.counters["query_errors"] == 1
    assert len(batches(inbox, table=TableKind.USERS)) == 2  # initial + one-time


def test_tables_the_agent_does_not_serve_answer_with_a_query_error():
    # process_descendants stays a TableKind member only so that older
    # recordings decode; no agent serves it
    loop, node, inbox = wire()
    agent = make_agent(build_workload(spec(event_rate=0.0)), loop, node)
    collect(node, inbox, "collect")
    for iid, table in (("d1", "process_descendants"), ("n1", "nosuchtable")):
        node.publish_interest(interest(iid, f"{table} WHERE pid == '50'",
                                       one_time=True, topic="collect"))
    connect(loop, node, agent)
    loop.run_until(1.0)
    assert batches(inbox, topic="collect") == []
    errors = [p for t, p in inbox if t == "collect"]
    assert sorted((type(e), e.query, e.error) for e in errors) == [
        (QueryErrorResult, "nosuchtable WHERE pid == '50'",
         "unknown table 'nosuchtable'"),
        (QueryErrorResult, "process_descendants WHERE pid == '50'",
         "unknown table 'process_descendants'")]
    assert agent.counters["query_errors"] == 2


def test_file_hash_query_returns_generated_digest():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest(
        "h1", "file_hash WHERE path == '/usr/sbin/sshd'",
        group="host/h000", one_time=True, topic="collect"))
    connect(loop, node, agent)
    loop.run_until(1.0)
    got = batches(inbox, topic="collect")
    assert len(got) == 1
    assert got[0].rows == (
        FileHashRecord("h000", "/usr/sbin/sshd", file_digest("/usr/sbin/sshd")),)


def test_file_hash_query_misses_unknown_path():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest(
        "h1", "file_hash WHERE path == '/nope'", one_time=True, topic="collect"))
    connect(loop, node, agent)
    loop.run_until(1.0)
    got = batches(inbox, topic="collect")
    assert len(got) == 1 and got[0].rows == ()


def test_verification_snapshot_is_flagged_and_atomic():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    collect(node, inbox, "collect")
    node.publish_interest(interest("v1", "verification", group="host/h000",
                                   one_time=True, topic="collect"))
    connect(loop, node, agent)
    loop.run_until(1.0)
    got = batches(inbox, topic="collect")
    assert len(got) == 1 and got[0].table is TableKind.VERIFICATION
    kinds = {type(r) for r in got[0].rows}
    assert kinds == {ProcessInfo, SocketInfo}


def test_batch_ids_increase_monotonically_per_agent():
    loop, node, inbox = wire()
    w = build_workload(spec(event_rate=0.0))
    agent = make_agent(w, loop, node)
    node.publish_interest(interest("i1", "users", period=5.0))
    connect(loop, node, agent)
    loop.run_until(20.0)
    ids = [b.batch_id for b in batches(inbox)]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


# --- fleet driving ---------------------------------------------------------------


def fleet(workload, loop, node, **kw):
    flows = []
    downloads = []
    sim = FleetSimulator(workload, loop, node,
                         flow_sink=lambda f: flows.append((loop.now(), f)),
                         download_sink=lambda d: downloads.append(d), **kw)
    return sim, flows, downloads


def test_fleet_delivers_flows_at_end_time_in_order():
    loop, node, inbox = wire()
    w = build_workload(spec(hosts=2, duration=30.0, event_rate=2.0,
                            flow_coupling=1.0, seed=8))
    sim, flows, _ = fleet(w, loop, node)
    sim.start()
    loop.run_until(40.0)
    assert [f.uid for _, f in flows] == [f.uid for f in w.flows]
    assert all(abs(t - f.end) < 1e-9 for t, f in flows)


def test_fleet_streams_audit_events_through_overlay():
    loop, node, inbox = wire()
    w = build_workload(spec(hosts=1, duration=20.0, event_rate=2.0, seed=4))
    node.publish_interest(interest("p", "process_events", period=1.0))
    node.publish_interest(interest("s", "socket_events", period=1.0))
    sim, _, _ = fleet(w, loop, node)
    sim.start()
    loop.run_until(25.0)
    events = [p for _, p in inbox if isinstance(p, HostEvent)]
    assert len(events) == len(audit_events(w)) == 40


def test_host_reconnect_replays_initial_state_and_one_time():
    loop, node, inbox = wire()
    w = build_workload(spec(
        hosts=1, duration=30.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.HOST_RECONNECT, 5.0,
                                params={"down": 5.0})]))
    registrations = []
    collect(node, inbox, "collect")
    node.publish_interest(interest("i1", "users", one_time=True,
                                   topic="collect"))
    sim, _, _ = fleet(w, loop, node,
                      register_host=lambda h: registrations.append(("up", h)),
                      deregister_host=lambda h: registrations.append(("down", h)))
    sim.start()
    loop.run_until(30.0)
    assert registrations == [("up", "h000"), ("down", "h000"), ("up", "h000")]
    assert len(batches(inbox, topic="collect")) == 2
    assert len(batches(inbox, table=TableKind.INTERFACES)) == 2
    assert node.counters["agent_rejoin"] == 0


def test_fleet_delivers_downloads_at_their_timestamp():
    loop, node, _ = wire()
    w = build_workload(spec(
        hosts=1, duration=60.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_NOEXEC, 10.0)]))
    sim, _, downloads = fleet(w, loop, node)
    sim.start()
    loop.run_until(60.0)
    assert [d.sha256 for d in downloads] == [d.sha256 for d in w.downloads]
