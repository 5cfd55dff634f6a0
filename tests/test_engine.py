"""End-to-end engine behaviour over the simulated fleet."""

import collections
import io
import json
import sys
import threading
import time

import pytest

from conftest import iface_ev, make_proc, make_sock, proc_ev, snapshot, sock_ev
from flowlink import correlate
from flowlink.agents import (ENGINE_TOPIC, ScenarioHook, ScenarioKind, WorkloadSpec,
                             build_workload)
from flowlink.config import EngineConfig
from flowlink.detect import ATTACHMENT_EXECUTED, STEPPING_STONE
from flowlink.engine import (ENGINE_NODE_ID, Engine, EngineOutputs, open_outputs,
                             run_simulation, schedule_replay)
from flowlink.flowlog import (DownloadEvent, FlowRecord, LogFormatError, read_alerts,
                              read_enriched, read_inputs)
from flowlink.model import FlowTuple, Proto, TableKind
from flowlink.overlay import Interest, node_topic
from flowlink.runtime import EventLoop, WallScheduler


def spec(**kw) -> WorkloadSpec:
    base = dict(hosts=2, duration=30.0, event_rate=2.0, seed=17)
    base.update(kw)
    return WorkloadSpec(**base)


def config(**kw) -> EngineConfig:
    base = dict(verification_interval=30.0, probe_interval=30.0,
                retry_window=2.0)
    base.update(kw)
    return EngineConfig(**base)


def outputs():
    return EngineOutputs(flows=io.StringIO(), alerts=io.StringIO(),
                         inputs=io.StringIO())


def enriched_rows(out: EngineOutputs) -> list[dict]:
    return list(read_enriched(iter(out.flows.getvalue().splitlines())))


def alert_rows(out: EngineOutputs) -> list[dict]:
    return list(read_alerts(iter(out.alerts.getvalue().splitlines())))


def test_engine_registers_one_store_listener():
    eng = Engine(config(), EventLoop())
    assert eng.store._listeners == [eng.correlator.on_state_change]
    assert eng.correlator.index is eng.store.index


def test_full_audit_visibility_attributes_every_tcp_flow():
    w = build_workload(spec(flow_coupling=1.0))
    out = outputs()
    engine = run_simulation(config(), w, outputs=out)
    assert engine.counters["flows_out"] == len(w.flows) > 0
    tcp = engine.metrics.per_proto[Proto.TCP]
    assert tcp.flows == len(w.flows)
    assert tcp.rate() == 1.0
    assert tcp.process_uniqueness() == 1.0
    rows = enriched_rows(out)
    assert len(rows) == len(w.flows)
    for row in rows:
        truth = w.truth.flows[row["uid"]]
        assert row["orig_host"] == truth.host
        assert row["orig_pids"] == str(truth.pid)
        assert row["status"] == "unique"


def test_internal_flows_attribute_both_sides():
    w = build_workload(spec(hosts=3, flow_coupling=1.0,
                            internal_flow_fraction=1.0, seed=23))
    collected = []
    loop = EventLoop()
    engine = Engine(config(), loop)
    engine.result_sinks.append(collected.append)
    from flowlink.agents import FleetSimulator
    fleet = FleetSimulator(w, loop, engine.node, flow_sink=engine.submit_flow,
                           register_host=engine.register_host,
                           deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()
    loop.run_until(40.0)
    engine.shutdown()
    assert collected
    for res in collected:
        assert res.flow.resp_port == 80
        assert len({c.entity_process() for c in res.originator}) == 1
        # responder is the web daemon on the target host
        assert {c.binary_path for c in res.responder} == {"/usr/sbin/webd"}


def test_udp_attribution_rate_equals_spanning_fraction():
    w = build_workload(spec(hosts=2, duration=90.0, event_rate=0.0,
                            udp_sockets_per_host=6, udp_span_probability=0.5))
    engine = run_simulation(config(), w)
    udp = engine.metrics.per_proto[Proto.UDP]
    assert udp.flows == 12
    assert udp.attributed == 6  # exactly the probe-spanning half
    for uid, truth in w.truth.flows.items():
        pass  # spanning allocation is exact, checked via the aggregate above


def test_crash_purged_within_one_verification_interval():
    w = build_workload(spec(
        hosts=1, duration=70.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.PROCESS_CRASH, 10.0)]))
    crash_t, host, pid = w.truth.crashes[0]
    loop = EventLoop()
    engine = Engine(config(verification_interval=30.0), loop)
    from flowlink.agents import FleetSimulator
    fleet = FleetSimulator(w, loop, engine.node, flow_sink=engine.submit_flow,
                           register_host=engine.register_host,
                           deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()
    loop.run_until(crash_t + 1.0)
    assert pid in engine.store.view(host).processes  # crash is silent
    loop.run_until(29.9)
    assert pid in engine.store.view(host).processes  # still unverified
    loop.run_until(31.0)  # first verification probe has answered by now
    assert pid not in engine.store.view(host).processes
    assert all(k[0] != pid for k in engine.store.view(host).sockets)
    engine.shutdown()


def _live_fleet(w, engine, loop):
    from flowlink.agents import FleetSimulator
    fleet = FleetSimulator(w, loop, engine.node, flow_sink=engine.submit_flow,
                           download_sink=engine.submit_download,
                           register_host=engine.register_host,
                           deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()


@pytest.mark.parametrize("hosts", [1, 4])
def test_verification_is_one_standing_interest_for_the_fleet(hosts):
    loop = EventLoop()
    engine = Engine(config(verification_interval=5.0), loop)
    passes = []

    def on_result(_topic, payload):
        if getattr(payload, "table", None) is TableKind.VERIFICATION:
            passes.append(payload.host)
    engine.node.add_result_handler(on_result)
    _live_fleet(build_workload(spec(hosts=hosts, duration=20.0, event_rate=0.0)),
                engine, loop)
    loop.run_until(3 * 5.0 + 1.0)
    assert sorted(passes) == sorted(engine.store.hosts() * 3)  # each host, each interval
    verification = [i for i in engine.node.stored_interests().values()
                    if i.query.startswith("verification")]
    assert len(verification) == 1
    (interest,) = verification
    assert interest.group == "all" and not interest.one_time
    assert interest.period == 5.0
    assert not interest.interest_id.startswith("q/")  # not a detector query
    engine.shutdown()


@pytest.mark.parametrize("period", [30.0, 2.5, 2e6, 1e-5])
def test_scheduled_interests_parse_to_their_period(period):
    # the query text is the table alone; the period rides `Interest.period`
    from flowlink.agents import SimAgent
    loop = EventLoop()
    engine = Engine(config(verification_interval=period, probe_interval=period), loop)
    engine.start()
    loop.run_until(0.01)  # the proxy stores what start() published
    batches = collections.defaultdict(list)
    agent = SimAgent(build_workload(spec(hosts=1, event_rate=0.0)).hosts[0], loop,
                     emit=lambda topic, rec: batches[rec.table].append(rec.event_time))
    agent.connect(engine.node)
    stored = engine.node.stored_interests()
    assert len([i for i in stored.values() if i.period == period]) == 6
    for interest in stored.values():
        # each query names its own table, which the agent parsed once
        table = interest.interest_id.rpartition("/")[2]
        assert interest.query == table
        assert agent._jobs[interest.mode_key].table is TableKind(table)
    start = loop.now()
    batches.clear()  # the connect-time snapshots
    loop.run_until(start + 3.5 * period)
    for table in ("processes", "users", "interfaces", "verification"):
        times = batches[TableKind(table)]
        assert times == pytest.approx([start + k * period for k in (1, 2, 3)],
                                      rel=1e-9, abs=1e-12)
    engine.shutdown()


def test_reconnected_host_purges_crash_within_one_verification_interval():
    reconnect_at = 8.0
    w = build_workload(spec(
        hosts=1, duration=50.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.HOST_RECONNECT, 5.0,
                                params={"down": reconnect_at - 5.0}),
                   ScenarioHook(ScenarioKind.PROCESS_CRASH, 9.0)]))
    crash_t, host, pid = w.truth.crashes[0]
    loop = EventLoop()
    engine = Engine(config(verification_interval=30.0), loop)
    _live_fleet(w, engine, loop)
    loop.run_until(crash_t + 1.0)
    assert pid in engine.store.view(host).processes  # crash is silent
    loop.run_until(reconnect_at + 30.0 + 0.1)
    assert pid not in engine.store.view(host).processes
    assert all(k[0] != pid for k in engine.store.view(host).sockets)
    engine.shutdown()


def test_short_lived_socket_still_attributed_via_audit():
    w = build_workload(spec(
        hosts=1, duration=40.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.SHORT_SOCKET, 7.0)]))
    out = outputs()
    engine = run_simulation(config(), w, outputs=out)
    rows = enriched_rows(out)
    assert len(rows) == 1
    truth = next(iter(w.truth.flows.values()))
    assert rows[0]["orig_pids"] == str(truth.pid)
    assert rows[0]["status"] == "unique"


def test_attachment_execution_alerts_match_truth():
    w = build_workload(spec(
        hosts=1, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 20.0,
                                params={"execs": 2})]))
    out = outputs()
    engine = run_simulation(config(), w, outputs=out)
    got = [a for a in engine.alerts if a.kind == ATTACHMENT_EXECUTED]
    assert {(a.evidence["host"], a.evidence["pid"], a.evidence["sha256"])
            for a in got} == \
        {(t["host"], t["pid"], t["sha256"]) for t in w.truth.expected_alerts}
    assert len(alert_rows(out)) == 2
    assert engine.attachments.counters["hash_queries"] >= 1


def test_attachment_path_with_a_quote_is_still_checked():
    # the query writes a path's `'` as `''`, so a path may hold either quote
    both = "/home/alice/\"bob's\" invoice.bin"
    w = build_workload(spec(
        hosts=3, duration=40.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 10.0, host="h000"),
                   ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 15.0, host="h001",
                                params={"path": "/home/alice/bob's invoice.bin"}),
                   ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 20.0, host="h002",
                                params={"path": both})]))
    engine = run_simulation(config(), w)
    got = [a for a in engine.alerts if a.kind == ATTACHMENT_EXECUTED]
    assert sorted((a.evidence["host"], a.evidence["pid"]) for a in got) == \
        sorted((t["host"], t["pid"]) for t in w.truth.expected_alerts)
    assert {a.evidence["binary_path"] for a in got} == {
        "/home/alice/attachment-h000.bin", "/home/alice/bob's invoice.bin", both}


def test_attachment_download_without_exec_stays_quiet():
    w = build_workload(spec(
        hosts=1, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_NOEXEC, 20.0)]))
    engine = run_simulation(config(), w)
    assert [a for a in engine.alerts if a.kind == ATTACHMENT_EXECUTED] == []


def test_stepping_stone_alert_names_session_and_client():
    w = build_workload(spec(
        hosts=3, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_CHAIN, 15.0)]))
    engine = run_simulation(config(), w)
    got = [a for a in engine.alerts if a.kind == STEPPING_STONE]
    want = w.truth.expected_alerts[0]
    assert len(got) == 1
    ev = got[0].evidence
    assert ev["host"] == want["host"]
    assert (ev["in_pid"], ev["out_pid"]) == (want["in_pid"], want["out_pid"])
    assert (ev["in_flow"], ev["out_flow"]) == (want["in_flow"], want["out_flow"])
    assert got[0].ts == 40.0  # when the inbound leg paired, at its end


@pytest.mark.parametrize("down", [3.0, 10.0])
def test_stepping_stone_alerts_while_the_relay_host_is_down(down):
    # the inbound leg ends at 40 s: with `down` 10 the relay host is still
    # disconnected then, and its frozen process tree decides the pair
    w = build_workload(spec(
        hosts=3, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_CHAIN, 15.0),
                   ScenarioHook(ScenarioKind.HOST_RECONNECT, 36.0,
                                host="h001", params={"down": down})]))
    engine = run_simulation(config(), w)
    (want,) = w.truth.expected_alerts
    got = [a for a in engine.alerts if a.kind == STEPPING_STONE]
    assert [(a.host, a.ts, a.evidence["in_pid"], a.evidence["out_pid"])
            for a in got] == [(want["host"], 40.0, want["in_pid"],
                               want["out_pid"])]


def test_unrelated_ssh_sessions_do_not_alert():
    w = build_workload(spec(
        hosts=3, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_UNRELATED, 15.0)]))
    out = outputs()
    engine = run_simulation(config(), w, outputs=out)
    assert [a for a in engine.alerts if a.kind == STEPPING_STONE] == []
    # the detector saw both ssh flows, and asked no host about them
    assert engine.stepping.counters["ssh_flows"] == 2
    assert "process_descendants" not in out.inputs.getvalue()


def test_host_reconnect_rebuilds_state():
    w = build_workload(spec(
        hosts=1, duration=40.0, event_rate=2.0,
        scenarios=[ScenarioHook(ScenarioKind.HOST_RECONNECT, 12.0,
                                params={"down": 3.0})]))
    engine = run_simulation(config(), w)
    view = engine.store.view("h000")
    assert view is not None and view.connected
    assert view.addresses == frozenset({"10.1.0.1"})
    assert 1 in view.processes  # baseline restored after rejoin
    assert engine.counters["flows_out"] == engine.counters["flows_in"]


def test_pid_reuse_closes_stale_socket():
    w = build_workload(spec(
        hosts=1, duration=30.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.PID_REUSE, 5.0,
                                params={"pid": 9800})]))
    engine = run_simulation(config(), w, until=12.0)
    view = engine.store.view("h000")
    assert view.processes[9800].binary_path == "/bin/b"
    assert all(k[0] != 9800 for k in view.sockets)


def test_same_timestamp_downloads_are_both_ingested():
    # a mail with two attachments: two downloads with one timestamp
    out = outputs()
    engine = Engine(config(), EventLoop(), outputs=out)
    flow = FlowTuple("203.0.113.25", 25, "10.1.0.1", 40000, Proto.TCP)
    for sha in ("a" * 64, "b" * 64):
        engine.submit_download(DownloadEvent(ts=5.0, sha256=sha, flow=flow, flow_uid="M1"))
    assert engine.counters["downloads_in"] == 2 and len(engine.downloads) == 2
    recorded = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    assert [e["kind"] for e in recorded] == ["download", "download"]


def test_graceful_shutdown_finalizes_parked_flows_exactly_once():
    loop = EventLoop()
    out = outputs()
    engine = Engine(config(), loop, outputs=out)
    engine.start()
    engine.register_host("h000")
    w = build_workload(spec(hosts=1, event_rate=0.0))
    agent_init = w.hosts[0]
    from flowlink.agents import SimAgent
    agent = SimAgent(agent_init, loop, emit=engine.node.route_result)
    loop.call_at(0.01, lambda: agent.connect(engine.node))
    loop.run_until(1.0)
    from flowlink.flowlog import FlowRecord
    engine.submit_flow(FlowRecord(ts=0.5, uid="F-park", orig_h="10.1.0.1",
                                  orig_p=55555, resp_h="203.0.113.5",
                                  resp_p=443, proto=Proto.TCP, duration=0.4))
    assert engine.correlator.parked_count == 1
    engine.shutdown()
    engine.shutdown()  # idempotent
    assert engine.correlator.parked_count == 0
    assert engine.correlator.counters["flushed"] == 1
    rows = enriched_rows(out)
    assert len(rows) == 1
    assert rows[0]["uid"] == "F-park" and rows[0]["status"] == "unattributed"


def test_disconnected_host_expires_when_its_grace_period_ends():
    """Down at t = 10 with a 60 s grace period: a flow from its address
    still attributes at 69.9 s, and one at 70.0 s finds no host."""
    loop = EventLoop()
    out = outputs()
    engine = Engine(config(grace_period=60.0), loop, outputs=out)
    engine.start()
    engine.register_host("h1")
    engine.ingest_result(ENGINE_TOPIC, iface_ev("h1", "10.0.0.1", t=0.0))
    engine.ingest_result(ENGINE_TOPIC, proc_ev(make_proc(start=0.0), t=0.0))
    for port in (4000, 4001):
        sock = make_sock(fd=port, local=("10.0.0.1", port),
                         remote=("203.0.113.9", 443), first_seen=0.0)
        engine.ingest_result(ENGINE_TOPIC, sock_ev(sock, t=0.0))
    loop.run_until(10.0)
    engine.deregister_host("h1")
    for uid, port, t in (("F-in", 4000, 69.9), ("F-out", 4001, 70.0)):
        loop.run_until(t)
        engine.submit_flow(FlowRecord(ts=t, uid=uid, orig_h="10.0.0.1",
                                      orig_p=port, resp_h="203.0.113.9",
                                      resp_p=443, proto=Proto.TCP))
    assert engine.store.hosts() == []
    loop.run_until(80.0)
    engine.shutdown()
    assert {r["uid"]: r["status"] for r in enriched_rows(out)} == {
        "F-in": "unique", "F-out": "unattributed"}


def test_repeated_deregister_arms_one_expiry_timer():
    """Only the disconnect that freezes a state arms a timer: a host already
    down, or one the engine never knew, arms none."""
    loop = EventLoop()
    engine = Engine(config(grace_period=60.0), loop)
    engine.start()
    engine.register_host("h1")
    for host in ("h1", "h1", "h9"):
        engine.deregister_host(host)
    assert sum(1 for h in loop._heap if h.fn == engine._expire) == 1
    assert (engine.store.counters["disconnect_noop"]
            == engine.store.counters["disconnect_unknown_host"] == 1)
    loop.run_until(60.0)
    assert engine.store.hosts() == []


def test_verification_from_a_down_host_is_dropped_and_counted():
    loop = EventLoop()
    engine = Engine(config(), loop)
    engine.start()
    engine.register_host("h1")
    engine.ingest_result(ENGINE_TOPIC, proc_ev(make_proc(pid=100), t=0.0))
    engine.deregister_host("h1")
    engine.ingest_result(ENGINE_TOPIC, snapshot("h1", TableKind.VERIFICATION, []))
    assert engine.store.counters["events_while_down"] == 1
    assert "verify_while_down" not in engine.counters
    assert list(engine.store.view("h1").processes) == [100]   # not purged


def test_metrics_snapshot_shape():
    w = build_workload(spec(flow_coupling=1.0))
    engine = run_simulation(config(dns_servers=("203.0.113.53",)), w)
    snap = engine.metrics_snapshot()
    assert set(snap["counters"]) == {"engine", "correlator", "store",
                                     "overlay", "attachments", "stepping"}
    assert snap["per_proto"]["tcp"]["attribution_rate"] == 1.0
    assert snap["hosts"] == {"known": 2, "connected": 2}
    assert snap["parked"] == 0
    dump = engine.state_dump()
    assert dump["hosts"] == ["h000", "h001"]
    assert any(r.get("_kind") == "process" for r in dump["records"])


def test_metrics_snapshot_counts_retry_attempts():
    loop = EventLoop()
    engine = Engine(config(), loop)
    engine.register_host("h1")
    engine.ingest_result("t", iface_ev("h1", "10.0.0.1"))
    engine.submit_flow(FlowRecord(ts=0.0, uid="F1", orig_h="10.0.0.1", orig_p=4000,
                                  resp_h="203.0.113.9", resp_p=443, proto=Proto.TCP))
    # the first socket explains nothing; the second decides the flow
    engine.ingest_result("t", sock_ev(make_sock(
        pid=100, fd=6, local=("10.0.0.1", 5000), remote=("203.0.113.9", 80))))
    engine.ingest_result("t", sock_ev(make_sock(
        pid=100, local=("10.0.0.1", 4000), remote=("203.0.113.9", 443))))
    corr = engine.metrics_snapshot()["counters"]["correlator"]
    assert corr["retry_attempts"] == 2
    assert corr["retry_resolved"] == 1


def test_metrics_snapshot_counts_parked_flows_per_protocol():
    loop = EventLoop()
    engine = Engine(config(), loop)
    engine.register_host("h1")
    engine.ingest_result("t", iface_ev("h1", "10.0.0.1"))
    engine.submit_flow(FlowRecord(ts=0.0, uid="F1", orig_h="10.0.0.1", orig_p=5353,
                                  resp_h="203.0.113.53", resp_p=53, proto=Proto.UDP))
    snap = engine.metrics_snapshot()
    assert snap["parked"] == 1
    assert snap["parked_by_proto"] == {"udp": 1}


def test_record_then_replay_reproduces_logs_byte_identical():
    w = build_workload(spec(
        hosts=2, duration=40.0, event_rate=2.0, flow_coupling=0.7, seed=31,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 12.0),
                   ScenarioHook(ScenarioKind.PROCESS_CRASH, 8.0, host="h001")]))
    out1 = outputs()
    engine1 = run_simulation(config(), w, outputs=out1)
    recorded = out1.inputs.getvalue()
    assert recorded

    loop = EventLoop()
    out2 = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
    engine2 = Engine(config(), loop, outputs=out2)
    engine2.start()
    n = schedule_replay(engine2,
                        read_inputs(iter(recorded.splitlines())))
    assert n > 0
    loop.run_until(engine1.scheduler.now())
    engine2.shutdown()
    assert out2.flows.getvalue() == out1.flows.getvalue()
    assert out2.alerts.getvalue() == out1.alerts.getvalue()
    assert engine2.counters["flows_out"] == engine1.counters["flows_out"]


RETIRED_KEYS = {"host_event": ("response_topic", "batch_id"),
                "snapshot": ("response_topic", "verification"),
                "query_error": ("response_topic",)}


def _recorded_fleet_run():
    """A recorded fleet run whose inputs hold every agent result kind: the
    hosts also answer a one-time query for a table no agent has."""
    w = build_workload(spec(
        hosts=2, duration=20.0, event_rate=2.0, flow_coupling=0.7, seed=31,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 6.0)]))
    loop = EventLoop()
    out = outputs()
    engine = Engine(config(verification_interval=10.0), loop, outputs=out)
    _live_fleet(w, engine, loop)
    loop.call_at(5.0, engine.node.publish_interest, Interest(
        interest_id="bad", query="no_such_table", group="all", one_time=True))
    loop.run_until(25.0)
    engine.shutdown()
    return out


def _replay(recorded: list[dict]) -> EngineOutputs:
    loop = EventLoop()
    out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
    engine = Engine(config(verification_interval=10.0), loop, outputs=out)
    engine.start()
    schedule_replay(engine, recorded)
    loop.run_until(25.0)
    engine.shutdown()
    return out


def test_recorded_results_name_their_topic_once():
    out = _recorded_fleet_run()
    entries = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    results = [e for e in entries if e["kind"] in RETIRED_KEYS]
    assert {e["kind"] for e in results} == set(RETIRED_KEYS)
    for entry in results:
        assert entry["topic"] == node_topic(ENGINE_NODE_ID)
        assert not set(RETIRED_KEYS[entry["kind"]]) & set(entry["data"])


def test_agents_send_connect_snapshots_to_the_engine_node():
    assert ENGINE_TOPIC == node_topic(ENGINE_NODE_ID)


def test_recordings_with_retired_result_keys_still_replay():
    """A recording written when agent results carried their response topic,
    a batch id on events and a verification flag on snapshots replays to
    the same logs as one without them."""
    out = _recorded_fleet_run()
    entries = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    older = []
    for entry in entries:
        entry = json.loads(json.dumps(entry))
        data = entry["data"]
        if entry["kind"] in RETIRED_KEYS:
            data["response_topic"] = entry["topic"]
        if entry["kind"] == "host_event":
            data["batch_id"] = None
        elif entry["kind"] == "snapshot":
            data["verification"] = data["table"] == "verification"
        older.append(entry)
    assert any(e["data"].get("verification") for e in older)
    new, old = _replay(entries), _replay(older)
    assert enriched_rows(out) and alert_rows(out)
    for replayed in (new, old):
        assert replayed.flows.getvalue() == out.flows.getvalue()
        assert replayed.alerts.getvalue() == out.alerts.getvalue()


def _held_rows(entry: dict) -> list[dict]:
    """The process and socket records an `inputs.log` entry carries."""
    data = entry["data"]
    rows = [data["payload"]] if entry["kind"] == "host_event" else data.get("rows", [])
    return [r for r in rows if r.get("_kind") in ("process", "socket")]


def test_recorded_rows_carry_no_last_verified():
    out = _recorded_fleet_run()
    entries = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    rows = [r for e in entries if e["kind"] in ("host_event", "snapshot")
            for r in _held_rows(e)]
    assert {r["_kind"] for r in rows} == {"process", "socket"}
    assert not any("last_verified" in r for r in rows)


def _assert_older_recording_replays(mark_row):
    """A recording whose held rows `mark_row(row, entry)` gives back a key
    it no longer writes replays to the same logs as one without."""
    out = _recorded_fleet_run()
    entries = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    older = []
    for entry in entries:
        entry = json.loads(json.dumps(entry))
        if entry["kind"] in ("host_event", "snapshot"):
            for row in _held_rows(entry):
                mark_row(row, entry)
        older.append(entry)
    assert older != entries
    new, old = _replay(entries), _replay(older)
    assert enriched_rows(out) and alert_rows(out)
    for replayed in (new, old):
        assert replayed.flows.getvalue() == out.flows.getvalue()
        assert replayed.alerts.getvalue() == out.alerts.getvalue()


def test_recordings_with_last_verified_still_replay():
    def mark_row(row, entry):
        row["last_verified"] = entry["data"]["event_time"]
    _assert_older_recording_replays(mark_row)


def test_recordings_with_binary_hash_still_replay():
    def mark_row(row, entry):
        if row["_kind"] == "process":
            row["binary_hash"] = None
    _assert_older_recording_replays(mark_row)


def test_calls_after_shutdown_are_refused_and_counted(tmp_path):
    engine = Engine(config(), EventLoop(),
                    outputs=open_outputs(str(tmp_path), record_inputs=True))
    engine.start()
    engine.shutdown()
    logs = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert sorted(logs) == ["alerts.log", "conn.log", "inputs.log"]
    flow = FlowTuple("10.0.0.1", 4000, "203.0.113.9", 443, Proto.TCP)
    engine.submit_flow(FlowRecord(ts=1.0, uid="F1", orig_h="10.0.0.1", orig_p=4000,
                                  resp_h="203.0.113.9", resp_p=443, proto=Proto.TCP))
    engine.submit_download(DownloadEvent(ts=1.0, sha256="a" * 64, flow=flow))
    engine.ingest_result("t", iface_ev("h1", "10.0.0.1"))
    engine.register_host("h1")
    engine.deregister_host("h1")
    assert engine.counters["refused_after_shutdown"] == 5
    assert engine.counters["flows_in"] == engine.counters["events_in"] == 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == logs


def test_replay_names_the_line_of_a_malformed_recording():
    lines = ["#flowlink inputs v1\n",
             '{"t": 0.5, "kind": "host_up", "data": {"host": "h1"}}\n',
             '{"t": 0.6, "kind": "host_down", "data": {"host": "h1"}}\n',
             "{bad json\n"]
    engine = Engine(config(), EventLoop())
    with pytest.raises(LogFormatError, match="line 4"):
        schedule_replay(engine, read_inputs(iter(lines)))


# --- wall-clock threading ---------------------------------------------------------


def test_deadline_during_retry_emits_flow_once(monkeypatch):
    """A retry deadline that falls due while telemetry is resolving the
    parked flow must not finalize it a second time."""
    sched = WallScheduler()
    engine = Engine(config(retry_window=0.2), sched)
    counts: dict[str, int] = {}
    emitted = threading.Event()

    def sink(result):
        counts[result.tag.uid] = counts.get(result.tag.uid, 0) + 1
        emitted.set()
    engine.result_sinks.append(sink)

    original = correlate.attribute
    stall = threading.Event()

    def slow_attribute(*args, **kwargs):
        result = original(*args, **kwargs)
        if stall.is_set() and result.originator:
            stall.clear()
            # resolving retry: stay inside it past the 0.2 s deadline
            emitted.wait(timeout=0.5)
        return result
    monkeypatch.setattr(correlate, "attribute", slow_attribute)

    try:
        engine.register_host("h1")
        engine.ingest_result("t", iface_ev("h1", "10.0.0.1"))
        engine.ingest_result("t", proc_ev(make_proc(pid=100)))
        engine.submit_flow(FlowRecord(ts=0.5, uid="F1", orig_h="10.0.0.1",
                                      orig_p=4000, resp_h="203.0.113.9",
                                      resp_p=443, proto=Proto.TCP))
        assert engine.correlator.parked_count == 1
        stall.set()
        engine.ingest_result("t", sock_ev(make_sock(
            pid=100, local=("10.0.0.1", 4000), remote=("203.0.113.9", 443))))
        # the deadline handle is due before this one, so it has been
        # handled once this one runs
        drained = threading.Event()
        sched.call_later(0.0, drained.set)
        assert drained.wait(timeout=1.0)
        assert counts == {"F1": 1}
    finally:
        engine.shutdown()
        sched.stop()


def test_wall_scheduler_callbacks_run_under_engine_lock():
    sched = WallScheduler()
    engine = Engine(config(), sched)
    assert engine.lock is sched.lock
    ran = threading.Event()
    holding = threading.Event()
    release = threading.Event()

    def hold():
        with engine.lock:
            holding.set()
            release.wait(timeout=1.0)
    holder = threading.Thread(target=hold)
    try:
        holder.start()
        assert holding.wait(timeout=1.0)
        handle = sched.call_later(0.0, ran.set)
        # due, but the timer thread waits for the lock
        assert not ran.wait(timeout=0.3)
        sched.cancel(handle)
        release.set()
        holder.join(timeout=1.0)
        assert not holder.is_alive()
        drained = threading.Event()
        sched.call_later(0.0, drained.set)
        assert drained.wait(timeout=1.0)
        assert not ran.is_set()
    finally:
        release.set()
        sched.stop()


def test_event_loop_idle_leaves_the_clock_at_the_last_timer():
    loop = EventLoop()
    ran = []
    loop.call_at(3.0, ran.append, 3.0)
    loop.call_at(1.0, ran.append, 1.0)
    loop.run_until_idle()
    assert ran == [1.0, 3.0] and loop.now() == 3.0
    loop.call_at(4.0, ran.append, 4.0)
    loop.run_until(5.0)
    assert ran == [1.0, 3.0, 4.0] and loop.now() == 5.0


@pytest.mark.parametrize("step", [3600.0, -3600.0])
def test_wall_scheduler_timers_ignore_wall_clock_steps(monkeypatch, step):
    sched = WallScheduler()
    fired_at: list[float] = []
    ran = threading.Event()

    def fire():
        fired_at.append(time.monotonic())
        ran.set()
    try:
        start = time.monotonic()
        sched.call_later(0.5, fire)
        real = time.time
        monkeypatch.setattr(time, "time", lambda: real() + step)
        # wake the timer thread so that it looks at its heap after the step
        sched.call_later(60.0, fire)
        assert not ran.wait(timeout=0.3)
        assert ran.wait(timeout=1.0)
        assert fired_at[0] - start >= 0.5
    finally:
        sched.stop()


def test_wall_clock_park_emits_every_flow_once():
    """Two ingest threads park flows and resolve every other one with a late
    socket while the timer thread expires the rest."""
    n, lag = 300, 5
    sched = WallScheduler()
    engine = Engine(config(retry_window=0.2), sched)
    counts: collections.Counter = collections.Counter()
    engine.result_sinks.append(lambda result: counts.update([result.tag.uid]))

    def ingest(ids):
        for step, i in enumerate(ids + [None] * lag):
            if i is not None:
                engine.submit_flow(FlowRecord(
                    ts=0.0, uid=f"F{i}", orig_h="10.0.0.1", orig_p=4000 + i,
                    resp_h="203.0.113.9", resp_p=443, proto=Proto.TCP))
            if step >= lag and (step - lag) % 2 == 0:
                late = ids[step - lag]
                engine.ingest_result("t", sock_ev(make_sock(
                    pid=100, fd=1000 + late, local=("10.0.0.1", 4000 + late),
                    remote=("203.0.113.9", 443))))
            time.sleep(0.001)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        engine.register_host("h1")
        engine.ingest_result("t", iface_ev("h1", "10.0.0.1"))
        engine.ingest_result("t", proc_ev(make_proc(pid=100)))
        ingesters = [threading.Thread(target=ingest, args=(list(range(k, n, 2)),))
                     for k in (0, 1)]
        for t in ingesters:
            t.start()
        for t in ingesters:
            t.join(timeout=10.0)
            assert not t.is_alive()
        quiet = time.monotonic() + 2.0
        while engine.correlator.parked_count and time.monotonic() < quiet:
            time.sleep(0.01)
        with engine.lock:
            assert engine.correlator.parked_count == 0
            assert counts == {f"F{i}": 1 for i in range(n)}
            c = engine.correlator.counters
            assert c["parked"] == n == c["retry_resolved"] + c["retry_expired"]
            assert c["retry_resolved"] > 0 and c["retry_expired"] > 0
    finally:
        sys.setswitchinterval(switch)
        engine.shutdown()
        sched.stop()
