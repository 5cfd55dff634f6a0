"""End-to-end engine behaviour over the simulated fleet."""

import io
import threading

from conftest import iface_ev, make_proc, make_sock, proc_ev, sock_ev
from flowlink import correlate
from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.detect import ATTACHMENT_EXECUTED, STEPPING_STONE
from flowlink.engine import Engine, EngineOutputs, run_simulation, schedule_replay
from flowlink.flowlog import FlowRecord, read_alerts, read_enriched, read_inputs
from flowlink.model import FlowTuple, Proto
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


def test_unrelated_ssh_sessions_do_not_alert():
    w = build_workload(spec(
        hosts=3, duration=60.0, event_rate=1.0,
        scenarios=[ScenarioHook(ScenarioKind.SSH_UNRELATED, 15.0)]))
    engine = run_simulation(config(), w)
    assert [a for a in engine.alerts if a.kind == STEPPING_STONE] == []
    assert engine.stepping.counters["descendant_queries"] == 1


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


def test_tls_keys_counted_never_parsed():
    w = build_workload(spec(
        hosts=1, duration=20.0, event_rate=0.0,
        scenarios=[ScenarioHook(ScenarioKind.TLS_KEYS, 5.0)]))
    engine = run_simulation(config(), w)
    assert engine.store.counters["tls_keys_received"] == 1


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


def test_metrics_snapshot_shape():
    w = build_workload(spec(flow_coupling=1.0))
    engine = run_simulation(config(dns_servers=("203.0.113.53",)), w)
    snap = engine.metrics_snapshot()
    assert set(snap["counters"]) == {"engine", "correlator", "store",
                                     "overlay", "attachments", "stepping"}
    assert snap["per_proto"]["tcp"]["attribution_rate"] == 1.0
    assert snap["hosts"]["connected"] == ["h000", "h001"]
    assert snap["parked"] == 0
    dump = engine.state_dump()
    assert dump["hosts"] == ["h000", "h001"]
    assert any(r.get("_kind") == "process" for r in dump["records"])


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
