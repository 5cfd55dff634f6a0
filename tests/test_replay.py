"""Replay run inline from one feeder tick: the same order and logs as
scheduling every recorded input up front, run until no timer is left."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iface_ev, make_sock, sock_ev
from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.engine import (Engine, EngineOutputs, decode_inputs, replay,
                             run_simulation, schedule_replay)
from flowlink.flowlog import FlowRecord, LogFormatError, read_enriched, read_inputs
from flowlink.model import Action, Proto
from flowlink.runtime import EventLoop

RETRY = 2.0
TOPIC = "node/engine"


def config() -> EngineConfig:
    return EngineConfig(verification_interval=30.0, probe_interval=30.0,
                        retry_window=RETRY, grace_period=2.0)


def eager_schedule(engine: Engine, entries) -> int:
    """Replay's scheduler before it streamed, kept as the reference: every
    entry decoded and pushed onto the loop up front."""
    n = 0
    for t, method, args in decode_inputs(entries):
        if method is None:
            engine.counters["replay_unknown_kind"] += 1
        else:
            engine.scheduler.call_at(t, getattr(engine, method), *args)
            n += 1
    return n


# A host whose agent reconnects at once: the engine call that takes it
# down arms its return as a timer at the same instant.
FLAPPING = "h2"


def replay_steps(entries, schedule=schedule_replay,
                 cuts=()) -> tuple[list[tuple[str, str]], int]:
    """conn.log and alerts.log after the loop has run to each of `cuts` in
    turn, then to `retry_window + 1` past the last entry and shut down; and
    the count `schedule` returned."""
    entries = list(entries)
    loop = EventLoop()
    out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
    engine = Engine(config(), loop, outputs=out)
    down = engine.deregister_host

    def deregister_host(host):
        down(host)
        if host == FLAPPING:
            loop.call_at(loop.now(), engine.register_host, host)
    engine.deregister_host = deregister_host
    engine.start()
    n = schedule(engine, entries)
    logs = []
    for until in cuts:
        loop.run_until(until)
        logs.append((out.flows.getvalue(), out.alerts.getvalue()))
    loop.run_until(max((e["t"] for e in entries), default=0.0) + RETRY + 1.0)
    engine.shutdown()
    logs.append((out.flows.getvalue(), out.alerts.getvalue()))
    return logs, n


def replay_logs(entries, schedule=schedule_replay) -> tuple[str, str, int]:
    """conn.log and alerts.log of replaying `entries` to `retry_window + 1`
    past the last one, and the count `schedule` returned."""
    logs, n = replay_steps(entries, schedule)
    return (*logs[-1], n)


def statuses(flows_log: str) -> dict[str, str]:
    return {row["uid"]: row["status"]
            for row in read_enriched(iter(flows_log.splitlines()))}


def entry(t, kind, data, topic=""):
    e = {"t": t, "kind": kind, "data": data}
    if topic:
        e["topic"] = topic
    return e


def flow_entry(t, uid, port, host_addr="10.0.0.1"):
    return entry(t, "flow", FlowRecord(
        ts=t, uid=uid, orig_h=host_addr, orig_p=port, resp_h="203.0.113.9",
        resp_p=443, proto=Proto.TCP).to_dict())


def sock_entry(t, host, pid, port, action=Action.ADDED, host_addr="10.0.0.1"):
    sock = make_sock(host=host, pid=pid, local=(host_addr, port),
                     remote=("203.0.113.9", 443), first_seen=t)
    return entry(t, "host_event", sock_ev(sock, action, t).to_dict(), TOPIC)


def iface_entry(t, host, addr, action=Action.ADDED):
    return entry(t, "host_event", iface_ev(host, addr, action, t).to_dict(), TOPIC)


def test_socket_recorded_at_the_retry_deadline_still_attributes():
    """A flow parks at t = 1 and its socket is recorded at exactly
    t + retry_window.  Recorded inputs sort before the deadline timer the
    engine armed at run time."""
    entries = [entry(0.0, "host_up", {"host": "h1"}),
               iface_entry(0.0, "h1", "10.0.0.1"),
               flow_entry(1.0, "F1", 4000),
               sock_entry(1.0 + RETRY, "h1", 100, 4000)]
    flows, _, _ = replay_logs(entries)
    assert statuses(flows) == {"F1": "unique"}
    assert flows == replay_logs(entries, eager_schedule)[0]

    # a feeder whose push takes a run-time number sorts after the deadline
    def naive(engine, entries):
        loop = engine.scheduler
        head = list(decode_inputs(entries[:3]))
        for t, method, args in head:
            loop.call_at(t, getattr(engine, method), *args)
        (t, method, args), = decode_inputs(entries[3:])
        loop.call_at(1.0, loop.call_at, t, getattr(engine, method), *args)
        return 4
    assert statuses(replay_logs(entries, naive)[0]) == {"F1": "unattributed"}


def replay_to_idle(entries) -> tuple[str, str, float, EventLoop]:
    """conn.log and alerts.log of `replay` from a clock that starts at the
    first entry, as `flowlink replay` runs it; the time it returned; and
    its loop."""
    loop = EventLoop(entries[0]["t"])
    out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
    engine = Engine(config(), loop, outputs=out)
    engine.start()
    n, until = replay(engine, entries)
    assert n == len(entries)
    engine.shutdown()
    return out.flows.getvalue(), out.alerts.getvalue(), until, loop


def h1_with_socket(t: float) -> list[dict]:
    return [entry(t, "host_up", {"host": "h1"}),
            iface_entry(t, "h1", "10.0.0.1"),
            sock_entry(t, "h1", 100, 4000)]


def test_expiry_does_not_depend_on_when_the_recording_starts():
    """h1 goes down at 25 s, so its state ends at 27 s; a flow from it at
    27.1 s finds no host however far before it the recording starts."""
    tail = h1_with_socket(20.0) + [entry(25.0, "host_down", {"host": "h1"}),
                                   flow_entry(27.1, "F1", 4000)]
    logs = [replay_to_idle([entry(t0, "host_up", {"host": "h9"})] + tail)[0]
            for t0 in (0.0, 10.2)]
    assert statuses(logs[0]) == {"F1": "unattributed"}
    assert logs[0] == logs[1]


@pytest.mark.parametrize("last, ends_at", [
    (flow_entry(3.0, "F-parked", 4001), 3.0 + RETRY),
    (entry(3.0, "host_down", {"host": "h1"}), 3.0 + config().grace_period),
], ids=["parked_flow", "host_down"])
def test_replay_runs_until_no_timer_is_left(last, ends_at):
    """A recording that ends with a parked flow, or with a host going down:
    `replay` returns at the last timer the engine armed, leaves none, and
    logs what running a fixed time past the last entry logs."""
    entries = h1_with_socket(0.0) + [flow_entry(1.0, "F1", 4000),
                                     flow_entry(2.0, "F2", 4002), last]
    flows, alerts, until, loop = replay_to_idle(entries)
    assert until == ends_at and not loop._heap
    assert (flows, alerts) == replay_logs(entries)[:2]
    uids = {e["data"]["uid"] for e in entries if e["kind"] == "flow"}
    assert set(statuses(flows)) == uids


def test_entries_and_ticks_sort_between_start_and_run_time_timers():
    loop = EventLoop()
    engine = Engine(config(), loop)
    fired = []
    loop.call_at(1.0, fired.append, "before")
    schedule_replay(engine, [entry(1.0, "host_up", {"host": "h1"}),
                             entry(1.0, "host_down", {"host": "h1"})])
    engine.register_host = lambda host: fired.append(f"up {host}")
    engine.deregister_host = lambda host: fired.append(f"down {host}")
    loop.call_at(1.0, fired.append, "after")
    loop.run_until(2.0)
    assert fired == ["before", "up h1", "down h1", "after"]


def test_entries_whose_time_goes_backwards_run_in_file_order():
    loop = EventLoop()
    engine = Engine(config(), loop)
    fired = []
    engine.register_host = lambda host: fired.append((loop.now(), host))
    schedule_replay(engine, [entry(t, "host_up", {"host": h}) for t, h in
                             ((0.0, "a"), (3.0, "b"), (1.0, "c"), (3.0, "d"))])
    loop.run_until(5.0)
    assert fired == [(0.0, "a"), (3.0, "b"), (3.0, "c"), (3.0, "d")]


def test_a_malformed_entry_raises_from_the_run_not_the_call():
    loop = EventLoop()
    engine = Engine(config(), loop)
    n = schedule_replay(engine, [entry(0.5, "host_up", {"host": "h1"}),
                                 entry(4.0, "flow", {"ts": "abc"}),
                                 entry(5.0, "mystery", {}),
                                 entry(6.0, ["flow"], {})])
    assert n == 2
    with pytest.raises(LogFormatError, match="inputs entry 2: ValueError"):
        loop.run_until(10.0)


def test_unknown_kinds_are_counted_when_reached():
    loop = EventLoop()
    engine = Engine(config(), loop)
    assert schedule_replay(engine, [entry(1.0, "mystery", {}),
                                    entry(2.0, "host_up", {"host": "h1"})]) == 1
    loop.run_until(3.0)
    assert engine.counters["replay_unknown_kind"] == 1


def test_list_and_iterator_of_a_recording_replay_alike():
    w = build_workload(WorkloadSpec(
        hosts=3, duration=30.0, event_rate=2.0, flow_coupling=0.7, seed=5,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 8.0),
                   ScenarioHook(ScenarioKind.SSH_CHAIN, 10.0)]))
    recorded = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO(),
                             inputs=io.StringIO())
    run_simulation(config(), w, outputs=recorded)
    lines = recorded.inputs.getvalue().splitlines()

    def replay(entries):
        loop = EventLoop()
        out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
        engine = Engine(config(), loop, outputs=out)
        engine.start()
        n = schedule_replay(engine, entries)
        loop.run_until(w.spec.duration + 10.0)
        engine.shutdown()
        return out.flows.getvalue(), out.alerts.getvalue(), n

    from_list = replay(list(read_inputs(iter(lines))))
    from_iter = replay(read_inputs(iter(lines)))
    assert from_list == from_iter
    assert len(from_list[1].splitlines()) > 1
    assert from_list[:2] == (recorded.flows.getvalue(), recorded.alerts.getvalue())


# --- differential: the feeder against the eager reference ----------------------------

HOSTS = {"h1": "10.0.0.1", "h2": "10.0.0.2"}
GRID = 0.25            # coarse times force ties between entries and deadlines
RETRY_STEPS = int(RETRY / GRID)

host_names = st.sampled_from(sorted(HOSTS))
ports = st.integers(4000, 4003)
events = st.one_of(
    st.tuples(st.just("host_up"), host_names),
    st.tuples(st.just("host_down"), host_names),
    st.tuples(st.just("iface"), host_names, st.sampled_from(list(Action))),
    st.tuples(st.just("sock"), host_names, ports, st.sampled_from(list(Action))),
    st.tuples(st.just("flow"), host_names, ports),
    # a flow whose socket follows it, at its retry deadline or before
    st.tuples(st.just("flow+sock"), host_names, ports,
              st.sampled_from([1, RETRY_STEPS // 2, RETRY_STEPS])),
)


def build_recording(steps: list[tuple[int, tuple]]) -> list[dict]:
    """Both hosts up with their address at t = 0, then `steps`: each a
    time in grid steps and an event, in time order."""
    timed = [(0, ("host_up", h)) for h in HOSTS]
    timed += [(0, ("iface", h, Action.ADDED)) for h in HOSTS]
    for step, ev in steps:
        if ev[0] == "flow+sock":
            timed.append((step, ("flow",) + ev[1:3]))
            timed.append((step + ev[3], ("sock", ev[1], ev[2], Action.ADDED)))
        else:
            timed.append((step, ev))
    entries = []
    for i, (step, ev) in enumerate(sorted(timed, key=lambda s: s[0])):
        t = step * GRID
        kind, host = ev[0], ev[1]
        if kind in ("host_up", "host_down"):
            entries.append(entry(t, kind, {"host": host}))
        elif kind == "iface":
            entries.append(iface_entry(t, host, HOSTS[host], ev[2]))
        elif kind == "sock":
            entries.append(sock_entry(t, host, 100 + ev[2], ev[2], ev[3],
                                      HOSTS[host]))
        else:
            entries.append(flow_entry(t, f"F{i}", ev[2], HOSTS[host]))
    return entries


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 32), events), max_size=30), st.data())
def test_feeder_replays_like_scheduling_everything_up_front(steps, data):
    """The loop runs in drawn `run_until` steps, and the logs must agree
    after each.  A step ends at an entry's time, halfway to the next grid
    time, or at the retry deadline of a flow parked at that entry."""
    entries = build_recording(steps)
    times = {e["t"] for e in entries}
    cuts = sorted(data.draw(st.lists(st.sampled_from(sorted(
        times | {t + GRID / 2 for t in times} | {t + RETRY for t in times})),
        max_size=6)))
    assert (replay_steps(entries, cuts=cuts)
            == replay_steps(entries, eager_schedule, cuts=cuts))


def test_the_feeder_arms_ticks_not_a_timer_per_entry():
    """802 entries over 4 s, each flow attributed at once: the loop arms
    only feeder ticks and the engine's own timers."""
    class CountingLoop(EventLoop):
        calls = 0

        def call_at(self, when, fn, *args):
            self.calls += 1
            return super().call_at(when, fn, *args)

    entries = [entry(0.0, "host_up", {"host": "h1"}),
               iface_entry(0.0, "h1", "10.0.0.1")]
    for i in range(400):
        entries += [sock_entry(i * 0.01, "h1", 100 + i, 5000 + i),
                    flow_entry(i * 0.01, f"F{i}", 5000 + i)]
    loop = CountingLoop()
    out = EngineOutputs(flows=io.StringIO())
    engine = Engine(config(), loop, outputs=out)
    engine.start()
    assert schedule_replay(engine, entries) == len(entries)
    loop.run_until(10.0)
    engine.shutdown()
    assert set(statuses(out.flows.getvalue()).values()) == {"unique"}
    assert loop.calls < len(entries) / 20
