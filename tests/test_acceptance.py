"""Shipping gate: nine binary criteria, one test per criterion.

Every test funnels into `_report`, which prints a single
``criterion N (<name>): PASS|FAIL`` line (visible under ``pytest -s``) and
then asserts.  Thresholds are pinned in the constants below; loosening one is
a release decision, not a test fix.

The oracles come from the per-module suites so there is exactly one copy of
each: the brute-force candidate matcher from the correlation tests and the
schedule recomputation from the overlay tests.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time

from conftest import iface_ev, make_proc, make_sock, proc_ev, sock_ev
from test_correlate import oracle_attribute
from test_overlay import AgentStub, interest, mesh, oracle_schedule, run_random_scenario

from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.bench import run_memory_scaling, run_throughput
from flowlink.config import EngineConfig
from flowlink.correlate import UNIQUE, VAGUE, AddressIndex, attribute
from flowlink.detect import ATTACHMENT_EXECUTED, STEPPING_STONE
from flowlink.engine import Engine, EngineOutputs, run_simulation, schedule_replay
from flowlink.flowlog import read_enriched, read_inputs
from flowlink.model import Direction, FlowTuple, Proto, Side
from flowlink.runtime import EventLoop
from flowlink.state import HostStateStore

# --- pinned thresholds ---------------------------------------------------------------

ORACLE_FLOWS = 1_000            # criterion 1: random flows checked per run
ORACLE_HOSTS = 20               #              fleet size, fully-known endpoints
ORACLE_BUDGET_S = 10.0          #              wall-clock budget for the sweep

UDP_MIN_FLOWS = 2_000           # criterion 3: sample size floor
UDP_SPAN_P = 0.35               #              configured probe-spanning fraction
UDP_TOLERANCE = 0.03            #              |measured - configured| bound

VERIFY_INTERVAL = 30.0          # criterion 5: state verification period

OVERLAY_SCENARIOS = 50          # criterion 6: scripted random scenarios

BENCH_HOSTS = 870               # criterion 8: fleet size under load
BENCH_RATE = 4.0                #              events per second per host
THROUGHPUT_FLOOR = 3_480.0      #              total events/s the engine must sustain
BENCH_SECONDS_DEFAULT = "300"   #              five minutes unless overridden via env
MEMORY_HOST_COUNTS = (100, 200, 400)
MEMORY_TOLERANCE = 0.20         #              max per-step deviation from fitted slope


def _report(num: int, name: str, problems: list[str], detail: str = "") -> None:
    ok = not problems
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    extra = "; ".join(problems) if problems else detail
    if extra:
        line += f" -- {extra}"
    print(line)
    assert ok, line


def _check(problems: list[str], ok: bool, msg: str) -> None:
    if not ok:
        problems.append(msg)


# --- shared builders -----------------------------------------------------------------

class _Clock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def _store(hosts=()):
    store = HostStateStore(_Clock())
    index = AddressIndex()
    store.add_listener(index.apply_change)
    for h in hosts:
        store.handle_reconnect(h)
    return store, index


def _config(**kw) -> EngineConfig:
    base = dict(verification_interval=VERIFY_INTERVAL, probe_interval=30.0,
                retry_window=2.0)
    base.update(kw)
    return EngineConfig(**base)


def _outputs() -> EngineOutputs:
    return EngineOutputs(flows=io.StringIO(), alerts=io.StringIO(),
                         inputs=io.StringIO())


def _alert_key(alert) -> str:
    return json.dumps({"kind": alert.kind, "ts": alert.ts, "host": alert.host,
                       "summary": alert.summary, "evidence": alert.evidence},
                      sort_keys=True)


def _alerts_match_truth(alerts, expected: list[dict]) -> bool:
    """Every expected alert matched by exactly one emitted alert whose evidence
    carries the expected values, and no emitted alert left over."""
    if len(alerts) != len(expected):
        return False
    unmatched = list(alerts)
    for want in expected:
        fields = {k: v for k, v in want.items() if k != "kind"}
        hit = next((a for a in unmatched
                    if a.kind == want["kind"]
                    and all(a.evidence.get(k) == v for k, v in fields.items())),
                   None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


# --- criterion 1: candidate sets equal the brute-force oracle -------------------------

def test_criterion_1_oracle_equivalence():
    rng = random.Random(4251)
    store, idx = _store()
    addrs = [f"10.2.0.{i}" for i in range(1, 29)]
    ports = [53, 80, 443, 4000, 5000, 8080]
    hosts = [f"h{i:02d}" for i in range(ORACLE_HOSTS)]
    for h in hosts:
        store.handle_reconnect(h)
        host_addrs = rng.sample(addrs, rng.randint(1, 2))
        for a in host_addrs:
            store.apply_event(iface_ev(h, a))
        for pid in rng.sample(range(100, 160), rng.randint(2, 5)):
            store.apply_event(proc_ev(make_proc(
                host=h, pid=pid, binary=rng.choice(["/bin/a", "/bin/b", "/bin/c"]),
                uid=rng.choice([0, 1000]))))
            for fd in range(rng.randint(0, 3)):
                # fully-known endpoints: both sides concrete, never wildcarded
                store.apply_event(sock_ev(make_sock(
                    host=h, pid=pid, fd=3 + fd,
                    proto=rng.choice([Proto.TCP, Proto.UDP]),
                    direction=rng.choice([Direction.OUTGOING, Direction.INCOMING]),
                    local=(rng.choice(host_addrs), rng.choice(ports)),
                    remote=(rng.choice(addrs), rng.choice(ports)),
                    first_seen=rng.uniform(0.5, 5.0))))
    views = {h: store.view(h) for h in hosts}
    index_map: dict[str, set[str]] = {}
    for h in hosts:
        for a in views[h].addresses:
            index_map.setdefault(a, set()).add(h)

    t0 = time.perf_counter()
    mismatches = 0
    first = None
    for _ in range(ORACLE_FLOWS):
        f = FlowTuple(rng.choice(addrs), rng.choice(ports),
                      rng.choice(addrs), rng.choice(ports),
                      rng.choice([Proto.TCP, Proto.UDP, Proto.ICMP]))
        res = attribute(f, 1.0, 6.0, idx, store)
        for side in Side:
            got = {(c.host, c.pid, c.binary_path, c.uid, c.quality)
                   for c in res.side_candidates(side)}
            if got != oracle_attribute(f, side, views, index_map):
                mismatches += 1
                first = first or (f, side)
    elapsed = time.perf_counter() - t0

    problems: list[str] = []
    _check(problems, mismatches == 0,
           f"{mismatches} candidate-set mismatches (first: {first})")
    _check(problems, elapsed < ORACLE_BUDGET_S,
           f"sweep took {elapsed:.2f}s, budget {ORACLE_BUDGET_S}s")
    _report(1, "oracle equivalence", problems,
            f"{ORACLE_FLOWS} flows x 2 sides over {ORACLE_HOSTS} hosts, "
            f"0 mismatches, {elapsed:.2f}s")


# --- criterion 2: full visibility => 100% TCP attribution ----------------------------

def test_criterion_2_full_visibility_attribution():
    spec = WorkloadSpec(hosts=4, duration=60.0, event_rate=0.0, seed=7,
                        full_visibility=True)
    w = build_workload(spec)
    out = _outputs()
    engine = run_simulation(_config(), w, outputs=out)
    tcp = engine.metrics.per_proto[Proto.TCP]
    rows = list(read_enriched(iter(out.flows.getvalue().splitlines())))

    problems: list[str] = []
    _check(problems, tcp.flows == len(w.flows) == spec.hosts * spec.flows_per_host,
           f"expected {spec.hosts * spec.flows_per_host} TCP flows, saw {tcp.flows}")
    _check(problems, tcp.rate() == 1.0,
           f"attribution rate {tcp.rate():.4f} != 1.0")
    _check(problems, tcp.process_uniqueness() == 1.0,
           f"process uniqueness {tcp.process_uniqueness():.4f} != 1.0")
    wrong = [r["uid"] for r in rows
             if r["status"] != "unique"
             or r["orig_pids"] != str(w.truth.flows[r["uid"]].pid)]
    _check(problems, not wrong, f"{len(wrong)} rows disagree with ground truth")
    _report(2, "full-visibility attribution", problems,
            f"{tcp.flows} TCP flows, rate 1.000, process uniqueness 1.000")


# --- criterion 3: UDP attribution equals the probe-spanning fraction ------------------

def test_criterion_3_udp_completeness_gap():
    spec = WorkloadSpec(hosts=40, duration=90.0, event_rate=0.0, seed=11,
                        udp_sockets_per_host=50, udp_span_probability=UDP_SPAN_P)
    w = build_workload(spec)
    engine = run_simulation(_config(), w)
    udp = engine.metrics.per_proto[Proto.UDP]
    rate = udp.attributed / udp.flows if udp.flows else 0.0
    spanning = sum(1 for t in w.truth.flows.values() if t.spans_probe) / len(w.truth.flows)

    problems: list[str] = []
    _check(problems, udp.flows >= UDP_MIN_FLOWS,
           f"only {udp.flows} UDP flows, need >= {UDP_MIN_FLOWS}")
    _check(problems, abs(rate - UDP_SPAN_P) <= UDP_TOLERANCE,
           f"rate {rate:.4f} not within {UDP_TOLERANCE} of {UDP_SPAN_P}")
    _report(3, "UDP completeness gap", problems,
            f"{udp.flows} flows, measured rate {rate:.4f} vs configured "
            f"{UDP_SPAN_P} (generated spanning fraction {spanning:.4f})")


# --- criterion 4: duplicate destination is vague; host separation keeps it unique -----

def test_criterion_4_duplicate_destination_vague_vs_two_host():
    problems: list[str] = []
    src, other_src, dest = "10.0.0.1", "10.0.0.2", "198.51.100.7"

    # one host, three processes each talking to the same remote ip:port, local
    # endpoints unreported -> one answer naming all three, flagged vague
    store, idx = _store(hosts=("h1",))
    store.apply_event(iface_ev("h1", src))
    for pid in (101, 102, 103):
        store.apply_event(proc_ev(make_proc(pid=pid, binary=f"/bin/p{pid}")))
        store.apply_event(sock_ev(make_sock(pid=pid, fd=5, remote=(dest, 443))))
    res = attribute(FlowTuple(src, 4100, dest, 443, Proto.TCP), 1.0, 2.0, idx, store)
    _check(problems, res.side_status(Side.ORIGINATOR) == VAGUE,
           f"same-host status {res.side_status(Side.ORIGINATOR)!r} != vague")
    _check(problems, len(res.originator) == 3,
           f"same-host candidate count {len(res.originator)} != 3")
    _check(problems, {c.pid for c in res.originator} == {101, 102, 103},
           "same-host candidates miss a scripted pid")

    # the same duplicate destination split across two hosts: source-address
    # resolution considers only the matching host, so the answer stays unique
    store2, idx2 = _store(hosts=("h1", "h2"))
    store2.apply_event(iface_ev("h1", src))
    store2.apply_event(iface_ev("h2", other_src))
    store2.apply_event(proc_ev(make_proc(host="h1", pid=101)))
    store2.apply_event(sock_ev(make_sock(host="h1", pid=101, fd=5, remote=(dest, 443))))
    store2.apply_event(proc_ev(make_proc(host="h2", pid=201)))
    store2.apply_event(sock_ev(make_sock(host="h2", pid=201, fd=5, remote=(dest, 443))))
    res2 = attribute(FlowTuple(src, 4100, dest, 443, Proto.TCP), 1.0, 2.0, idx2, store2)
    _check(problems, res2.side_status(Side.ORIGINATOR) == UNIQUE,
           f"two-host status {res2.side_status(Side.ORIGINATOR)!r} != unique")
    _check(problems, [(c.host, c.pid) for c in res2.originator] == [("h1", 101)],
           f"two-host candidates {[(c.host, c.pid) for c in res2.originator]}")
    _report(4, "vague correlation behaviour", problems,
            "same-host duplicate destination vague with 3 candidates; "
            "two-host variant unique")


# --- criterion 5: crashed process purged within one verification interval -------------

def test_criterion_5_crash_purged_within_one_interval():
    crash_at = 10.0
    spec = WorkloadSpec(hosts=1, duration=70.0, event_rate=0.0, seed=17,
                        scenarios=[ScenarioHook(ScenarioKind.PROCESS_CRASH, crash_at)])
    w = build_workload(spec)
    crash_t, host, pid = w.truth.crashes[0]

    loop = EventLoop()
    engine = Engine(_config(), loop)
    from flowlink.agents import FleetSimulator
    fleet = FleetSimulator(w, loop, engine.node, flow_sink=engine.submit_flow,
                           register_host=engine.register_host,
                           deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()

    problems: list[str] = []
    loop.run_until(crash_t + 1.0)
    _check(problems, pid in engine.store.view(host).processes,
           "stale process missing right after the silent crash")
    loop.run_until(VERIFY_INTERVAL - 0.1)
    before = pid in engine.store.view(host).processes
    _check(problems, before, "stale process already gone before verification ran")
    loop.run_until(VERIFY_INTERVAL + 1.0)
    after = pid in engine.store.view(host).processes
    _check(problems, not after, "stale process survived the verification pass")
    _check(problems, all(k[0] != pid for k in engine.store.view(host).sockets),
           "stale sockets survived the verification pass")
    purged_by = VERIFY_INTERVAL + 1.0
    _check(problems, purged_by - crash_t <= VERIFY_INTERVAL,
           f"purge landed {purged_by - crash_t:.1f}s after the crash")
    engine.shutdown()
    _report(5, "verification purge", problems,
            f"crash at t={crash_t:.0f}s: present at t={VERIFY_INTERVAL - 0.1:.1f}s, "
            f"purged by t={purged_by:.1f}s (interval {VERIFY_INTERVAL:.0f}s)")


# --- criterion 6: overlay schedules equal the oracle across scripted scenarios --------

def test_criterion_6_overlay_schedule_correctness():
    problems: list[str] = []
    checked = 0
    for seed in range(OVERLAY_SCENARIOS):
        proxies, stubs, homes = run_random_scenario(seed)
        for proxy in proxies[1:]:
            _check(problems,
                   proxy.stored_interests() == proxies[0].stored_interests(),
                   f"seed {seed}: proxies disagree on stored interests")
        for name, stub in stubs.items():
            proxy = homes[name]
            expected = oracle_schedule(proxy.stored_interests(),
                                       proxy.agent_groups(name))
            _check(problems, proxy.schedule_for(name).entries == expected,
                   f"seed {seed}: proxy schedule for {name} != oracle")
            _check(problems, stub.schedule() == expected,
                   f"seed {seed}: delta-built schedule for {name} != oracle")
            keys = [e.key for e in stub.schedule()]
            _check(problems, len(keys) == len(set(keys)),
                   f"seed {seed}: duplicate schedule entries for {name}")
            checked += 1
        if problems:
            break

    # late joiner: interests published before the agent exists still arrive
    loop, bus, (auth,), (proxy,) = mesh()
    auth.publish_interest(interest("early", period=30.0))
    auth.publish_interest(interest("once", one_time=True))
    loop.run_until_idle()
    late = AgentStub("late")
    proxy.connect_agent("late", set(), late.deliver)
    loop.run_until_idle()
    expected = oracle_schedule(proxy.stored_interests(), proxy.agent_groups("late"))
    _check(problems, late.schedule() == expected and len(expected) == 2,
           "late joiner did not receive the stored interests")
    _report(6, "overlay schedule correctness", problems,
            f"{OVERLAY_SCENARIOS} scenarios, {checked} agent schedules == oracle, "
            "late joiner covered")


# --- criterion 7: detector alert sets equal ground truth ------------------------------

def test_criterion_7_detector_correctness():
    problems: list[str] = []

    def run_twice(spec: WorkloadSpec):
        runs = [run_simulation(_config(), build_workload(spec)) for _ in range(2)]
        keys = [[_alert_key(a) for a in e.alerts] for e in runs]
        _check(problems, keys[0] == keys[1],
               f"alerts differ between identical runs ({spec.scenarios[0].kind})")
        return runs[0]

    exec_spec = WorkloadSpec(hosts=1, duration=60.0, event_rate=1.0, seed=17,
                             scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 20.0)])
    engine = run_twice(exec_spec)
    truth = build_workload(exec_spec).truth.expected_alerts
    got = [a for a in engine.alerts if a.kind == ATTACHMENT_EXECUTED]
    _check(problems, len(truth) == 1 and _alerts_match_truth(got, truth),
           f"attachment-exec alerts {len(got)} != ground truth {len(truth)}")

    chain_spec = WorkloadSpec(hosts=3, duration=60.0, event_rate=1.0, seed=17,
                              scenarios=[ScenarioHook(ScenarioKind.SSH_CHAIN, 15.0)])
    engine = run_twice(chain_spec)
    truth = build_workload(chain_spec).truth.expected_alerts
    got = [a for a in engine.alerts if a.kind == STEPPING_STONE]
    _check(problems, len(truth) == 1 and _alerts_match_truth(got, truth),
           f"ssh-chain alerts {len(got)} != ground truth {len(truth)}")

    noexec = WorkloadSpec(hosts=1, duration=60.0, event_rate=1.0, seed=17,
                          scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_NOEXEC, 20.0)])
    engine = run_simulation(_config(), build_workload(noexec))
    _check(problems,
           not [a for a in engine.alerts if a.kind == ATTACHMENT_EXECUTED],
           "download without execution raised an alert")

    unrelated = WorkloadSpec(hosts=3, duration=60.0, event_rate=1.0, seed=17,
                             scenarios=[ScenarioHook(ScenarioKind.SSH_UNRELATED, 15.0)])
    engine = run_simulation(_config(), build_workload(unrelated))
    _check(problems,
           not [a for a in engine.alerts if a.kind == STEPPING_STONE],
           "unrelated ssh sessions raised an alert")
    _report(7, "detector correctness", problems,
            "attachment-exec and ssh-chain match truth exactly; both negative "
            "controls silent; alert streams identical across repeat runs")


# --- criterion 8: sustained throughput floor and linear memory ------------------------

def test_criterion_8_throughput_floor_and_memory_linearity():
    duration = float(os.environ.get("FLOWLINK_BENCH_SECONDS", BENCH_SECONDS_DEFAULT))
    rep = run_throughput(BENCH_HOSTS, BENCH_RATE, duration)
    mem = run_memory_scaling(MEMORY_HOST_COUNTS)

    problems: list[str] = []
    _check(problems, rep.events_per_sec >= THROUGHPUT_FLOOR,
           f"sustained {rep.events_per_sec:.0f} ev/s < floor {THROUGHPUT_FLOOR:.0f}")
    _check(problems, rep.events_processed == rep.events_in,
           f"processed {rep.events_processed} of {rep.events_in} events")
    _check(problems, rep.queue_peak < rep.queue_capacity,
           f"queue saturated: peak {rep.queue_peak} of {rep.queue_capacity}")
    _check(problems, rep.attrib_latency_p99 < EngineConfig().retry_window,
           f"attribution p99 {rep.attrib_latency_p99:.3f}s >= retry window")
    _check(problems, rep.flows_attributed == rep.flows_in,
           f"attributed {rep.flows_attributed} of {rep.flows_in} flows")
    _check(problems,
           mem.slope_bytes_per_host > 0 and math.isfinite(mem.slope_bytes_per_host),
           f"degenerate memory slope {mem.slope_bytes_per_host}")
    _check(problems, mem.max_slope_deviation <= MEMORY_TOLERANCE,
           f"memory deviation {mem.max_slope_deviation:.1%} > "
           f"{MEMORY_TOLERANCE:.0%} of fitted slope")
    _report(8, "throughput floor and memory linearity", problems,
            f"{rep.events_per_sec:.0f} ev/s over {rep.elapsed:.0f}s "
            f"({BENCH_HOSTS} hosts x {BENCH_RATE:.0f} ev/s), attribution p99 "
            f"{rep.attrib_latency_p99 * 1000:.2f}ms, queue peak {rep.queue_peak}/"
            f"{rep.queue_capacity}, memory {mem.slope_bytes_per_host / 1024:.1f}"
            f"KiB/host (max deviation {mem.max_slope_deviation:.1%})")


# --- criterion 9: replay reproduces the logs byte for byte ----------------------------

def test_criterion_9_replay_determinism():
    problems: list[str] = []
    for seed in (31, 77):
        spec = WorkloadSpec(
            hosts=3, duration=40.0, event_rate=2.0, flow_coupling=0.7, seed=seed,
            scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 12.0),
                       ScenarioHook(ScenarioKind.PROCESS_CRASH, 8.0, host="h001"),
                       ScenarioHook(ScenarioKind.SSH_CHAIN, 15.0)])
        out1 = _outputs()
        engine1 = run_simulation(_config(), build_workload(spec), outputs=out1)
        recorded = out1.inputs.getvalue()
        _check(problems, bool(recorded), f"seed {seed}: nothing recorded")

        loop = EventLoop()
        out2 = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO())
        engine2 = Engine(_config(), loop, outputs=out2)
        engine2.start()
        n = schedule_replay(engine2, read_inputs(iter(recorded.splitlines())))
        _check(problems, n > 0, f"seed {seed}: empty replay schedule")
        loop.run_until(engine1.scheduler.now())
        engine2.shutdown()
        _check(problems, out2.flows.getvalue() == out1.flows.getvalue(),
               f"seed {seed}: enriched flow logs differ")
        _check(problems, out2.alerts.getvalue() == out1.alerts.getvalue(),
               f"seed {seed}: alert logs differ")
        _check(problems, bool(out1.alerts.getvalue().strip().splitlines()[1:]),
               f"seed {seed}: run produced no alerts to compare")
    _report(9, "replay determinism", problems,
            "two recorded runs replayed to byte-identical flow and alert logs")
