"""Pinned output digests: two small simulated runs must keep writing the
same `conn.log`, `alerts.log` and `inputs.log` bytes from one change to the
next.  The second is host churn: hosts go down, come back, go down again
while down, and stay down past their grace period.
The inputs recording holds every agent answer, batch id and tick time, so it
is where a change to schedule delivery or agent timing shows first.

Criterion 9 compares a live run with its replay under the same code, so it
cannot see drift that both share.  Change a digest only together with a
note on which lines changed and why.

Since the stepping-stone detector reads the engine's held process tree
instead of asking the relay host: `conn.log` is unchanged; in
`alerts.log` the `stepping_stone` alert's `ts` is its pairing time, 40.0,
not the time the host's answer arrived, 40.002; and `inputs.log` lost that
one `process_descendants` answer from h001, whose later `batch_id`s are
each one lower.
"""

from __future__ import annotations

import hashlib
import io
import random

from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.engine import EngineOutputs, run_simulation
from flowlink.flowlog import read_alerts, read_inputs

CONN_LOG_SHA256 = "792ced82dcbe17e327267eec8219282c427dacf00dcb66549c23f7e88aa4068f"
ALERTS_LOG_SHA256 = "340826655493001f364cce38de7f73db65152ca96d693493e0f1c3f608d6a72a"
INPUTS_LOG_SHA256 = "126219d779e28e82f1503cf28391eb9e8a96805222567d8699563f362a598057"

CHURN_CONN_LOG_SHA256 = "77ab3557513ef4860f7f46030e44c40715b2266da3d0a8131b2c58bee7b88fab"
CHURN_ALERTS_LOG_SHA256 = "d2cd00f98fc730c43b0de1a6932256a481039a2412fa2823a87513398a848381"
CHURN_INPUTS_LOG_SHA256 = "c46f534745474e9d4355a5d126c972968f026ea3006a80c66f22d709893d22ea"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_small_run_writes_the_pinned_logs():
    # Status-only UDP sockets park the flows they carry.  A socket no probe
    # sees expires its flow; of the two resolved flows, one resolves to its
    # process at a probe after h003 reconnects, the other as unattributed
    # when h003 goes down.  Both detector scenarios raise their alert.
    spec = WorkloadSpec(
        hosts=4, duration=30.0, event_rate=4.0, flow_coupling=0.7, seed=2,
        probe_interval=5.0, audit_local_missing=0.2, udp_sockets_per_host=4,
        scenarios=[ScenarioHook(ScenarioKind.ATTACHMENT_EXEC, 12.0, host="h000"),
                   ScenarioHook(ScenarioKind.SSH_CHAIN, 15.0),
                   ScenarioHook(ScenarioKind.HOST_RECONNECT, 8.0, host="h003",
                                params={"down": 3.0})])
    config = EngineConfig(verification_interval=10.0, probe_interval=5.0,
                          retry_window=2.0)
    out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO(),
                        inputs=io.StringIO())
    engine = run_simulation(config, build_workload(spec), outputs=out)

    counters = engine.correlator.counters
    assert counters["parked"] == 8
    assert counters["retry_resolved"] == 2
    assert counters["retry_expired"] == 6
    assert counters["emitted"] == engine.counters["flows_in"] == 92
    recorded = list(read_inputs(iter(out.inputs.getvalue().splitlines())))
    assert [e["data"]["host"] for e in recorded if e["kind"] == "host_down"] == ["h003"]
    alerts = list(read_alerts(iter(out.alerts.getvalue().splitlines())))
    assert sorted(a["kind"] for a in alerts) == ["attachment_executed", "stepping_stone"]

    assert _sha256(out.flows.getvalue()) == CONN_LOG_SHA256
    assert _sha256(out.alerts.getvalue()) == ALERTS_LOG_SHA256
    assert _sha256(out.inputs.getvalue()) == INPUTS_LOG_SHA256


def churn_spec() -> WorkloadSpec:
    """30 hosts for 150 s under 40 random reconnects.  On top of those, h010,
    h011 and h012 go down together for 20 s, longer than the 8 s grace
    period; h020 goes down again after its state expired (an unknown
    host), and h021 goes down again while down (a no-op)."""
    rng = random.Random(24)
    hooks = [ScenarioHook(ScenarioKind.HOST_RECONNECT, round(rng.uniform(5.0, 130.0), 3),
                          host=f"h{rng.randrange(30):03d}",
                          params={"down": round(rng.uniform(1.0, 15.0), 3)})
             for _ in range(40)]
    hooks += [ScenarioHook(ScenarioKind.HOST_RECONNECT, 60.0, host=h,
                           params={"down": 20.0}) for h in ("h010", "h011", "h012")]
    hooks += [ScenarioHook(ScenarioKind.HOST_RECONNECT, 30.0, host="h020",
                           params={"down": 20.0}),
              ScenarioHook(ScenarioKind.HOST_RECONNECT, 45.0, host="h020",
                           params={"down": 2.0}),
              ScenarioHook(ScenarioKind.HOST_RECONNECT, 30.0, host="h021",
                           params={"down": 10.0}),
              ScenarioHook(ScenarioKind.HOST_RECONNECT, 33.0, host="h021",
                           params={"down": 2.0})]
    return WorkloadSpec(hosts=30, duration=150.0, event_rate=2.0, flow_coupling=0.7,
                        seed=5, probe_interval=10.0, audit_local_missing=0.2,
                        udp_sockets_per_host=8, scenarios=hooks)


CHURN_CONFIG = EngineConfig(verification_interval=10.0, probe_interval=10.0,
                            retry_window=10.0, grace_period=8.0)


def test_host_churn_run_writes_the_pinned_logs():
    out = EngineOutputs(flows=io.StringIO(), alerts=io.StringIO(),
                        inputs=io.StringIO())
    engine = run_simulation(CHURN_CONFIG, build_workload(churn_spec()), outputs=out)

    store = engine.store.counters
    assert store["disconnect_noop"] > 0 and store["disconnect_unknown_host"] > 0
    assert engine.counters["flows_in"] == engine.correlator.counters["emitted"]

    assert _sha256(out.flows.getvalue()) == CHURN_CONN_LOG_SHA256
    assert _sha256(out.alerts.getvalue()) == CHURN_ALERTS_LOG_SHA256
    assert _sha256(out.inputs.getvalue()) == CHURN_INPUTS_LOG_SHA256
