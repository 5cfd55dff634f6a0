"""Pinned output digests: one small simulated run must keep writing the same
`conn.log`, `alerts.log` and `inputs.log` bytes from one change to the next.
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

from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.engine import EngineOutputs, run_simulation
from flowlink.flowlog import read_alerts, read_inputs

CONN_LOG_SHA256 = "792ced82dcbe17e327267eec8219282c427dacf00dcb66549c23f7e88aa4068f"
ALERTS_LOG_SHA256 = "340826655493001f364cce38de7f73db65152ca96d693493e0f1c3f608d6a72a"
INPUTS_LOG_SHA256 = "126219d779e28e82f1503cf28391eb9e8a96805222567d8699563f362a598057"


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
