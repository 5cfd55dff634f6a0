"""Pinned output digests: one small simulated run must keep writing the same
`conn.log`, `alerts.log` and `inputs.log` bytes from one change to the next.
The inputs recording holds every agent answer, batch id and tick time, so it
is where a change to schedule delivery or agent timing shows first.

Criterion 9 compares a live run with its replay under the same code, so it
cannot see drift that both share.  Change a digest only together with a
note on which lines changed and why.
"""

from __future__ import annotations

import hashlib
import io

from flowlink.agents import ScenarioHook, ScenarioKind, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.engine import EngineOutputs, run_simulation
from flowlink.flowlog import read_alerts, read_inputs

CONN_LOG_SHA256 = "792ced82dcbe17e327267eec8219282c427dacf00dcb66549c23f7e88aa4068f"
ALERTS_LOG_SHA256 = "ee22ac46646a0145ea2aac3424cbaaf2287ec08211488b5c916c1328b02c1383"
INPUTS_LOG_SHA256 = "194adbb1c2d7448b1c589aeff8f99e694009c7f3a0928bfa7b340f27e1c298e3"


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
