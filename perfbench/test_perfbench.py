"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench -q

They check that the benchmark is trustworthy, not how fast flowlink is:
inputs are a pure function of the seed, traced runs repeat their per-layer
counts exactly, the virtual-time workloads pass the correctness gate, and
the gate notices a corrupted result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

VIRTUAL = (workloads.DenseSockets, workloads.LateTelemetry)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few hosts and a fraction of a second."""
    for name, value in (("FLEET_HOSTS", 12), ("DENSE_SERVERS", 2),
                        ("DENSE_SOCKETS", 50), ("DENSE_CLIENTS", 10),
                        ("LATE_HOSTS", 10), ("LIVE_HOSTS", 20),
                        ("SETUP_BEFORE", 1), ("SETUP_AFTER", 1)):
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads.LateStream, "flow_rate", 200.0)
    monkeypatch.setattr(workloads.DenseStream, "flow_rate", 200.0)
    monkeypatch.setattr(workloads.DenseSockets, "trace_vt", 0.3)
    monkeypatch.setattr(workloads.DenseSockets, "warmup_vt", 0.1)
    monkeypatch.setattr(workloads.LateTelemetry, "trace_vt", 2.3)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


@pytest.mark.parametrize("cls", VIRTUAL)
def test_same_seed_same_inputs(tiny, tmp_path, cls):
    def inputs(seed):
        return _digest(cls(seed, str(tmp_path)).stream().take(1.0))
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_same_seed_same_recording_and_schedule(tiny, tmp_path):
    def recording(seed, sub):
        fleet = workloads.FleetReplay(seed, str(tmp_path / sub))
        with open(fleet.inputs_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    assert recording(5, "a") == recording(5, "b")
    assert recording(5, "a") != recording(6, "c")
    assert (_digest(workloads.live_schedule(5, 2.0))
            == _digest(workloads.live_schedule(5, 2.0)))


def _counts(cls, tmp_path) -> dict:
    tracer = Tracer()
    info = cls(7, str(tmp_path)).trace(tracer)
    assert info["outcome"].correct
    return {name: value for name, (value, unit) in run.layer_metrics(tracer, info).items()
            if unit == "count"}


@pytest.mark.parametrize("cls", VIRTUAL + (workloads.FleetReplay,))
def test_traced_counts_repeat(tiny, tmp_path, cls):
    first = _counts(cls, tmp_path)
    assert first["engine.submit_flow.calls"] > 0
    assert first == _counts(cls, tmp_path)


@pytest.mark.parametrize("cls", VIRTUAL + (workloads.FleetReplay,))
def test_error_ratio_zero(tiny, tmp_path, cls):
    out = cls(11, str(tmp_path)).run(0.3)
    assert out.attempted > 0
    assert out.failures == [] and out.problems == []


class _Corrupting(list):
    """`Engine.result_sinks` stand-in that hands the first result to each
    sink altered by `corrupt`."""

    def __init__(self, corrupt):
        super().__init__()
        self.corrupt = corrupt

    def append(self, sink):
        seen = []

        def wrapped(result):
            if not seen:
                seen.append(result)
                self.corrupt(sink, result)
            else:
                sink(result)
        super().append(wrapped)


@pytest.mark.parametrize("corrupt, reason", [
    (lambda sink, r: sink(dataclasses.replace(r, originator=())), "missing"),
    (lambda sink, r: (sink(r), sink(r)), "emitted 2 times"),
    (lambda sink, r: None, "never emitted"),
])
def test_gate_catches_a_corrupted_result(tiny, tmp_path, monkeypatch, corrupt, reason):
    build = workloads.DenseSockets._build

    def corrupting_build(self, outputs, tracer=None):
        (eng, loop), teardown = build(self, outputs, tracer)
        eng.result_sinks = _Corrupting(corrupt)
        return (eng, loop), teardown
    monkeypatch.setattr(workloads.DenseSockets, "_build", corrupting_build)
    out = workloads.DenseSockets(11, str(tmp_path)).run(0.3)
    assert len(out.failures) == 1 and reason in out.failures[0][1]
    assert not out.correct
