"""Benchmark harness checks: exact accounting at small scale, the
zero-host edge, and the memory regression math."""

import json
import math

import pytest

from flowlink.bench import (BenchReport, run_memory_scaling, run_throughput,
                            _percentiles)


def test_zero_hosts_yields_zero_report_without_crashing():
    report = run_throughput(hosts=0, rate=4.0, duration=0.5)
    assert report.events_in == 0
    assert report.events_processed == 0
    assert report.flows_in == 0
    assert report.events_per_sec == 0.0
    assert report.attrib_latency_p99 == 0.0


@pytest.mark.parametrize("pacing", [{"rate": 0.0}, {"rate": math.inf},
                                    {"duration": math.inf}], ids=str)
def test_throughput_refuses_pacing_it_cannot_run(pacing):
    with pytest.raises(ValueError):
        run_throughput(hosts=1, **pacing)


def test_small_fleet_processes_every_item_exactly_once():
    hosts, rate, duration = 10, 4.0, 2.0
    report = run_throughput(hosts=hosts, rate=rate, duration=duration)
    cycles = int(duration / (4.0 / rate))
    assert report.events_in == hosts * 4 * cycles
    assert report.events_processed == report.events_in
    assert report.flows_in == hosts * cycles
    # telemetry precedes each flow, so every flow resolves to its process
    assert report.flows_attributed == report.flows_in
    assert report.events_per_sec > 0
    assert report.attrib_latency_p99 < 2.0
    assert report.queue_peak <= report.queue_capacity


def test_throughput_report_is_json_serializable():
    report = run_throughput(hosts=2, rate=4.0, duration=1.0)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["hosts"] == 2
    assert parsed["queue_capacity"] == 4096


def test_memory_slope_positive_finite_and_near_linear():
    report = run_memory_scaling((50, 100, 200))
    assert report.slope_bytes_per_host > 0
    assert math.isfinite(report.slope_bytes_per_host)
    assert [p.hosts for p in report.points] == [50, 100, 200]
    assert all(p.state_bytes > 0 for p in report.points)
    assert report.max_slope_deviation <= 0.25


def test_memory_per_host_stays_under_its_guard():
    # slotted records and decoded strings shared through interning hold it
    # near 5.9 KiB/host; records with a __dict__ each and a string copy per
    # record took 8.7 KiB
    report = run_memory_scaling((50, 100, 200))
    assert report.slope_bytes_per_host <= 6.5 * 1024


def test_percentile_helper_edges():
    assert _percentiles([]) == (0.0, 0.0, 0.0)
    assert _percentiles([0.5]) == (0.5, 0.5, 0.5)
    p50, p95, p99 = _percentiles([x / 1000 for x in range(1000)])
    assert 0.45 < p50 < 0.55
    assert 0.93 < p95 < 0.97
    assert 0.97 < p99 < 1.0


def test_bench_report_shape():
    throughput = run_throughput(hosts=1, rate=4.0, duration=1.0)
    memory = run_memory_scaling((5, 10))
    combined = BenchReport(throughput, memory).to_dict()
    assert combined["version"] == "bench-report v1"
    assert combined["throughput"]["hosts"] == 1
    assert len(combined["memory"]["points"]) == 2
