"""flowlink benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a flowlink checkout; the engine is imported from
`src/`.  `--trace 0` measures the end-to-end metrics with tracing off;
`--trace 1` runs a fixed amount of work untraced and then traced, and
reports the per-layer metrics.  Either way every emitted flow is judged
against ground truth.  Informational lines come first; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": <flows>, "failed": <flows>, "metrics": {...}}

`failed / attempted` is the workload's error_ratio.  `--workload all` runs
every workload in turn, each in its own process, `dense_sockets` included
although `BENCHMARK.json` does not list it.

Logs, recordings and spans go to `.perfbench-out/<workload>/` under the
checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_engine() -> None:
    """Put the checkout's `src/` first on the path and insist the engine
    comes from there, not from some installed copy."""
    if not os.path.isfile(os.path.join(SRC, "flowlink", "engine.py")):
        raise SystemExit(f"error: no flowlink sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import flowlink
    if os.path.dirname(os.path.dirname(os.path.abspath(flowlink.__file__))) != SRC:
        raise SystemExit(f"error: flowlink imported from {flowlink.__file__}, "
                         f"not {SRC}")


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def layer_metrics(tracer, info: dict) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    from harness import quantile

    spans, counts, late = tracer.summary()
    eng = info["engine"]
    flows = max(info["flows"], 1)
    corr = eng.correlator.counters
    m: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        calls, busy, own = spans.get(name, (0, 0.0, 0.0))
        values = {"calls": (calls, "count"), "busy_s": (busy, "s"),
                  "self_s": (own, "s")}
        for f in fields:
            m[f"{name}.{f}"] = values[f]

    span("engine.submit_flow", "calls", "self_s")
    span("engine.ingest_result", "calls", "self_s")
    for name in ("state.apply_event", "state.merge_snapshot", "state.verify"):
        span(name, "calls", "busy_s", "self_s")
    span("state.view", "calls", "self_s")
    span("correlate.attribute", "calls", "self_s")
    span("correlate.on_state_change", "calls", "self_s")
    span("correlate.index.apply_change", "calls", "self_s")
    span("correlate.metrics.observe", "calls", "self_s")
    span("flowlog.read_inputs", "self_s")
    span("model.from_dict", "calls", "self_s")
    span("flowlog.enriched_write", "calls", "self_s")
    span("detect.on_attributed", "calls", "self_s")
    span("detect.on_process_added", "calls", "self_s")
    span("runtime.callback", "calls", "self_s")

    match_calls = counts["model.match_socket.calls"]
    attempts = counts["correlate.retry.attempts"]
    samples = counts["correlate.parked.samples"]
    m["model.match_socket.calls"] = (match_calls, "count")
    m["model.match_socket.useful_ratio"] = (
        counts["model.match_socket.useful"] / match_calls if match_calls else 0.0, "ratio")
    m["correlate.retry.attempts"] = (attempts, "count")
    m["correlate.retry.useful_ratio"] = (
        corr["retry_resolved"] / attempts if attempts else 0.0, "ratio")
    m["correlate.parked.peak"] = (tracer.park_peak, "count")
    m["correlate.parked.mean"] = (
        counts["correlate.parked.sum"] / samples if samples else 0.0, "count")
    m["correlate.parked.expired"] = (corr["retry_expired"], "count")
    m["correlate.parked.evicted"] = (corr["parked_evicted"], "count")
    m["runtime.call_at.calls"] = (counts["runtime.call_at.calls"], "count")
    m["runtime.cancel.calls"] = (counts["runtime.cancel.calls"], "count")
    m["runtime.timer_late_p99_us"] = (quantile(late, 0.99), "us")
    m["detect.queries"] = (counts["detect.queries"], "count")
    m["overlay.publish_interest.calls"] = (counts["overlay.publish_interest.calls"], "count")
    m["engine.lock.wait_s"] = (counts["engine.lock.wait_ns"] / 1e9, "s")
    m["state.sockets_per_host.max"] = (max(
        (len(eng.store.view(h).sockets) for h in eng.store.hosts()), default=0), "count")

    m["bench.inputs"] = (info["inputs"], "count")
    m["bench.flows"] = (info["flows"], "count")
    m["bench.sockets_per_flow"] = (match_calls / flows, "count")
    m["bench.parked_share"] = (corr["parked"] / flows, "ratio")
    m["bench.decode_share"] = info["extra"].get("bench.decode_share", (0.0, "ratio"))
    untraced = info["inputs"] / info["untraced_s"]
    traced = info["inputs"] / info["traced_s"]
    m["bench.untraced_inputs_per_s"] = (untraced, "1/s")
    m["bench.traced_inputs_per_s"] = (traced, "1/s")
    m["bench.trace_overhead"] = (untraced / traced, "ratio")
    return m


def run_one(args) -> int:
    _import_engine()
    from harness import report_failures
    from tracer import Tracer
    from workloads import WORKLOADS

    declared = _declared()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench-out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    if args.trace:
        tracer = Tracer()
        info = workload.trace(tracer)
        outcome = info["outcome"]
        metrics = layer_metrics(tracer, info)
        n_spans = tracer.write_spans(os.path.join(out_dir, "spans.tsv"))
        print(f"{args.workload}: {n_spans} spans written to "
              f"{os.path.relpath(os.path.join(out_dir, 'spans.tsv'), ROOT)}")
        want = declared["per_layer"]
    else:
        outcome = workload.run(args.seconds)
        metrics = outcome.metrics
        want = declared["end_to_end"]

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"error: measured metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return 1

    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    report_failures(args.workload, outcome.failures, sys.stdout)
    for problem in outcome.problems:
        print(f"{args.workload}: FAIL {problem}")
    attempted = outcome.attempted
    failed = len(outcome.failures)
    print(f"{args.workload}: error_ratio {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} flows)")
    for name, (value, unit) in {**metrics, **outcome.info}.items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    _import_engine()
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fleet_replay | dense_sockets | late_telemetry | "
                             "live_paced | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per run (untraced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
