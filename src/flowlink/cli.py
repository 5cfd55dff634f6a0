"""Command-line entry point.

Subcommands:
  run         long-running service on wall clock: flow ingestion from a file
              (optionally tailed) and/or a TCP feed, enriched flow + alert
              logs, metrics over HTTP, optional embedded simulated fleet
  sim         deterministic simulation on virtual time, with ground truth
  replay      re-run recorded inputs; reproduces the original logs byte for byte
  bench       throughput / latency / memory scaling report (machine-readable)
  dump-state  fetch the state dump from a running instance's metrics endpoint

Every `run` source (the flow file, the TCP feed and the embedded fleet)
submits straight to the engine under its lock, so a busy engine holds the
source back.  The main thread waits for the deadline or a signal and
rewrites `<log_dir>/metrics.json` every `--metrics-interval` seconds.
Shutdown stops the sources, then flushes the engine so every accepted flow
is logged exactly once; later calls are refused and counted.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Iterator

from .agents import (FleetSimulator, WorkloadSpec, build_workload,
                     shift_workload)
from .bench import run_bench
from .config import ConfigError, EngineConfig, load_config_sections
from .engine import (Engine, EngineOutputs, decode_inputs, open_outputs,
                     replay, run_simulation, FLOWS_LOG, ALERTS_LOG, INPUTS_LOG)
from .flowlog import LogFormatError, read_flows, read_inputs
from .runtime import EventLoop, WallScheduler
from .service import FlowFeedServer, MetricsServer, write_metrics_snapshot

METRICS_SNAPSHOT = "metrics.json"


# --- shared plumbing ----------------------------------------------------------------


def _load_sections(path: str | None) -> tuple[EngineConfig, dict]:
    if path is None:
        return EngineConfig(), {}
    return load_config_sections(path)


def _file_lines(fh, follow: bool, stop: threading.Event):
    """The lines of `fh`, the last one even without its newline; with
    follow=True, waits for appended lines until stopped, holding back a
    partial line until its newline arrives."""
    buf = ""
    while not stop.is_set():
        buf += fh.readline()
        if buf.endswith("\n") or (buf and not follow):
            yield buf
            buf = ""
        elif follow:
            time.sleep(0.2)
        else:
            return


def _feed_flow_file(path: str, follow: bool, submit,
                    stop: threading.Event) -> None:
    """Submits the records of a flow-log v1 file; with follow=True, keeps
    tailing for appended lines until stopped.  A malformed header or row
    stops this source loudly; rows already submitted stand."""
    try:
        with open(path, encoding="utf-8") as fh:
            for record in read_flows(_file_lines(fh, follow, stop)):
                submit(record)
    except (OSError, LogFormatError, UnicodeDecodeError) as exc:
        if not stop.is_set():  # a header cut short by shutdown is no error
            print(f"error: flow file {path}: {exc}", file=sys.stderr)


def _spec_from(section: dict, args) -> WorkloadSpec:
    merged = dict(section)
    for name, value in (("hosts", args.hosts), ("duration", args.duration),
                        ("event_rate", args.rate), ("seed", args.seed)):
        if value is not None:
            merged[name] = value
    return WorkloadSpec.from_dict(merged)


def _print_summary(engine: Engine, log_dir: str) -> None:
    snap = engine.metrics_snapshot()
    counters = snap["counters"]["engine"]
    print(f"flows in/out: {counters.get('flows_in', 0)}"
          f"/{counters.get('flows_out', 0)}"
          f"  events: {counters.get('events_in', 0)}"
          f"  batches: {counters.get('batches_in', 0)}"
          f"  alerts: {snap['alerts']}", file=sys.stderr)
    for proto, tally in sorted(snap["per_proto"].items()):
        print(f"  {proto}: {tally['flows']} flows, "
              f"attribution rate {tally['attribution_rate']:.4f}, "
              f"process uniqueness {tally['process_uniqueness']:.4f}",
              file=sys.stderr)
    print(f"logs: {os.path.join(log_dir, FLOWS_LOG)}, "
          f"{os.path.join(log_dir, ALERTS_LOG)}", file=sys.stderr)


# --- run ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    config, workload_section = _load_sections(args.config)
    if args.log_dir:
        config.log_dir = args.log_dir
    if args.metrics_port is not None:
        config.metrics_port = args.metrics_port
    config.validate()
    for flag, value in (("--metrics-interval", args.metrics_interval),
                        ("--duration", args.duration)):
        if value is not None and not value > 0:
            print(f"error: {flag} must be positive, got {value:g}",
                  file=sys.stderr)
            return 2
    try:
        spec = (WorkloadSpec.from_dict(workload_section)
                if workload_section else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outputs = open_outputs(config.log_dir, record_inputs=args.record)
    metrics_path = os.path.join(config.log_dir, METRICS_SNAPSHOT)
    scheduler = WallScheduler()
    engine = Engine(config, scheduler, outputs=outputs)
    engine.start()
    stop = threading.Event()
    servers = []  # only servers that started, so each one can be stopped
    file_thread = None
    handlers = {}
    try:
        try:
            if config.metrics_port:
                servers.append(MetricsServer(
                    engine, port=config.metrics_port).start())
                print(f"metrics on http://127.0.0.1:{servers[-1].port}/metrics",
                      file=sys.stderr)
            if config.listen_port:
                servers.append(FlowFeedServer(
                    engine.submit_flow, host=config.listen_addr,
                    port=config.listen_port).start())
                print(f"flow feed on {config.listen_addr}:{servers[-1].port}",
                      file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot bind service port: {exc}", file=sys.stderr)
            return 2

        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                handlers[sig] = signal.signal(sig, lambda _s, _f: stop.set())

        if args.flows:
            file_thread = threading.Thread(
                target=_feed_flow_file,
                args=(args.flows, args.follow, engine.submit_flow, stop),
                name="flowlink-flow-file", daemon=True)
            file_thread.start()

        if spec is not None:
            workload = shift_workload(build_workload(spec),
                                      scheduler.now() + 0.2)
            FleetSimulator(
                workload, scheduler, engine.node,
                flow_sink=engine.submit_flow,
                download_sink=engine.submit_download,
                register_host=engine.register_host,
                deregister_host=engine.deregister_host).start()
            print(f"embedded fleet: {len(workload.hosts)} hosts, "
                  f"{len(workload.actions)} actions", file=sys.stderr)

        deadline = time.monotonic() + args.duration if args.duration else None
        next_snapshot = time.monotonic() + args.metrics_interval
        file_only = (args.flows and not args.follow and not config.listen_port
                     and spec is None)
        while not stop.wait(0.2):
            now = time.monotonic()
            if (deadline is not None and now >= deadline
                    or file_only and not file_thread.is_alive()):
                break
            if now >= next_snapshot:
                write_metrics_snapshot(engine, metrics_path)
                next_snapshot = now + args.metrics_interval
    finally:
        stop.set()
        for server in servers:
            server.stop()
        if file_thread is not None:
            file_thread.join(timeout=2.0)
        engine.shutdown()
        # final snapshot so short runs still leave an accurate metrics file
        write_metrics_snapshot(engine, metrics_path)
        scheduler.stop()
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    _print_summary(engine, config.log_dir)
    return 0


# --- sim ---------------------------------------------------------------------------


def _cmd_sim(args) -> int:
    config, workload_section = _load_sections(args.config)
    if args.log_dir:
        config.log_dir = args.log_dir
    try:
        spec = _spec_from(workload_section, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = build_workload(spec)
    outputs = open_outputs(config.log_dir, record_inputs=args.record)
    engine = run_simulation(config, workload, outputs)
    print(f"simulated {spec.hosts} hosts for {spec.duration:g}s "
          f"(seed {spec.seed}): {len(workload.actions)} actions, "
          f"{len(workload.flows)} flows", file=sys.stderr)
    if args.record:
        print(f"inputs recorded to "
              f"{os.path.join(config.log_dir, INPUTS_LOG)}", file=sys.stderr)
    _print_summary(engine, config.log_dir)
    return 0


# --- replay -------------------------------------------------------------------------


@contextlib.contextmanager
def _staged_logs(log_dir: str) -> Iterator[EngineOutputs]:
    """Outputs that write conn.log and alerts.log under temporary names in
    `log_dir`.  They replace the logs of those names when the block ends
    normally, and are deleted when it raises."""
    os.makedirs(log_dir, exist_ok=True)
    staged = {name: os.path.join(log_dir, f".{name}.{os.getpid()}.tmp")
              for name in (FLOWS_LOG, ALERTS_LOG)}
    outputs = EngineOutputs(owns=True)
    try:
        outputs.flows = open(staged[FLOWS_LOG], "w")
        outputs.alerts = open(staged[ALERTS_LOG], "w")
        yield outputs
        outputs.close()
        for name, path in staged.items():
            os.replace(path, os.path.join(log_dir, name))
    except BaseException:
        outputs.close()
        for path in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


def _cmd_replay(args) -> int:
    config, _ = _load_sections(args.config)
    if args.log_dir:
        config.log_dir = args.log_dir
    try:
        with open(args.inputs, encoding="utf-8") as fh:
            entries = read_inputs(fh)
            head = list(itertools.islice(entries, 1))
            # the clock starts at the first entry: a live recording is
            # stamped in epoch seconds
            start = next(decode_inputs(head))[0] if head else 0.0
            with _staged_logs(config.log_dir) as outputs:
                engine = Engine(config, EventLoop(start), outputs=outputs)
                engine.start()
                n, until = replay(engine, itertools.chain(head, entries))
                engine.shutdown()
    except (OSError, LogFormatError, UnicodeDecodeError) as exc:
        print(f"error: cannot replay inputs: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {n} inputs to t={until:g}", file=sys.stderr)
    _print_summary(engine, config.log_dir)
    return 0


# --- bench --------------------------------------------------------------------------


def _bench_arg_error(args, memory_hosts) -> str | None:
    """The first bad `bench` argument, described, or None."""
    if memory_hosts is None or min(memory_hosts) < 1 or len(set(memory_hosts)) < 2:
        return (f"--memory-hosts must list at least two distinct positive "
                f"host counts, got {args.memory_hosts!r}")
    for flag, value, ok, need in (
            ("--hosts", args.hosts, args.hosts >= 0, "non-negative"),
            ("--rate", args.rate, 0 < args.rate < math.inf, "positive and finite"),
            ("--seconds", args.seconds, 0 < args.seconds < math.inf,
             "positive and finite")):
        if not ok:
            return f"{flag} must be {need}, got {value:g}"
    return None


def _cmd_bench(args) -> int:
    try:
        memory_hosts = tuple(int(x) for x in args.memory_hosts.split(","))
    except ValueError:
        memory_hosts = None
    problem = _bench_arg_error(args, memory_hosts)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    report = run_bench(hosts=args.hosts, rate=args.rate,
                       duration=args.seconds, memory_hosts=memory_hosts)
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    t = report.throughput
    m = report.memory
    print(f"sustained {t.events_per_sec:.0f} ev/s over {t.elapsed:.1f}s "
          f"({t.hosts} hosts x {t.rate_per_host:g} ev/s), "
          f"queue peak {t.queue_peak}/{t.queue_capacity}", file=sys.stderr)
    print(f"attribution latency p50/p95/p99: {t.attrib_latency_p50 * 1e3:.2f}/"
          f"{t.attrib_latency_p95 * 1e3:.2f}/"
          f"{t.attrib_latency_p99 * 1e3:.2f} ms", file=sys.stderr)
    print(f"memory {m.slope_bytes_per_host / 1024:.1f} KiB/host "
          f"(max slope deviation {m.max_slope_deviation:.1%})",
          file=sys.stderr)
    return 0


# --- dump-state ---------------------------------------------------------------------


def _cmd_dump_state(args) -> int:
    url = args.url or f"http://127.0.0.1:{args.port}/state"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            sys.stdout.write(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 2
    return 0


# --- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlink",
        description="correlate network flows with host telemetry")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the live correlation service")
    run_p.add_argument("--config", help="engine (and optional workload) JSON")
    run_p.add_argument("--log-dir", help="override the configured log directory")
    run_p.add_argument("--metrics-port", type=int, default=None)
    run_p.add_argument("--metrics-interval", type=float, default=30.0,
                       help="seconds between metrics file snapshots")
    run_p.add_argument("--flows", help="flow-log file to ingest")
    run_p.add_argument("--follow", action="store_true",
                       help="keep tailing --flows for appended records")
    run_p.add_argument("--record", action="store_true",
                       help="record all inputs for later replay")
    run_p.add_argument("--duration", type=float, default=None,
                       help="exit cleanly after this many seconds (inf: never)")
    run_p.set_defaults(func=_cmd_run)

    sim_p = sub.add_parser("sim", help="run a deterministic simulation")
    sim_p.add_argument("--config", help="engine + workload JSON")
    sim_p.add_argument("--log-dir")
    sim_p.add_argument("--hosts", type=int, default=None)
    sim_p.add_argument("--duration", type=float, default=None)
    sim_p.add_argument("--rate", type=float, default=None,
                       help="audit events per second per host")
    sim_p.add_argument("--seed", type=int, default=None)
    sim_p.add_argument("--record", action="store_true",
                       help="record all inputs for later replay")
    sim_p.set_defaults(func=_cmd_sim)

    rep_p = sub.add_parser("replay", help="re-run recorded inputs")
    rep_p.add_argument("--config", help="engine JSON (must match the recording)")
    rep_p.add_argument("--inputs", default=os.path.join("logs", INPUTS_LOG))
    rep_p.add_argument("--log-dir", default="replay-logs")
    rep_p.set_defaults(func=_cmd_replay)

    bench_p = sub.add_parser("bench", help="throughput and memory benchmark")
    bench_p.add_argument("--hosts", type=int, default=870)
    bench_p.add_argument("--rate", type=float, default=4.0)
    # a string default is converted by `type` only when `bench` runs, so a
    # malformed variable is a usage error there and harmless elsewhere
    bench_p.add_argument(
        "--seconds", type=float,
        default=os.environ.get("FLOWLINK_BENCH_SECONDS", "300"))
    bench_p.add_argument("--memory-hosts", default="100,200,400")
    bench_p.add_argument("--out", help="write the JSON report here instead of stdout")
    bench_p.set_defaults(func=_cmd_bench)

    dump_p = sub.add_parser("dump-state",
                            help="print a running instance's state dump")
    dump_p.add_argument("--url", help="full /state URL")
    dump_p.add_argument("--port", type=int, default=9090,
                        help="metrics port on 127.0.0.1 when --url is absent")
    dump_p.add_argument("--timeout", type=float, default=5.0)
    dump_p.set_defaults(func=_cmd_dump_state)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
