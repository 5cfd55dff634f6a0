#!/usr/bin/env python3
"""Scaling sweep: drive the live engine at increasing fleet sizes and report
sustained throughput, attribution latency, and per-host memory cost.

Each sweep point runs the wall-clock load harness (one paced producer feeding
the bounded ingest queue) at `--rate` events per second per host, so the
sustained column reads directly against the target column.  The memory series is
measured separately on idle engines and fitted by least squares.

    python3 scripts/run_scale_experiment.py --hosts 100,200,400 --seconds 20
    python3 scripts/run_scale_experiment.py --hosts 870 --seconds 300 --out scale.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowlink.bench import run_memory_scaling, run_throughput


def parse_counts(text: str) -> tuple[int, ...] | None:
    """The comma-separated positive host counts in `text`, or None."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        return None
    return counts if counts and min(counts) >= 1 else None


def arg_error(args, hosts, memory_hosts) -> str | None:
    """The first bad argument, described, or None."""
    if hosts is None:
        return f"--hosts must list positive host counts, got {args.hosts!r}"
    if memory_hosts is None or len(set(memory_hosts)) < 2:
        return (f"--memory-hosts must list at least two distinct positive "
                f"host counts, got {args.memory_hosts!r}")
    for flag, value in (("--rate", args.rate), ("--seconds", args.seconds)):
        if not 0 < value < math.inf:
            return f"{flag} must be positive and finite, got {value:g}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", default="100,200,400",
                        help="comma-separated fleet sizes to sweep")
    parser.add_argument("--rate", type=float, default=4.0,
                        help="events per second per host")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement window per sweep point")
    parser.add_argument("--memory-hosts", default="100,200,400",
                        help="fleet sizes for the memory regression")
    parser.add_argument("--out", help="also write the raw reports as JSON")
    args = parser.parse_args(argv)
    hosts, memory_hosts = parse_counts(args.hosts), parse_counts(args.memory_hosts)
    problem = arg_error(args, hosts, memory_hosts)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    header = (f"{'hosts':>6} {'target/s':>9} {'sustained/s':>11} {'p50 ms':>8} "
              f"{'p99 ms':>8} {'queue':>6} {'flows':>8} {'attributed':>10}")
    print(header)
    print("-" * len(header))
    reports = []
    for n in hosts:
        rep = run_throughput(n, args.rate, args.seconds)
        reports.append(rep)
        print(f"{rep.hosts:>6} {n * args.rate:>9.0f} "
              f"{rep.events_per_sec:>11.0f} "
              f"{rep.attrib_latency_p50 * 1000:>8.2f} "
              f"{rep.attrib_latency_p99 * 1000:>8.2f} "
              f"{rep.queue_peak:>6} {rep.flows_in:>8} {rep.flows_attributed:>10}")

    memory = run_memory_scaling(memory_hosts)
    print()
    series = ", ".join(f"{p.hosts} hosts = {p.state_bytes / 1024:.0f} KiB"
                       for p in memory.points)
    print(f"memory: {series}")
    print(f"fitted slope {memory.slope_bytes_per_host / 1024:.1f} KiB/host, "
          f"max deviation from linear {memory.max_slope_deviation:.1%}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"throughput": [r.to_dict() for r in reports],
                       "memory": memory.to_dict()}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"raw reports written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
