#!/usr/bin/env python3
"""Attribution quality as a function of telemetry visibility.

Two sweeps over simulated fleets (virtual time, so the study runs in seconds):

  1. Audit censoring: the fraction of audit socket events that omit the local
     endpoint rises from 0 to 1.  Flows stay attributed through remote-only
     matching, but answers lose sharpness -- the exact-match share falls to
     whatever the periodic status probes can patch back in.

  2. Probe-only UDP: UDP sockets are visible solely to periodic status probes,
     so the attribution rate tracks the fraction of socket lifetimes that span
     a probe instant -- the structural reason UDP trails TCP.

    python3 scripts/attribution_study.py
    python3 scripts/attribution_study.py --hosts 10 --duration 300 --out study.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowlink.agents import FleetSimulator, WorkloadSpec, build_workload
from flowlink.config import EngineConfig
from flowlink.engine import Engine, run_simulation
from flowlink.model import MatchQuality, Proto
from flowlink.runtime import EventLoop


def run_with_results(spec: WorkloadSpec):
    """Like run_simulation, but with a sink capturing every attribution
    result so match quality can be tallied."""
    workload = build_workload(spec)
    loop = EventLoop()
    engine = Engine(EngineConfig(), loop)
    results = []
    engine.result_sinks.append(results.append)
    fleet = FleetSimulator(workload, loop, engine.node,
                           flow_sink=engine.submit_flow,
                           download_sink=engine.submit_download,
                           register_host=engine.register_host,
                           deregister_host=engine.deregister_host)
    engine.start()
    fleet.start()
    loop.run_until(workload.end + engine.config.retry_window + 1.0)
    engine.shutdown()
    return engine, results


def censoring_sweep(args, results: dict) -> None:
    print("audit censoring sweep (TCP, full flow coupling)")
    header = (f"{'p(miss local)':>13} {'flows':>7} {'attributed':>10} "
              f"{'exact share':>11} {'partial share':>13}")
    print(header)
    print("-" * len(header))
    for missing in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = WorkloadSpec(hosts=args.hosts, duration=args.duration,
                            event_rate=2.0, flow_coupling=1.0,
                            audit_local_missing=missing, seed=args.seed)
        engine, observed = run_with_results(spec)
        tcp = engine.metrics.per_proto[Proto.TCP]
        attributed = [r for r in observed
                      if r.flow.proto is Proto.TCP and r.originator]
        exact = sum(1 for r in attributed
                    if any(c.quality is MatchQuality.EXACT for c in r.originator))
        exact_share = exact / len(attributed) if attributed else 0.0
        results["censoring"].append({
            "audit_local_missing": missing, "flows": tcp.flows,
            "attribution_rate": tcp.rate(), "exact_share": exact_share})
        print(f"{missing:>13.2f} {tcp.flows:>7} {tcp.rate():>10.3f} "
              f"{exact_share:>11.3f} {1.0 - exact_share:>13.3f}")


def udp_probe_sweep(args, results: dict) -> None:
    print()
    print("probe-visibility sweep (UDP sockets seen only by status probes)")
    header = f"{'p(span probe)':>13} {'flows':>7} {'attributed':>10} {'gap':>8}"
    print(header)
    print("-" * len(header))
    duration = max(args.duration, 90.0)
    for span_p in (0.1, 0.3, 0.5, 0.7, 0.9):
        spec = WorkloadSpec(hosts=args.hosts, duration=duration, event_rate=0.0,
                            udp_sockets_per_host=40, udp_span_probability=span_p,
                            seed=args.seed)
        engine = run_simulation(EngineConfig(), build_workload(spec))
        udp = engine.metrics.per_proto[Proto.UDP]
        results["udp_probe"].append({
            "udp_span_probability": span_p, "flows": udp.flows,
            "attribution_rate": udp.rate()})
        print(f"{span_p:>13.2f} {udp.flows:>7} {udp.rate():>10.3f} "
              f"{span_p - udp.rate():>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=6)
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per sweep point")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", help="also write the sweep results as JSON")
    args = parser.parse_args(argv)

    results: dict = {"censoring": [], "udp_probe": []}
    censoring_sweep(args, results)
    udp_probe_sweep(args, results)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nraw results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
