#!/usr/bin/env python3
"""Which functions in src/flowlink no production path enters.

Runs `flowlink sim --record` in-process, with one scripted incident of
every scenario kind, and then `flowlink replay` of that recording, with a
call tracer on every thread (`sys.settrace` and `threading.settrace`).  It
writes the `module.qualname` of every function under src/flowlink that
never ran.  A name on that list is test-only API, an error path, or code
that only the other commands reach: `run` (flow files, the TCP feed, the
metrics server, the wall-clock scheduler) and `bench` are outside this
script's reach.  Lambdas and comprehensions are not counted as functions.

    python3 scripts/production_census.py --out census.json
    python3 scripts/production_census.py --hosts 10 --duration 120 --out census.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import tempfile
import threading
import types

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
PACKAGE = os.path.join(SRC, "flowlink")
sys.path.insert(0, SRC)


def package_functions() -> dict[tuple, str]:
    """(file, first line, qualname) -> `module.qualname` for every function
    defined under src/flowlink."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        module = "flowlink" if name == "__init__.py" else f"flowlink.{name[:-3]}"
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
            # module and class bodies run unoptimized; functions do not
            if (code.co_flags & inspect.CO_OPTIMIZED
                    and not code.co_name.startswith("<")):
                out[(path, code.co_firstlineno, code.co_qualname)] = (
                    f"{module}.{code.co_qualname}")
    return out


def census_workload(hosts: int, duration: float) -> dict:
    """A workload section with one hook of every scenario kind, spread over
    the first two thirds of the run, each on its own host or hosts."""
    from flowlink.agents import ScenarioKind, host_name

    kinds = list(ScenarioKind)
    scenarios = []
    for i, kind in enumerate(kinds):
        hook = {"kind": kind.value, "at": duration * (i + 1) / (len(kinds) * 1.5),
                "host": host_name(i % hosts)}
        if kind in (ScenarioKind.SSH_CHAIN, ScenarioKind.SSH_UNRELATED):
            hook["params"] = {"chain": [host_name((i + k) % hosts)
                                        for k in range(3)]}
        scenarios.append(hook)
    return {"hosts": hosts, "duration": duration, "seed": 1,
            "scenarios": scenarios}


def run_paths(hosts: int, duration: float, workdir: str) -> list[list[str]]:
    """Run the traced CLI paths; return the argument list of each."""
    from flowlink.cli import main

    config = os.path.join(workdir, "census.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"workload": census_workload(hosts, duration)}, fh)
    rec, out = os.path.join(workdir, "sim"), os.path.join(workdir, "replay")
    paths = [["sim", "--config", config, "--log-dir", rec, "--record"],
             ["replay", "--config", config, "--inputs",
              os.path.join(rec, "inputs.log"), "--log-dir", out]]
    for argv in paths:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"flowlink {argv[0]} exited {code}")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=30,
                        help="simulated hosts, at least 3 (default 30)")
    parser.add_argument("--duration", type=float, default=90.0,
                        help="virtual seconds simulated (default 90)")
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)
    if args.hosts < 3:
        print(f"error: --hosts must be at least 3 (an ssh chain needs three "
              f"hosts), got {args.hosts}", file=sys.stderr)
        return 2
    if not 0 < args.duration < math.inf:
        print(f"error: --duration must be positive and finite, got "
              f"{args.duration:g}", file=sys.stderr)
        return 2

    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    # flowlink is first imported under the tracer, so what its modules
    # call while loading counts as run
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            paths = run_paths(args.hosts, args.duration, workdir)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    functions = package_functions()
    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
           for c in entered}
    never = sorted(name for key, name in functions.items() if key not in ran)
    report = {"hosts": args.hosts, "duration": args.duration,
              "paths": [argv[0] for argv in paths],
              "functions": len(functions), "never_ran": never}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"{len(never)} of {len(functions)} functions in src/flowlink never "
          f"ran under {' and '.join(report['paths'])}")
    for name in never:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
