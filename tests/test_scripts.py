"""Smoke runs of the study scripts under scripts/: each wires its own engine
and fleet, so a change to those interfaces must keep them running."""

import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("script, args", [
    ("attribution_study.py", ["--hosts", "3", "--duration", "60"]),
    ("run_scale_experiment.py", ["--hosts", "10", "--seconds", "1",
                                 "--memory-hosts", "5,10"]),
    ("production_census.py", ["--hosts", "4", "--duration", "30"]),
])
def test_script_runs_and_writes_its_report(tmp_path, script, args):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args, "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())


@pytest.mark.parametrize("args, flag", [
    (["--rate", "inf"], "--rate"),
    (["--rate", "0"], "--rate"),
    (["--seconds", "inf"], "--seconds"),
    (["--hosts", "10,0"], "--hosts"),
    (["--hosts", "ten"], "--hosts"),
    (["--memory-hosts", "5"], "--memory-hosts"),
    (["--memory-hosts", "5,x"], "--memory-hosts"),
])
def test_scale_script_refuses_bad_argument_before_running(tmp_path, args, flag):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_scale_experiment.py"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {flag} ")
