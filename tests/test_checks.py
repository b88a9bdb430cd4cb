"""The verify battery as a library call: checks.verify_battery, no CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

from microloc import Check, build_constraints, euler_matrix, loads_dataset, solve, \
    verify_battery
from chains import zero_exception_doc

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"


def _solved(doc):
    ds = loads_dataset(doc)
    return solve(build_constraints(ds, euler_matrix(ds)))


def test_bundled_battery_equals_the_verify_snapshot(solved):
    # the CLI puts its own dataset-valid record first
    valid, *battery = json.loads((SNAPSHOTS / "verify-machine.json").read_text())["checks"]
    assert valid["name"] == "dataset-valid"
    checks = verify_battery(solved)
    assert all(type(c) is Check for c in checks)
    assert [c._asdict() for c in checks] == battery


def test_an_exception_pinned_at_zero_is_reported_as_zero():
    checks = verify_battery(_solved(zero_exception_doc()))
    assert Check("localization", True, "pinned A1: 0") in checks
    assert all(c.ok for c in checks), checks


def test_the_battery_loads_no_cli():
    home = str(Path(sys.modules["microloc"].__file__).resolve().parents[1])
    code = "import sys, microloc.checks; print('microloc.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=home),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
