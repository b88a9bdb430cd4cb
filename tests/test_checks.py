"""The verify battery as a library call: checks.verify_battery, no CLI."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microloc import Check, build_constraints, euler_matrix, loads_dataset, solve, \
    verify_battery
from microloc.euler import UNKNOWN
from microloc.solver import CharacteristicCycle, reconstruct_local_euler
from chains import chain_doc, zero_exception_doc

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


def _flat_roundtrip(sr):
    """The euler-roundtrip record from the two matrices' flat cell maps."""
    rec = reconstruct_local_euler(sr).entries
    agree = [rec[cell] == v for cell, v in euler_matrix(sr.dataset).known_items()
             if rec.get(cell, UNKNOWN) is not UNKNOWN]
    mism = agree.count(False)
    return Check("euler-roundtrip", mism == 0,
                 f"{len(agree)} cells agree" if mism == 0 else f"{mism} cells disagree")


@pytest.mark.parametrize("case, bumps", [
    ("f4a3", []),
    ("f4a3", [(("S11", "(4)"), "S11")]),
    ("f4a3", [(("S8", "(1)"), "S4"), (("S10", "(1^2)"), "S9")]),
    ("chain6", []),
    ("chain6", [(("A5", "(1)"), "A2")]),
])
def test_euler_roundtrip_compares_row_by_row(solved, case, bumps):
    """The battery compares the matrices row by row; its record equals the
    cell-by-cell comparison of the flat maps, also where cycles are edited
    so that some reconstructed cells disagree."""
    sr = copy.copy(solved if case == "f4a3" else _solved(chain_doc(6)))
    sr.cc_table = dict(sr.cc_table)
    for src, orbit in bumps:
        mult = dict(sr.cc_table[src].mult)
        mult[orbit] = sr.cc_table[src].at(orbit) + 1
        sr.cc_table[src] = CharacteristicCycle(src, mult)
    (got,) = [c for c in verify_battery(sr) if c.name == "euler-roundtrip"]
    assert got == _flat_roundtrip(sr)
    assert got.ok == (not bumps)
