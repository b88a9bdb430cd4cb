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
from microloc.affine import AffineInt
from microloc.euler import UNKNOWN
from microloc.packets import basic_arthur_packet, verify_az_micro_compatibility, \
    verify_weak_equals_union
from microloc.solver import CharacteristicCycle, ComputationError, reconstruct_local_euler
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


@pytest.mark.parametrize("two_parameters", [True, False], ids=["two-parameter", "no-bounds"])
def test_a_packet_step_that_raises_is_recorded_as_a_failure(solved, two_parameters):
    """Each packet step whose membership test raises gives a failed record
    carrying the error's text: here the first catalog entry's cycle holds a
    parametric multiplicity at every orbit, which no membership test can
    classify, with two parameters or without bounds."""
    sr = copy.copy(solved)
    c = AffineInt.parameter("c")
    x = c + AffineInt.parameter("p") if two_parameters else c + 1
    src = sr.dataset.catalog[0].param
    sr.cc_table = dict(sr.cc_table)
    sr.cc_table[src] = CharacteristicCycle(src, {o.id: x for o in sr.dataset.orbits})
    if not two_parameters:
        sr.bounds = None
    records = {r.name: r for r in verify_battery(sr)}
    for name, step in [("weak-equals-union", verify_weak_equals_union),
                       ("az-compatibility", verify_az_micro_compatibility),
                       ("basic-packet", basic_arthur_packet)]:
        with pytest.raises(ComputationError) as e:
            step(sr)
        assert not records[name].ok and records[name].detail == str(e.value), name
