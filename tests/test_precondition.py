"""The solver's precondition: a dataset that validate_dataset accepts.

build_constraints and reconstruct_local_euler keep no path for a dataset
whose orbit ids repeat, along one of whose covers dimension does not rise,
or whose fourier or hat map is not an involution, nor build_constraints
one whose hat pairs pair an orbit twice.  They raise a ValueError
that names the failed check and the validate_dataset code reporting it; a
map that is not total raises the KeyError that the test-only copy of the
row builder raises.

The contract, over the hypothesis edits of the hat and fourier pairs of
tests/test_mclasses.py (free-form ones and ones that keep both maps
involutions) and the mutants of tests/test_mutations.py: every dataset
validate_dataset accepts builds, and inverts, without the error; every
dataset the error rejects carries a violation with the code it names; and
every KeyError comes with a hat-not-total or fourier-not-total violation.
The frozen invalid inputs raise the error with its code, and every command
that solves, and validate, exits 1 on them with the validator's lines and
no traceback.
"""

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from microloc.cli import main
from microloc.data import loads_dataset, validate_dataset
from microloc.euler import euler_matrix
from microloc.poset import OrbitPoset
from microloc.solver import CMatrix, CharacteristicCycle, SolveReport, build_constraints, \
    reconstruct_local_euler
from chains import SIGN, chain_doc, orbit_id
from test_mclasses import BASES, _copied_rows, _edited_duality
from test_mutations import mutants

PRECONDITION = re.compile(r" \[([a-z-]+)\]: the solver needs a dataset validate_dataset accepts$")

# A < B < C with B and C of one dimension (cover-dim): visiting targets by
# falling dimension, then id, would reach B before C, which lies above it
FLAT_DOC = {
    "schema_version": 1, "name": "flat", "ambient_dim": 1,
    "orbits": [
        {"id": "A", "dim": 0, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "B", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "C", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
    ],
    "covers": [["A", "B"], ["B", "C"]],
    "duality": {"hat": [["A", "C"], ["B", "B"]],
                "fourier": [[["A", "(1)"], ["C", "(1)"]], [["B", "(1)"], ["B", "(1)"]]]},
    "kl": [],
    "catalog": [
        {"id": "R0", "param": ["A", "(1)"], "az": "R2", "iwahori_spherical": True, "unitary": True},
        {"id": "R1", "param": ["B", "(1)"], "az": "R1", "iwahori_spherical": True, "unitary": True},
        {"id": "R2", "param": ["C", "(1)"], "az": "R0", "iwahori_spherical": True, "unitary": True},
    ],
    "special_piece": [], "arthur_type": [], "b_function": ["-1"],
}


def _hat_pair_added():
    """chain4 with the extra hat pair (A3, A3): hat(A0) = A3 and hat(A3) = A3."""
    doc = chain_doc(4)
    doc["duality"]["hat"].append([orbit_id(3), orbit_id(3)])
    return doc


def _fourier_pair_replaced():
    """chain4 with the sign sheaf's fourier pair replaced by (A0,(1)) -- (A3,(1^2))."""
    doc = chain_doc(4)
    doc["duality"]["fourier"][-1] = [[orbit_id(0), "(1)"], [orbit_id(3), SIGN]]
    return doc


def _hat_pair_repeated():
    """chain4 with hat pairs (A0, A3), (A0, A1), (A3, A2): the map, the last
    pair winning, is the involution A0 -- A1, A2 -- A3, which the first
    pair contradicts."""
    doc = chain_doc(4)
    doc["duality"]["hat"] = [[orbit_id(0), orbit_id(3)], [orbit_id(0), orbit_id(1)],
                             [orbit_id(3), orbit_id(2)]]
    return doc


# each invalid input, and the text of the error build_constraints raises on it
INVALID = {
    "flat": (FLAT_DOC, "dimension does not rise along the cover (B, C) [cover-dim]"),
    "hat-pair-added": (_hat_pair_added(), "hat is no involution at A0 [hat-not-involutive]"),
    "fourier-pair-replaced": (_fourier_pair_replaced(),
                              "fourier is no involution at ('A3', '(1)') [fourier-not-involutive]"),
    "hat-pair-repeated": (_hat_pair_repeated(),
                          "the hat pair (A0, A3) disagrees with a later pair [hat-conflict]"),
}


def _precondition_code(fn, *args):
    """The code that the precondition error of fn(*args) names, or None when
    it raises none."""
    try:
        fn(*args)
    except ValueError as e:
        match = PRECONDITION.search(str(e))
        if match is None:
            raise
        return match.group(1)
    return None


def _empty_report(ds):
    return SolveReport(ds, CMatrix({}), {}, [], [], [], None)


# -- the frozen invalid inputs ---------------------------------------------------

@pytest.mark.parametrize("name", INVALID)
def test_build_constraints_names_the_failed_check(name):
    doc, text = INVALID[name]
    ds = loads_dataset(doc)
    with pytest.raises(ValueError) as e:
        build_constraints(ds, euler_matrix(ds))
    assert str(e.value).startswith(text + ":")
    assert PRECONDITION.search(str(e.value)).group(1) in {v.code for v in validate_dataset(ds)}


def test_reconstruct_names_the_failed_check_on_a_hand_built_report():
    # the walk by falling dimension, then id, is no linear extension on the
    # flat poset, so the inversion refuses the report before any cell
    src = ("C", "(1)")
    sr = SolveReport(loads_dataset(FLAT_DOC),
                     CMatrix({("A", "A"): 1, ("B", "B"): -1, ("C", "C"): -1}),
                     {src: CharacteristicCycle(src, {"A": 1, "B": 1, "C": 1})}, [], [], [], None)
    with pytest.raises(ValueError, match=re.escape(INVALID["flat"][1] + ":")):
        reconstruct_local_euler(sr)


def test_repeated_orbit_id():
    # the loader refuses a repeated id, so the dataset is built by hand
    ds = copy.copy(loads_dataset(chain_doc(3)))
    p = ds.poset
    ds.orbits = ds.orbits + ds.orbits[:1]
    ds.poset = OrbitPoset(p.ids + p.ids[:1], p.dim, p.covers, p.ambient_dim)
    assert "duplicate-orbit" in {v.code for v in validate_dataset(ds)}
    assert _precondition_code(build_constraints, ds, euler_matrix(ds)) == "duplicate-orbit"
    assert _precondition_code(reconstruct_local_euler, _empty_report(ds)) == "duplicate-orbit"


@pytest.mark.parametrize("command", ["solve", "report", "verify", "validate"])
@pytest.mark.parametrize("name", INVALID)
def test_every_command_exits_1_with_the_validator_lines(name, command, tmp_path, capsys):
    doc, _ = INVALID[name]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--dataset", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    lines = [str(v) for v in validate_dataset(loads_dataset(doc))]
    assert lines and all(line in out + err for line in lines)


# -- the contract ----------------------------------------------------------------

@seed(3301)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_edited_duality(involutions=False), _edited_duality(),
                 mutants(BASES["f4a3"]).map(lambda pair: pair[0])))
def test_the_error_rejects_only_what_validate_dataset_rejects(doc):
    ds = loads_dataset(doc)
    codes = {v.code for v in validate_dataset(ds)}
    # without a violation no error, and an error only with the violation it names
    inverted = _precondition_code(reconstruct_local_euler, _empty_report(ds))
    assert inverted is None or inverted in codes
    em = euler_matrix(ds)
    try:
        _copied_rows(ds, em)
    except KeyError as e:
        # an orbit or a local system without an image: the library raises
        # the same error
        assert codes & {"hat-not-total", "fourier-not-total"}
        with pytest.raises(KeyError) as got:
            build_constraints(ds, em)
        assert str(got.value) == str(e)
        return
    code = _precondition_code(build_constraints, ds, em)
    assert code is None or code in codes
