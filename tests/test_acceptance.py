"""Acceptance gate: one test per published claim the package must reproduce.

Run with -v to get one pass/fail line per criterion.  Every expected value
here is frozen; nothing is recomputed from the package's own output.
"""

import copy

import pytest

from microloc.affine import AffineInt
from microloc.data import validate_dataset
from microloc.euler import UNKNOWN, euler_matrix
from microloc.packets import (all_micro_packets, basic_arthur_packet,
                              verify_az_micro_compatibility,
                              verify_weak_equals_union)
from microloc.solver import (build_constraints, check_halfinteger_roots,
                             localization_check_terms, reconstruct_local_euler,
                             solve, special_cc_localization,
                             verify_fourier_symmetry)
from golden import CC_TABLE, C_ENTRIES, PACKETS


def as_pair(v):
    extra = set(v.coeffs) - {"c"}
    assert not extra, f"unexpected parameters {extra} in {v}"
    return (int(v.constant), int(v.coeffs.get("c", 0)))


def test_criterion_01_characteristic_cycle_table(solved):
    """Every cycle row matches the frozen table, affine in the single c."""
    assert set(solved.cc_table) == set(CC_TABLE)
    for src, want in CC_TABLE.items():
        got = {o: as_pair(v) for o, v in solved.cc_table[src].mult.items() if v}
        assert got == want, src
    # the four parameter-bearing multiplicities, spelled out
    assert as_pair(solved.cc_table[("S7", "(1)")].mult["S4"]) == (1, 1)
    assert as_pair(solved.cc_table[("S8", "(1)")].mult["S4"]) == (-2, 1)
    assert as_pair(solved.cc_table[("S9", "(1^2)")].mult["S4"]) == (0, 1)
    assert as_pair(solved.cc_table[("S10", "(1^2)")].mult["S4"]) == (1, 1)


def test_criterion_02_localization_pins_the_dense_exception(dataset, solved):
    """The open-orbit sign sheaf's cycle is all ones except c on S4."""
    loc = special_cc_localization(solved)
    for o in dataset.orbits:
        want = AffineInt.parameter("c") if o.id == "S4" else AffineInt(1)
        assert loc.mult[o.id] == want, o.id
    terms = localization_check_terms(dataset)[("S4", "(1)")]
    assert [t["product"] for t in terms if t["product"]] == [-1, 2, -1]
    assert sum(t["product"] for t in terms) == 0


def test_criterion_03_index_matrix_entries(solved):
    """All determined index entries match the frozen appendix values."""
    for (a, b), want in C_ENTRIES.items():
        assert as_pair(solved.cmatrix.entry(a, b)) == want, (a, b)
    e = solved.cmatrix.entry
    assert e("S10", "S11") == AffineInt(1)
    assert e("S8", "S10") == AffineInt(-2) and e("S8", "S11") == AffineInt(1)
    assert e("S9", "S10") == AffineInt(-2) and e("S9", "S11") == AffineInt(1)
    assert e("S5", "S7") == AffineInt(-2)
    assert e("S7", "S8") == AffineInt(2)
    assert e("S4", "S9") == AffineInt(1) + AffineInt.parameter("c")


def test_criterion_04_parameter_bound(solved):
    """Nonnegativity forces exactly c >= 2 and nothing else."""
    (b,) = solved.bounds
    assert (b.parameter, b.lower, b.upper) == ("c", 2, None)
    assert b.tight_lower_witnesses == [(("S8", "(1)"), "S4")]
    assert b.tight_upper_witnesses == []


def test_criterion_05_micro_and_basic_packets(dataset, solved):
    """The five definite micro-packets and the basic packet, member for member."""
    packets = all_micro_packets(solved)
    for anchor in ["S0", "S1", "S2", "S3", "S7"]:
        want_members, want_ind = PACKETS[anchor]
        assert tuple(sorted(packets[anchor].members)) == want_members, anchor
        assert want_ind == () and packets[anchor].indeterminate == ()
    basic = basic_arthur_packet(solved)
    assert basic.members == ("X5", "X13", "X17", "X19", "X20")
    assert set(basic.members) == set(packets["S0"].members)


def test_criterion_06_weak_union_and_az_compatibility(dataset, solved):
    """Weak packet = union of dual micro-packets; az image matches per anchor."""
    r = verify_weak_equals_union(solved)
    assert r.equal
    assert len(r.weak.members) == 11
    reports = verify_az_micro_compatibility(solved)
    assert [x.anchor for x in reports] == ["S0", "S1", "S2", "S3", "S7"]
    assert all(x.ok for x in reports)
    assert reports[-1].dual_anchor == "S7"  # the fixed point checks itself


def test_criterion_07_fourier_symmetry_identities(dataset, solved):
    """All 240 transform identities hold exactly on the solved table."""
    assert verify_fourier_symmetry(solved) == []
    n = len(dataset.local_systems()) * len(dataset.orbits)
    assert n == 240


def test_criterion_08_euler_reconstruction_roundtrip(dataset, solved):
    """Inverting the solved cycles reproduces every pinned evaluation."""
    em = euler_matrix(dataset)
    rec = reconstruct_local_euler(solved)
    for cell, v in em.entries.items():
        if v is not UNKNOWN:
            assert rec.entries[cell] == v, cell
    assert rec.entries[(("S11", "(4)"), "S10")] == 1
    assert rec.entries[(("S10", "(1)"), "S9")] == -2
    assert rec.entries[(("S11", "(22)"), "S11")] == 2
    assert rec.entries[(("S11", "(31)"), "S11")] == 3


def test_criterion_09_b_function_roots(dataset):
    """No half-integer among the twelve stored roots."""
    from fractions import Fraction
    assert sorted(set(dataset.b_function)) == [
        Fraction(-5, 4), Fraction(-7, 6), Fraction(-1),
        Fraction(-5, 6), Fraction(-3, 4)]
    assert check_halfinteger_roots(dataset.b_function) is True


def test_criterion_10_mutation_robustness(dataset, mutate):
    """Three documented mutations each fail validation; the original is clean."""
    assert validate_dataset(dataset) == []

    def reversed_cover(doc):
        i = doc["covers"].index(["S10", "S11"])
        doc["covers"][i] = ["S11", "S10"]

    def broken_hat(doc):
        i = doc["duality"]["hat"].index(["S5", "S6"])
        doc["duality"]["hat"][i] = ["S6", "S6"]

    def swapped_az(doc):
        by_id = {r["id"]: r for r in doc["catalog"]}
        by_id["X1"]["az"] = "X19"

    expected = [(reversed_cover, "cover-dim"),
                (broken_hat, "hat-not-total"),
                (swapped_az, "az-not-involutive")]
    for fn, code in expected:
        violations = validate_dataset(mutate(fn))
        assert violations, fn.__name__
        assert any(v.code == code for v in violations), (fn.__name__, violations)
