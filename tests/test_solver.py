"""The joint linear system, its exact solution, and the downstream checks."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microloc.affine import AffineInt, ZERO
from microloc.data import loads_dataset, validate_dataset
from microloc.euler import UNKNOWN, MultiplicityMatrices, euler_matrix
from microloc.packets import _classify
from microloc.solver import (Bound, CMatrix, CharacteristicCycle, ComputationError,
                             ConstraintSystem, Equation, InadmissibleAssignment, InconsistentSystem,
                             MultiParameterMultiplicity,
                             SolveReport, _cvar_key, admissible_assignment,
                             build_constraints, characteristic_cycle,
                             check_halfinteger_roots, localization_check_terms,
                             parameter_bounds, reconstruct_local_euler, solve,
                             special_cc_localization, verify_fourier_symmetry)
from chains import chain_doc, middle_corruption, with_kl_value
from golden import CC_TABLE, C_ENTRIES, EULER
from test_constraints import DIAMOND


def pair(v):
    """(constant, c-coefficient) of an affine value in c alone."""
    extra = set(v.coeffs) - {"c"}
    assert not extra, f"unexpected parameters {extra} in {v}"
    return (int(v.constant), int(v.coeffs.get("c", 0)))


def test_system_shape(dataset):
    cs = build_constraints(dataset, euler_matrix(dataset))
    assert len(cs.equations) == 429
    assert len(cs.skipped) == 75
    assert len(cs.unknowns) == 311  # 240 multiplicities + 71 index entries
    kinds = {e.tag[0] for e in cs.equations}
    assert kinds == {"support", "leading", "expansion", "symmetry", "diagonal"}


def test_skips_point_at_unpinned_low_anchors(dataset):
    cs = build_constraints(dataset, euler_matrix(dataset))
    assert {s.anchor for s in cs.skipped} == {"S0", "S1", "S2", "S3", "S6"}


def test_solution_is_deterministic(dataset):
    a = solve(build_constraints(dataset, euler_matrix(dataset)))
    b = solve(build_constraints(dataset, euler_matrix(dataset)))
    assert a.cmatrix.entries == b.cmatrix.entries
    assert a.free_parameters == b.free_parameters
    assert [cc.mult for cc in a.cc_table.values()] == \
        [cc.mult for cc in b.cc_table.values()]


def test_cycle_table_matches_frozen_values(solved):
    assert set(solved.cc_table) == set(CC_TABLE)
    for src, want in CC_TABLE.items():
        cc = solved.cc_table[src]
        got = {o: pair(v) for o, v in cc.mult.items() if v}
        assert got == want, src


def test_characteristic_cycle_accessor(dataset, solved):
    cc = characteristic_cycle(solved, ("S8", "(1)"))
    assert pair(cc.at("S4")) == (-2, 1)
    assert pair(cc.at("S8")) == (1, 0)
    assert cc.at("S0") == ZERO
    with pytest.raises(KeyError):
        characteristic_cycle(solved, ("S8", "(9)"))


def test_index_entries_match_frozen_values(solved):
    for (a, b), want in C_ENTRIES.items():
        assert pair(solved.cmatrix.entry(a, b)) == want, (a, b)


def test_diagonal_normalization(dataset, solved):
    for o in dataset.orbits:
        assert solved.cmatrix.entry(o.id, o.id) == AffineInt((-1) ** o.dim)


def test_free_parameters_and_residuals(solved):
    assert len(solved.free_parameters) == 41
    assert solved.free_parameters[0] == "c"
    assert all(n.startswith("p_") for n in solved.free_parameters[1:])
    assert len(solved.residual_unknowns) == 45
    assert solved.equation_count == 429


def test_single_bound_c_at_least_two(solved):
    assert len(solved.bounds) == 1
    b = solved.bounds[0]
    assert (b.parameter, b.lower, b.upper) == ("c", 2, None)
    assert b.tight_lower_witnesses == [(("S8", "(1)"), "S4")]
    assert b.feasible


def test_bound_against_integer_scan(solved):
    # brute force: an integer value of c is admissible exactly when every
    # cycle multiplicity it produces is nonnegative
    for t in range(-6, 9):
        ok = all(v.substitute({"c": t}) >= 0
                 for cc in solved.cc_table.values()
                 for v in cc.mult.values())
        assert ok == (t >= 2), t


# a and b of a single-parameter multiplicity a + b*p, ints and Fractions
# (integral ones too), with |b| != 1 often enough that -a/b is not an integer
_EXACT = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))


@settings(max_examples=300, deadline=None)
@given(a=_EXACT, b=_EXACT.filter(bool))
def test_bound_and_membership_of_one_entry_match_integer_scan(a, b):
    value = AffineInt(a, {"p": b})
    src = ("O", "(1)")
    sr = SolveReport(dataset=None, cmatrix=CMatrix({}),
                     cc_table={src: CharacteristicCycle(src, {"O": value})},
                     free_parameters=["p"], residual_unknowns=[], skipped=[], bounds=None)
    sr.bounds = parameter_bounds(sr)
    # |-a/b| <= 24, so the scan reaches past the root on both sides
    admissible = [t for t in range(-60, 61) if a + b * t >= 0]
    (bound,) = sr.bounds
    assert bound.parameter == "p"
    if b > 0:
        assert (bound.lower, bound.upper) == (min(admissible), None)
    else:
        assert (bound.lower, bound.upper) == (None, max(admissible))
    zeros = sum(1 for t in admissible if a + b * t == 0)
    want = "out" if zeros == len(admissible) else "in" if not zeros else "indeterminate"
    assert _classify(sr, value) == want


def test_an_entry_whose_root_is_the_only_admissible_value_is_out():
    # lower == upper == root: the entry vanishes at every admissible value;
    # with the root only at one end of a wider range it is indeterminate
    value = AffineInt(-2, {"p": 1})
    src = ("O", "(1)")
    sr = SolveReport(dataset=None, cmatrix=CMatrix({}),
                     cc_table={src: CharacteristicCycle(src, {"O": value})},
                     free_parameters=["p"], residual_unknowns=[], skipped=[],
                     bounds=[Bound("p", 2, 2)])
    assert _classify(sr, value) == "out"
    for lower, upper in [(2, 3), (1, 2), (2, None)]:
        sr.bounds = [Bound("p", lower, upper)]
        assert _classify(sr, value) == "indeterminate"


@pytest.mark.parametrize("n", [None, 3, 6, 9, 12, "diamond"],
                         ids=lambda n: "f4a3" if n is None else f"chain{n}" if n != "diamond" else n)
def test_system_and_solution_values_are_ints(dataset, n):
    ds = dataset if n is None else loads_dataset(DIAMOND if n == "diamond" else chain_doc(n))
    cs = build_constraints(ds, euler_matrix(ds))
    # the row form the solver relies on: each column once, every coefficient
    # a nonzero int, an int right-hand side
    for coeffs, rhs, _ in cs.rows:
        assert len({k for k, _ in coeffs}) == len(coeffs)
        assert all(type(x) is int and x for _, x in coeffs)
        assert type(rhs) is int
    sr = solve(cs)
    values = list(sr.cmatrix.entries.values())
    values += [v for cc in sr.cc_table.values() for v in cc.mult.values()]
    assert all(type(v.constant) is int for v in values)
    assert all(type(x) is int for v in values for x in v.coeffs.values())


def test_negative_dims_keep_every_value_an_int():
    # chain6 with every dim and ambient_dim lowered by 100 (an even shift)
    doc = chain_doc(6)
    doc["ambient_dim"] -= 100
    for o in doc["orbits"]:
        o["dim"] -= 100
    ds = loads_dataset(doc)
    assert validate_dataset(ds) == []
    em = euler_matrix(ds)
    assert all(type(v) is int for v in em.entries.values())
    cs = build_constraints(ds, em)
    assert all(type(x) is int for eq in cs.equations for _, x in eq.coeffs)
    assert all(type(eq.rhs) is int for eq in cs.equations)
    mm = MultiplicityMatrices(ds)
    pairs = [(d, g) for d in ds.local_systems() for g in ds.local_systems()]
    assert all(type(mm.cg(d, g)) is int for d, g in pairs)
    sr = solve(cs)
    base = loads_dataset(chain_doc(6))
    want = solve(build_constraints(base, euler_matrix(base)))
    assert sr.cmatrix.entries == want.cmatrix.entries
    assert {k: cc.mult for k, cc in sr.cc_table.items()} == \
        {k: cc.mult for k, cc in want.cc_table.items()}


def test_admissible_assignment_complaints(solved):
    assert admissible_assignment(solved, {"c": 2}) == []
    assert admissible_assignment(solved, {"c": 7}) == []
    assert admissible_assignment(solved, {"c": 1}) == ["c = 1 violates c >= 2"]
    assert admissible_assignment(solved, {"zz": 3}) == ["unknown parameter 'zz'"]
    assert admissible_assignment(solved, {"p_S0_S1": 12}) == []


def test_upper_bound_complaint(dataset, solved):
    # one cell 2 - c: the bound c <= 2
    src = ("S11", "(4)")
    fake = SolveReport(
        dataset=dataset, cmatrix=solved.cmatrix,
        cc_table={src: CharacteristicCycle(src, {"S4": AffineInt(2, {"c": -1})})},
        free_parameters=["c"], residual_unknowns=[], skipped=[], bounds=None)
    fake.bounds = parameter_bounds(fake)
    assert fake.bounds == [Bound("c", None, 2, [], [(src, "S4")])]
    assert admissible_assignment(fake, {"c": 2}) == []
    assert admissible_assignment(fake, {"c": 3}) == ["c = 3 violates c <= 2"]


def test_fourier_symmetry_of_solution(solved):
    assert verify_fourier_symmetry(solved) == []


def test_fourier_symmetry_mismatches_are_frozen(solved):
    # (S7,(1)) and (S10,(1^2)) are fourier partners and hat fixes S4, swaps
    # S0 with S11 and S1 with S10.  One edit per kind on the (S7,(1)) row:
    # an entry added, one dropped and one changed.
    src, partner = ("S7", "(1)"), ("S10", "(1^2)")
    c = AffineInt.parameter("c")
    mult = dict(solved.cc_table[src].mult)
    mult["S0"] = AffineInt(1)
    del mult["S1"]
    mult["S4"] = c + 2
    sr = copy.copy(solved)
    sr.cc_table = {**solved.cc_table, src: CharacteristicCycle(src, mult)}
    got = verify_fourier_symmetry(sr)
    assert got == [
        (src, "S0", 1, 0), (src, "S1", 0, 1), (src, "S4", c + 2, c + 1),
        (partner, "S4", c + 1, c + 2), (partner, "S10", 1, 0), (partner, "S11", 0, 1),
    ]
    assert all(type(v) is AffineInt for row in got for v in row[2:])
    assert verify_fourier_symmetry(solved) == []


def test_reconstruction_roundtrip(dataset, solved):
    em = euler_matrix(dataset)
    rec = reconstruct_local_euler(solved)
    agree = 0
    for cell, v in em.entries.items():
        if v is UNKNOWN:
            continue
        assert rec.entries[cell] == v, cell
        agree += 1
    assert agree == 165
    assert len(rec.failures) == 75
    assert all("parameter does not cancel" in msg
               or "is not affine" in msg
               or "upstream failure" in msg
               for msg in rec.failures.values())
    for cell, (const, _) in EULER.items():
        assert rec.entries[cell] == const


def test_reconstruction_keeps_a_non_integral_value():
    # two-orbit chain with c(A0,A0) = 2: the value at A0 is 1/2, not 0
    ds = loads_dataset(chain_doc(2))
    src = ("A0", "(1)")
    sr = SolveReport(
        dataset=ds,
        cmatrix=CMatrix({("A0", "A0"): AffineInt(2), ("A0", "A1"): AffineInt(1),
                         ("A1", "A1"): AffineInt(-1)}),
        cc_table={src: CharacteristicCycle(src, {"A0": AffineInt(1)})},
        free_parameters=[], residual_unknowns=[], skipped=[], bounds=None)
    rec = reconstruct_local_euler(sr)
    assert rec.entries[(src, "A0")] == Fraction(1, 2)
    assert rec.entries[(src, "A1")] == 0
    assert not rec.failures


def test_localization_pins_the_exception(dataset, solved):
    loc = special_cc_localization(solved)
    assert loc.source == ("S11", "(1^4)")
    assert loc.mult["S4"] == AffineInt.parameter("c")
    for o in dataset.orbits:
        if o.id != "S4":
            assert loc.mult[o.id] == AffineInt(1)


def test_localization_term_breakdown(dataset):
    terms = localization_check_terms(dataset)[("S4", "(1)")]
    products = [t["product"] for t in terms if t["product"]]
    assert products == [-1, 2, -1]
    assert sum(t["product"] for t in terms) == 0


# The reported subsets, frozen as they were first computed.  Which row
# becomes each pivot decides the combination sets and so the greedy
# reduction's result, so these pin the pivot rule as well.
F4_CONFLICT = [
    ("support", ("S2", "(1^2)"), "S7"),
    ("support", ("S3", "(1)"), "S7"),
    ("leading", ("S7", "(1)")),
    ("expansion", ("S7", "(1)"), "S7"),
    ("expansion", ("S9", "(1)"), "S7"),
    ("expansion", ("S10", "(1)"), "S7"),
    ("expansion", ("S10", "(1^2)"), "S7"),
    ("symmetry", ("S2", "(1^2)"), "S7"),
    ("symmetry", ("S3", "(1)"), "S7"),
    ("symmetry", ("S7", "(1)"), "S7"),
]

CHAIN6_CONFLICT = [
    ("support", ("A0", "(1)"), "A1"),
    ("support", ("A0", "(1)"), "A4"),
    ("leading", ("A1", "(1)")),
    ("expansion", ("A1", "(1)"), "A1"),
    ("support", ("A1", "(1)"), "A4"),
    ("expansion", ("A2", "(1)"), "A1"),
    ("support", ("A2", "(1)"), "A4"),
    ("expansion", ("A3", "(1)"), "A1"),
    ("support", ("A3", "(1)"), "A4"),
    ("expansion", ("A4", "(1)"), "A1"),
    ("leading", ("A4", "(1)")),
    ("expansion", ("A4", "(1)"), "A4"),
    ("expansion", ("A5", "(1)"), "A1"),
    ("expansion", ("A5", "(1)"), "A4"),
    ("expansion", ("A5", "(1^2)"), "A1"),
    ("expansion", ("A5", "(1^2)"), "A4"),
    ("symmetry", ("A0", "(1)"), "A1"),
    ("symmetry", ("A0", "(1)"), "A4"),
    ("symmetry", ("A1", "(1)"), "A4"),
    ("symmetry", ("A2", "(1)"), "A1"),
    ("symmetry", ("A2", "(1)"), "A4"),
    ("symmetry", ("A5", "(1^2)"), "A1"),
]


def test_corrupted_kl_value_reports_minimal_conflict(mutate):
    def corrupt(doc):
        for r in doc["kl"]:
            if r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"]:
                r["value"] = 5
    ds = mutate(corrupt)
    with pytest.raises(InconsistentSystem) as e:
        solve(build_constraints(ds, euler_matrix(ds)))
    assert e.value.tags == F4_CONFLICT


def test_corrupted_chain_reports_frozen_conflict():
    ds = loads_dataset(with_kl_value(chain_doc(6), *middle_corruption(6)))
    with pytest.raises(InconsistentSystem) as e:
        solve(build_constraints(ds, euler_matrix(ds)))
    assert e.value.tags == CHAIN6_CONFLICT


def test_substitute_specializes_the_report(solved):
    assert solved.substitute({}) is solved
    sr = solved.substitute({"c": 2})
    assert solved.free_parameters[0] == "c"
    assert sr.free_parameters == solved.free_parameters[1:]
    assert "S4" not in sr.cc_table[("S8", "(1)")].mult   # c - 2 is 0 at c = 2
    assert sr.cmatrix.entries == {
        k: v.substitute({"c": 2}) + ZERO for k, v in solved.cmatrix.entries.items()}
    assert [b.parameter for b in sr.bounds] == []
    assert solved.cc_table[("S8", "(1)")].at("S4") == AffineInt(-2, {"c": 1})
    with pytest.raises(InadmissibleAssignment) as e:
        solved.substitute({"c": 1, "zz": 3})
    assert e.value.complaints == ["unknown parameter 'zz'", "c = 1 violates c >= 2"]


def _scanned_residual(sr):
    """Every index pair whose entry carries a parameter, sorted by _cvar_key."""
    dims = {o.id: o.dim for o in sr.dataset.orbits}
    return sorted((pair for pair, e in sr.cmatrix.entries.items() if not e.is_constant()),
                  key=lambda p: _cvar_key(p, dims))


def test_residual_unknowns_equal_a_scan_of_every_entry(solved):
    others = {p: i for i, p in enumerate(solved.free_parameters[1:6])}
    reports = [solved, solved.substitute({"c": 2}), solved.substitute({"c": 3, **others}),
               solved.substitute(others)]
    for n in (6, 30):
        ds = loads_dataset(chain_doc(n))
        reports.append(solve(build_constraints(ds, euler_matrix(ds))))
    assert [len(sr.residual_unknowns) for sr in reports] == [45, 40, 35, 40, 0, 0]
    for sr in reports:
        assert sr.residual_unknowns == _scanned_residual(sr)


def test_residual_unknowns_follow_cvar_key_order_on_hand_built_input(chain):
    # the c-pairs listed against _cvar_key order, (A, A) fixed by its row
    ds = chain
    cvars = [("c", "A", "B"), ("c", "A", "A"), ("c", "B", "B")]
    sr = solve(ConstraintSystem(ds, cvars, [Equation(((cvars[1], 1),), -1, ("d", "A"))], []))
    assert sr.residual_unknowns == _scanned_residual(sr) == [("B", "B"), ("A", "B")]
    # a hand-built report that lists no residual unknowns gets them from substitute
    p, c = AffineInt.parameter("p"), AffineInt.parameter("c")
    hand = SolveReport(ds, CMatrix({("A", "B"): p + 1, ("B", "B"): c, ("A", "A"): c + p}),
                       {}, ["c", "p"], [], [], None)
    sr = hand.substitute({"p": 1})
    assert sr.residual_unknowns == _scanned_residual(sr) == [("B", "B"), ("A", "A")]


def test_multi_parameter_multiplicity_raises(dataset, solved):
    two = AffineInt(0, {"c": 1, "p_x": 1})
    fake = SolveReport(
        dataset=dataset, cmatrix=solved.cmatrix,
        cc_table={("S11", "(4)"): CharacteristicCycle(("S11", "(4)"), {"S4": two})},
        free_parameters=["c", "p_x"], residual_unknowns=[], skipped=[],
        bounds=None)
    with pytest.raises(MultiParameterMultiplicity):
        parameter_bounds(fake)


def test_halfinteger_root_check(dataset):
    assert check_halfinteger_roots(dataset.b_function) is True
    assert check_halfinteger_roots([Fraction(-3, 2)]) is False
    assert check_halfinteger_roots([Fraction(-5, 6), Fraction(1, 2)]) is False
    with pytest.raises(ValueError):
        check_halfinteger_roots([])


def test_chain_dataset_solves_with_free_multiplicity(chain):
    sr = solve(build_constraints(chain, euler_matrix(chain)))
    assert sr.cc_table[("A", "(1)")].mult == {"A": AffineInt(1)}
    top_row = sr.cc_table[("B", "(1)")]
    assert top_row.mult["B"] == AffineInt(1)  # leading term is dim L
    # the unpinned coefficient survives as a named free parameter
    leftover = top_row.mult.get("A", ZERO)
    if leftover:
        assert leftover.coeffs and all(n.startswith("q_") for n in leftover.coeffs)
