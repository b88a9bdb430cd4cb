"""The eliminator against an independent solver: sympy's rref over QQ.

Each system is written out as a dense augmented matrix, columns in the
order of cs.unknowns and the right-hand side last.  The pivot columns of
an rref do not depend on which rows were chosen as pivots, and neither do
its pivot rows, so _eliminate must reproduce both exactly.  A system is
inconsistent exactly when the augmented rref has a pivot in the last
column; _eliminate must then report a conflict, and the tags solve raises
with must name a subset that sympy also finds inconsistent, and that turns
consistent when any one of its equations is dropped.
"""

import copy
from fractions import Fraction

import pytest

from microloc.data import loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import InconsistentSystem, _eliminate, build_constraints, solve
from chains import SIGN, chain_doc, middle_corruption, orbit_id, with_kl_value

sympy = pytest.importorskip("sympy")

CHAIN_SIZES = (5, 6, 9, 12)

# P(target <- source) in the bundled case, raised by one: six inconsistent
# systems and four that stay consistent
F4_BUMPS = [
    (("S9", "(1)"), ("S10", "(1)")),
    (("S10", None), ("S11", "(31)")),
    (("S7", None), ("S9", "(1^2)")),
    (("S9", None), ("S10", "(1^2)")),
    (("S5", None), ("S11", "(4)")),
    (("S8", None), ("S11", "(31)")),
    (("S7", None), ("S8", "(1)")),
    (("S4", None), ("S8", "(1)")),
    (("S4", None), ("S11", "(1^4)")),
    (("S5", None), ("S7", "(1)")),
]


def _system(doc):
    ds = loads_dataset(doc)
    return build_constraints(ds, euler_matrix(ds))


def _rref(equations, unknowns):
    """Pivot columns and rows of the augmented rref, rows as {column: Fraction}."""
    col = {v: j for j, v in enumerate(unknowns)}
    n = len(unknowns)
    M = sympy.zeros(len(equations), n + 1)
    for i, eq in enumerate(equations):
        for v, c in eq.coeffs:
            M[i, col[v]] = sympy.Rational(c.numerator, c.denominator)
        M[i, n] = sympy.Rational(eq.rhs.numerator, eq.rhs.denominator)
    R, pivots = M.rref()
    rows = [{} for _ in pivots]
    for (i, j), x in R.todok().items():
        if i < len(pivots):
            rows[i][j] = Fraction(int(x.p), int(x.q))
    return list(pivots), rows


def _consistent(equations):
    unknowns = list(dict.fromkeys(v for eq in equations for v, _ in eq.coeffs))
    return len(unknowns) not in _rref(equations, unknowns)[0]


def _check_against_rref(cs):
    """Compare _eliminate with sympy; returns whether sympy finds a solution."""
    n = len(cs.unknowns)
    pivots, rows, rhss, conflict, _ = _eliminate(cs.equations, cs.unknowns)
    ref_pivots, ref_rows = _rref(cs.equations, cs.unknowns)
    consistent = n not in ref_pivots
    assert (conflict is None) == consistent

    assert set(pivots) == {cs.unknowns[p] for p in ref_pivots if p < n}
    for p, ref in zip(ref_pivots, ref_rows):
        if p == n:
            continue
        i = pivots[cs.unknowns[p]]
        rhs = ref.pop(n, Fraction(0))
        assert {v: x for v, x in rows[i].items() if x} == \
            {cs.unknowns[j]: x for j, x in ref.items()}, cs.unknowns[p]
        if consistent:
            assert rhss[i] == rhs, cs.unknowns[p]
    return consistent


def _check_minimal_conflict(cs):
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    by_tag = {eq.tag: eq for eq in cs.equations}
    subset = [by_tag[t] for t in e.value.tags]
    assert not _consistent(subset)
    for k in range(len(subset)):
        assert _consistent(subset[:k] + subset[k + 1:]), e.value.tags[k]


def test_bundled_system_matches_rref(dataset):
    cs = build_constraints(dataset, euler_matrix(dataset))
    assert _check_against_rref(cs)


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_chain_system_matches_rref(n):
    assert _check_against_rref(_system(chain_doc(n)))


@pytest.mark.parametrize("target, source", F4_BUMPS)
def test_bundled_corruption_conflicts_iff_inconsistent(bundled_doc, target, source):
    doc = copy.deepcopy(bundled_doc)
    (rec,) = [r for r in doc["kl"]
              if tuple(r["target"]) == target and tuple(r["source"]) == source]
    rec["value"] += 1
    cs = _system(doc)
    if not _check_against_rref(cs):
        _check_minimal_conflict(cs)


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_chain_corruption_conflicts_iff_inconsistent(n):
    top = orbit_id(n - 1)
    for target, source, value in [middle_corruption(n),
                                  ((orbit_id(n - 2), "(1)"), (top, SIGN), 1)]:
        cs = _system(with_kl_value(chain_doc(n), target, source, value))
        assert not _check_against_rref(cs)
        _check_minimal_conflict(cs)
