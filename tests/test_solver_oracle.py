"""The eliminator against an independent solver: sympy's rref over QQ.

Each system is written out as a dense augmented matrix, columns in the
order of cs.unknowns and the right-hand side last.  The pivot columns of
an rref do not depend on which rows were chosen as pivots, and neither do
its pivot rows, so _eliminate must reproduce both exactly.  A system is
inconsistent exactly when the augmented rref has a pivot in the last
column; _eliminate must then report a conflict, and the tags solve raises
with must name a subset that sympy also finds inconsistent, and that turns
consistent when any one of its equations is dropped.

Small random systems over Q, whose pivots are not all 1 or -1, are
compared the same way.  On every system each value _eliminate returns
must be an int or a non-integral Fraction, never a float.

The greedy reduction behind that subset is also checked on small random
systems, where it does drop equations, against a copy of its first form
that re-eliminates the remaining suspects once per trial.

The suspects that reduction starts from are the input equations combined
into the conflicting row.  A copy of the eliminator that keeps one set of
them per row, as _eliminate first did, is the reference for the suspects
solve starts from, and for every row's set that _combined replays from
_eliminate's merge log.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from microloc.affine import div, exact
from microloc.data import loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import ConstraintSystem, Equation, InconsistentSystem, _combined, \
    _eliminate, _minimal_conflict, build_constraints, solve
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


def _exact_value(x):
    """An int, or a Fraction that is not integral: never a float."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def _check_against_rref(cs):
    """Compare _eliminate with sympy; returns whether sympy finds a solution."""
    n = len(cs.unknowns)
    pivots, rows, rhss, conflict, _ = _eliminate(cs.equations, cs.unknowns)
    assert all(_exact_value(x) for row in rows for x in row.values())
    assert all(_exact_value(x) for x in rhss)
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


# -- pivots other than 1 and -1 ---------------------------------------------

# the bundled and chain systems only ever pivot on 1 or -1; these reach the
# exact division, with integral and non-integral quotients
_SMALL = st.integers(-3, 3)
_RATIONAL = _SMALL | st.builds(Fraction, _SMALL, st.sampled_from([2, 3]))


@st.composite
def _rational_systems(draw):
    """Up to 6 unknowns and 9 equations over _RATIONAL, consistent or not."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 9))
    rows = draw(st.lists(st.tuples(st.lists(_RATIONAL, min_size=n, max_size=n), _RATIONAL),
                         min_size=m, max_size=m))
    return ConstraintSystem(None, [("x", k) for k in range(n)], _equations(rows), [])


@settings(max_examples=300, deadline=None)
@given(_rational_systems())
def test_random_rational_system_matches_rref(cs):
    _check_against_rref(cs)


# -- the drop branch of the greedy reduction ------------------------------

def _drop_one_reference(equations, suspects, var_order):
    """The deletion filter as first written: one elimination per trial."""
    current = sorted(suspects)
    for i in list(current):
        trial = [j for j in current if j != i]
        _, _, _, conflict, _ = _eliminate([equations[j] for j in trial], var_order)
        if conflict is not None:
            current = trial
    return current


def _equations(rows):
    """Equations from (coefficients, rhs) pairs over unknowns ("x", k)."""
    return [Equation(tuple((("x", k), Fraction(c)) for k, c in enumerate(coeffs) if c),
                     Fraction(rhs), ("eq", i))
            for i, (coeffs, rhs) in enumerate(rows)]


@st.composite
def _inconsistent_systems(draw):
    """Up to 6 unknowns and 9 equations, coefficients in [-2, 2], no solution."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(2, 9))
    coeff = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff),
                         min_size=m, max_size=m))
    equations = _equations(rows)
    assume(not _consistent(equations))
    return equations, [("x", k) for k in range(n)]


@settings(max_examples=300, deadline=None)
@given(_inconsistent_systems())
def test_minimal_conflict_matches_drop_one_reference(system):
    equations, unknowns = system
    suspects = set(range(len(equations)))
    subset = _minimal_conflict(equations, suspects, unknowns)
    assert subset == _drop_one_reference(equations, suspects, unknowns)
    chosen = [equations[i] for i in subset]
    assert not _consistent(chosen)
    for k in range(len(chosen)):
        assert _consistent(chosen[:k] + chosen[k + 1:]), subset[k]
    _check_conflict_against_comb_reference(ConstraintSystem(None, unknowns, equations, []))


def test_minimal_conflict_drops_equations():
    # x = 1, x = 2, y = 0, x + y = 1, 2x = 4: the first two trials leave an
    # inconsistent rest and drop x = 1 and x = 2; the last three are kept
    equations = _equations([((1, 0), 1), ((1, 0), 2), ((0, 1), 0), ((1, 1), 1), ((2, 0), 4)])
    unknowns = [("x", 0), ("x", 1)]
    assert _minimal_conflict(equations, set(range(5)), unknowns) == [2, 3, 4]
    assert _drop_one_reference(equations, set(range(5)), unknowns) == [2, 3, 4]


# -- the suspects: equations combined into the conflicting row --------------

def _comb_eliminate(equations, var_order):
    """_eliminate with one set per working row of the input equations
    combined into it, as first written: (pivots, rows, rhss, conflict, comb)."""
    rows = [{k: x if type(x) is int else exact(x) for k, x in eq.coeffs}
            for eq in equations]
    rhss = [exact(eq.rhs) for eq in equations]
    comb = [{i} for i in range(len(rows))]
    column = {}
    for i, row in enumerate(rows):
        for k, val in row.items():
            if val:
                column.setdefault(k, set()).add(i)
    pivots = {}
    used = set()
    for v in var_order:
        holders = column.get(v, ())
        cand = [j for j in holders if j not in used]
        if not cand:
            continue
        i = min(cand, key=lambda j: (len(rows[j]), j))
        pivot_row = rows[i]
        piv = pivot_row[v]
        if piv != 1:
            rows[i] = pivot_row = {k: div(val, piv) for k, val in pivot_row.items()}
            rhss[i] = div(rhss[i], piv)
        for j in sorted(holders):
            if j == i:
                continue
            row = rows[j]
            f = row[v]
            for k, val in pivot_row.items():
                old = row.get(k, 0)
                nv = old - f * val
                if nv:
                    if type(nv) is not int:
                        nv = exact(nv)
                    if not old:
                        column.setdefault(k, set()).add(j)
                    row[k] = nv
                elif row.pop(k, None):
                    column[k].discard(j)
            nv = rhss[j] - f * rhss[i]
            rhss[j] = nv if type(nv) is int else exact(nv)
            comb[j] |= comb[i]
        pivots[v] = i
        used.add(i)
    conflict = None
    for i in range(len(rows)):
        if i not in used and not rows[i] and rhss[i] != 0:
            conflict = i
            break
    return pivots, rows, rhss, conflict, comb


def _check_conflict_against_comb_reference(cs):
    """solve raises the tags the reduction gives from the reference's suspects."""
    *_, conflict, comb = _comb_eliminate(cs.equations, cs.unknowns)
    assert conflict is not None
    subset = _minimal_conflict(cs.equations, comb[conflict], cs.unknowns)
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == [cs.equations[i].tag for i in subset]


def test_bundled_conflict_suspects_match_comb_reference(bundled_doc):
    doc = copy.deepcopy(bundled_doc)
    (rec,) = [r for r in doc["kl"]
              if r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"]]
    rec["value"] = 5
    _check_conflict_against_comb_reference(_system(doc))


@pytest.mark.parametrize("n", [6, 9, 12, 18, 24])
def test_chain_conflict_suspects_match_comb_reference(n):
    _check_conflict_against_comb_reference(
        _system(with_kl_value(chain_doc(n), *middle_corruption(n))))


def _check_merge_log(cs):
    """_eliminate equals the comb-set copy, and its log replays every set."""
    pivots, rows, rhss, conflict, merges = _eliminate(cs.equations, cs.unknowns)
    ref_pivots, ref_rows, ref_rhss, ref_conflict, comb = \
        _comb_eliminate(cs.equations, cs.unknowns)
    assert list(pivots.items()) == list(ref_pivots.items())
    assert [[(k, type(x), x) for k, x in row.items()] for row in rows] == \
        [[(k, type(x), x) for k, x in row.items()] for row in ref_rows]
    assert [(type(x), x) for x in rhss] == [(type(x), x) for x in ref_rhss]
    assert conflict == ref_conflict
    assert [_combined(merges, r) for r in range(len(rows))] == comb


def test_merge_log_replays_comb_sets_on_bundled_system(dataset):
    _check_merge_log(build_constraints(dataset, euler_matrix(dataset)))


@pytest.mark.parametrize("n", [6, 9, 12])
def test_merge_log_replays_comb_sets_on_chain(n):
    _check_merge_log(_system(chain_doc(n)))


@settings(max_examples=300, deadline=None)
@given(_rational_systems())
def test_merge_log_replays_comb_sets_on_random_systems(cs):
    _check_merge_log(cs)
