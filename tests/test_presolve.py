"""solve's presolved path against an independent solver: sympy's rref over QQ.

solve merges equal pairs, propagates singleton pins and eliminates only the
rows left over.  For a fixed column order the RREF is unique, so every
c- and m-expression solve returns must be the rref's: a pivot column p
reads x_p = b - sum over free columns f of R[p, f] * x_f, and a free column
is its own parameter.  The free parameters must be exactly the names of
the non-pivot columns.  The check runs on every consistent system of
tests/test_solver_conflict.py and on hand-built systems with equality rows,
singleton rows with non-unit and rational coefficients, chains of
singletons and explicit zero coefficients, over unknowns shaped like
build_constraints' own, so that free classes get p_ and q_ names.

A conflict that the presolve finds must raise the tags of one full
elimination of the system, also when two parts over disjoint unknowns
conflict at once, and what reaches _eliminate on a successful solve is
pinned row by row and column by column.  So is what reaches the
union-find and the queue (every pin the queue takes goes through _find):
only the columns the presolve rows hold and their images, on chains 6 to
60 and on the bundled case.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from microloc import solver
from microloc.affine import AffineInt, exact
from microloc.data import loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import ConstraintSystem, Equation, InconsistentSystem, _combined, \
    _eliminate, _minimal_conflict, _presolve, build_constraints, solve
from chains import chain_doc
from test_solver_conflict import CASES, _residual_failures, systems  # noqa: F401  (fixture)
from test_solver_oracle import CHAIN_SIZES, _exact_value, _rref


def _name(v, short_pair):
    """The parameter name solve's docstring gives a free unknown v."""
    if v[0] == "c":
        return "c" if v == short_pair else f"p_{v[1]}_{v[2]}"
    return f"q_{v[2]}_{v[1][0]}_{v[1][1]}"


def _solved_value(sr, v):
    if v[0] == "m":
        return sr.cc_table[v[1]].at(v[2])
    return sr.cmatrix.entry(v[1], v[2])


def _check_solve_against_rref(cs):
    ds = cs.dataset
    short_pair = None
    if len(ds.conormal_dense_exceptions) == 1:
        short_pair = ("c", ds.conormal_dense_exceptions[0], ds.poset.top())
    sr = solve(cs)
    n = len(cs.unknowns)
    ref_pivots, ref_rows = _rref(cs.equations, cs.unknowns)
    assert n not in ref_pivots
    free = [v for j, v in enumerate(cs.unknowns) if j not in set(ref_pivots)]
    assert sorted(sr.free_parameters) == sorted(_name(v, short_pair) for v in free)
    for v in free:
        assert _solved_value(sr, v) == AffineInt.parameter(_name(v, short_pair)), v
    for p, row in zip(ref_pivots, ref_rows):
        rhs = row.pop(n, 0)
        want = AffineInt(rhs, {_name(cs.unknowns[k], short_pair): -x
                               for k, x in row.items() if k != p})
        got = _solved_value(sr, cs.unknowns[p])
        assert got == want, cs.unknowns[p]
        assert _exact_value(got.constant) and all(map(_exact_value, got.coeffs.values()))
    return sr


@pytest.mark.parametrize("name", CASES)
def test_solve_matches_rref(systems, name):  # noqa: F811
    cs = systems[name]
    if len(cs.unknowns) in _rref(cs.equations, cs.unknowns)[0]:
        # six of the F4 bumps are inconsistent
        with pytest.raises(InconsistentSystem):
            solve(cs)
    else:
        _check_solve_against_rref(cs)


# -- hand-built systems ------------------------------------------------------

ORBITS = ("O0", "O1", "O2", "O3")
SOURCES = (("O0", "(1)"), ("O2", "(1)"), ("O3", "(1)"), ("O3", "(1^2)"))
# the pair that solve names "c" when it is free: (the exception, the top)
DATASET = SimpleNamespace(
    poset=SimpleNamespace(top=lambda: "O3"),
    conormal_dense_exceptions=["O1"],
    orbits=[SimpleNamespace(id=o, dim=k) for k, o in enumerate(ORBITS)],
    local_systems=lambda: list(SOURCES),
)
MVARS = [("m", src, t) for src in SOURCES[:2] for t in ("O1", "O2")] + \
    [("m", SOURCES[3], "O0")]
CVARS = [("c", "O3", "O3"), ("c", "O2", "O3"), ("c", "O1", "O3"), ("c", "O0", "O2")]
UNKNOWNS = MVARS + CVARS

_NONZERO = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)])
_VALUE = st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(5, 3)])


@st.composite
def _hand_built(draw, pool=UNKNOWNS):
    """A consistent system over a subset of pool, and the point it holds at.

    The rows are equality rows between unknowns of one value, singleton
    rows, two-entry links that chain singletons along, and longer rows;
    any row may carry an explicit zero coefficient.
    """
    unknowns = [v for v in pool if draw(st.booleans())] or [pool[0]]
    point = {v: draw(_VALUE) for v in unknowns}
    pick = st.sampled_from(unknowns)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["equal", "single", "link", "long"]))
        if kind == "equal":
            a = draw(pick)
            same = [v for v in unknowns if v != a and point[v] == point[a]]
            if not same:
                continue
            k = draw(_NONZERO)
            coeffs = [(a, k), (draw(st.sampled_from(same)), -k)]
        elif kind == "single":
            coeffs = [(draw(pick), draw(_NONZERO))]
        elif kind == "link":
            a, b = draw(pick), draw(pick)
            if a == b:
                continue
            coeffs = [(a, draw(_NONZERO)), (b, draw(_NONZERO))]
        else:
            if len(unknowns) < 3:
                continue
            vs = draw(st.lists(pick, min_size=3, max_size=min(5, len(unknowns)), unique=True))
            coeffs = [(v, draw(_NONZERO)) for v in vs]
        if draw(st.integers(0, 4)) == 0:
            coeffs.insert(draw(st.integers(0, len(coeffs))), (draw(pick), 0))
            if len({v for v, _ in coeffs}) < len(coeffs):
                continue
        rhs = exact(sum(Fraction(x) * point[v] for v, x in coeffs))
        rows.append((tuple(coeffs), rhs))
    equations = [Equation(coeffs, rhs, ("eq", i)) for i, (coeffs, rhs) in enumerate(rows)]
    return ConstraintSystem(DATASET, unknowns, equations, []), point


@settings(max_examples=200, deadline=None)
@given(_hand_built())
def test_hand_built_solve_matches_rref(system):
    cs, point = system
    sr = _check_solve_against_rref(cs)
    if not sr.free_parameters:
        # the point solves the system, so a unique solution is the point
        assert {v: _solved_value(sr, v) for v in point} == point


@st.composite
def _two_parts(draw):
    """Two systems of _hand_built over disjoint halves of UNKNOWNS, the rows
    of the second after those of the first, and one row index in each part.

    Returns (unknowns in UNKNOWNS order, equations, the row indices).
    """
    unknowns, equations, picked = set(), [], []
    for half in (UNKNOWNS[::2], UNKNOWNS[1::2]):
        cs, _ = draw(_hand_built(half))
        if cs.equations:
            picked.append(len(equations) + draw(st.integers(0, len(cs.equations) - 1)))
        unknowns.update(cs.unknowns)
        equations += cs.equations
    return [v for v in UNKNOWNS if v in unknowns], equations, picked


@settings(max_examples=200, deadline=None)
@given(_two_parts(), st.sampled_from([1, -1, Fraction(1, 2)]))
def test_hand_built_conflict_tags_equal_full_elimination(system, shift):
    # the two parts share no unknown, so shifting one equation in each can
    # make unconnected parts of the system conflict at once
    unknowns, equations, picked = system
    assume(equations)
    equations = [Equation(e.coeffs, e.rhs + shift if i in picked else e.rhs, ("eq", i))
                 for i, e in enumerate(equations)]
    cs = ConstraintSystem(DATASET, unknowns, equations, [])
    cols = list(range(len(cs.unknowns)))
    _, _, _, conflict, merges = _eliminate(cs.rows, cols)
    if conflict is None:
        _check_solve_against_rref(cs)
        return
    want = _minimal_conflict(cs.rows, _combined(merges, conflict), cols)
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == [cs.rows[j][2] for j in want]


def test_free_m_class_is_named_after_its_latest_member():
    # m[(O0,(1)), O1] = m[(O2,(1)), O2] = m[(O3,(1^2)), O0], nothing else:
    # the class stays free under the name of its latest unknown
    a, b, z = MVARS[0], MVARS[3], MVARS[4]
    cs = ConstraintSystem(DATASET, [a, b, z], [
        Equation(((a, 1), (b, -1)), 0, ("symmetry", 0)),
        Equation(((z, -2), (b, 2)), 0, ("symmetry", 1))], [])
    sr = _check_solve_against_rref(cs)
    assert sr.free_parameters == ["q_O0_O3_(1^2)"]


def test_short_name_c_for_the_exception_top_pair():
    c = ("c", "O1", "O3")
    d = ("c", "O0", "O2")
    cs = ConstraintSystem(DATASET, [d, c], [Equation(((d, 3), (c, -1)), 1, ("eq", 0))], [])
    sr = _check_solve_against_rref(cs)
    assert sr.free_parameters == ["c"]
    assert str(sr.cmatrix.entry("O0", "O2")) == "1/3c+1/3"


def test_hand_built_rows_take_the_row_form():
    # x + x = 2 is 2x = 2, so x = 1; the zero coefficient goes, and 4/2 is
    # stored as the int 2
    x, y = MVARS[0], MVARS[1]
    cs = ConstraintSystem(DATASET, [x, y], [
        Equation(((x, 1), (x, 1)), 2, ("expansion", "xx")),
        Equation(((y, Fraction(4, 2)), (x, 0)), Fraction(4, 2), ("support", "y"))], [])
    assert cs.rows == [(((0, 2),), 2, ("expansion", "xx")), (((1, 2),), 2, ("support", "y"))]
    assert cs.equations == [Equation(((x, 2),), 2, ("expansion", "xx")),
                            Equation(((y, 2),), 2, ("support", "y"))]
    assert all(type(v) is int for coeffs, rhs, _ in cs.rows for v in (coeffs[0][1], rhs))
    sr = solve(cs)
    assert (_solved_value(sr, x), _solved_value(sr, y)) == (1, 1)
    assert _residual_failures(cs, sr) == []


# -- conflicts the presolve finds ---------------------------------------------

X, Y, Z = MVARS[0], MVARS[1], MVARS[2]


def _conflict_tags(equations):
    cs = ConstraintSystem(DATASET, [X, Y, Z], equations, [])
    assert _presolve(cs.rows)[1]
    _, _, _, conflict, merges = _eliminate(cs.rows, range(3))
    assert conflict is not None
    want = [cs.rows[j][2] for j in _minimal_conflict(cs.rows, _combined(merges, conflict),
                                                        range(3))]
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == want
    return want


def test_two_pins_of_one_class_conflict():
    # x = y, 2x = 2, 3y = 6: the second pin reduces to 0 = 3
    tags = _conflict_tags([
        Equation(((X, 1), (Y, -1)), 0, ("symmetry", "xy")),
        Equation(((Z, 1),), 5, ("support", "z")),
        Equation(((X, 2),), 2, ("support", "x")),
        Equation(((Y, 3),), 6, ("leading", "y"))])
    assert tags == [("symmetry", "xy"), ("support", "x"), ("leading", "y")]


def test_propagation_that_empties_a_row_conflicts():
    # x = 1, y = 2, x + y + 0z = 4: the pins leave 0 = 1
    tags = _conflict_tags([
        Equation(((X, 1), (Y, 1), (Z, 0)), 4, ("expansion", "xy")),
        Equation(((X, 1),), 1, ("support", "x")),
        Equation(((Y, 1),), 2, ("support", "y"))])
    assert tags == [("expansion", "xy"), ("support", "x"), ("support", "y")]


def test_row_of_zero_coefficients_conflicts():
    tags = _conflict_tags([Equation(((X, 1),), 1, ("support", "x")),
                           Equation(((Y, 0), (Z, 0)), 2, ("expansion", "zero"))])
    assert tags == [("expansion", "zero")]


def test_repeated_column_that_cancels_conflicts():
    tags = _conflict_tags([Equation(((Y, 1),), 1, ("support", "y")),
                           Equation(((X, 1), (X, -1)), 2, ("expansion", "xx"))])
    assert tags == [("expansion", "xx")]


def test_conflicts_in_unconnected_parts():
    # y + z = 1 and y + z = 2 share no column with x = 1 and 2x = 3; the
    # pins contradict row 1 (2x = 3 is pinned first), the elimination row
    # 2, and one elimination of the whole system meets row 2 first
    equations = [Equation(((Y, 1), (Z, 1)), 1, ("expansion", "yz1")),
                 Equation(((X, 1),), 1, ("support", "x")),
                 Equation(((Y, 1), (Z, 1)), 2, ("expansion", "yz2")),
                 Equation(((X, 2),), 3, ("leading", "x"))]
    assert _presolve(ConstraintSystem(DATASET, [X, Y, Z], equations, []).rows)[1] == [1, 2]
    assert _conflict_tags(equations) == [("expansion", "yz1"), ("expansion", "yz2")]


@pytest.mark.parametrize("coeffs", [((X, 1), (Y, 1)), ((X, 2), (Y, -1)), ((X, -1), (Y, -1))])
def test_symmetry_row_without_opposite_coefficients_is_not_merged(coeffs):
    cs = ConstraintSystem(DATASET, [X, Y], [Equation(coeffs, 0, ("symmetry", "xy"))], [])
    sr = _check_solve_against_rref(cs)
    (k, x), (_, y) = coeffs
    assert _solved_value(sr, X) == AffineInt.parameter(_name(Y, None), -Fraction(y, x))


def test_symmetry_row_with_a_right_hand_side_is_not_merged():
    cs = ConstraintSystem(DATASET, [X, Y], [Equation(((X, 1), (Y, -1)), 2, ("symmetry", 0))], [])
    sr = _check_solve_against_rref(cs)
    assert str(_solved_value(sr, X)) == "q_O2_O0_(1)+2"


# -- what reaches _eliminate ----------------------------------------------------

def _eliminated(monkeypatch, cs):
    """(rows, columns) of each _eliminate call that one solve of cs makes."""
    calls = []

    def record(equations, var_order):
        assert all(tag is None for _, _, tag in equations)
        calls.append((len(equations), len(var_order)))
        return eliminate(equations, var_order)

    eliminate = solver._eliminate
    monkeypatch.setattr(solver, "_eliminate", record)
    solve(cs)
    return calls


def test_what_reaches_elimination(systems, monkeypatch):  # noqa: F811
    # F4(a3): 30 rows over 21 columns of 429 x 311; the chains are settled
    # by merging and pinning alone
    assert _eliminated(monkeypatch, systems["f4a3"]) == [(30, 21)]
    for n in CHAIN_SIZES:
        assert _eliminated(monkeypatch, systems[f"chain{n}"]) == [(0, 0)]


# -- what reaches the union-find and the queue ----------------------------------

_FIND = solver._find


def _held(cs):
    """The columns cs's presolve rows hold, and their images."""
    held = {k for coeffs, _, _ in cs.presolve_rows for k, _ in coeffs}
    return held | {cs.image[a] for a in held if a < len(cs.image)}


def _found(monkeypatch, cs):
    """The columns _find is called on in one solve of cs: the image pairs
    and equality rows the union-find joins, and the column of every pin the
    queue takes."""
    seen = []

    def find(parent, k):
        seen.append(k)
        return _FIND(parent, k)

    monkeypatch.setattr(solver, "_find", find)
    solve(cs)
    return seen


@pytest.mark.parametrize("n", [6, 9, 12, 18, 24, 30, 60])
def test_what_reaches_the_union_find_on_a_chain(n, monkeypatch):
    # every chain anchor is settled, so the presolve rows are the n diagonal
    # rows; their c(t, t) columns are the only ones held, and each reaches
    # _find once, as its substituted value is queued.  No image pair is
    # joined, and every other pin goes straight into the solution
    ds = loads_dataset(chain_doc(n))
    cs = build_constraints(ds, euler_matrix(ds))
    held = _held(cs)
    assert len(held) == n
    assert all(cs.unknowns[k][0] == "c" for k in held)
    assert sorted(_found(monkeypatch, cs)) == sorted(held)


def test_what_reaches_the_union_find_on_f4a3(systems, monkeypatch):  # noqa: F811
    # F4(a3): 9 of its 12 anchors fall back, and its 63 presolve rows hold
    # 113 columns with their images, 85 of them m-columns; 38 of its 126 pins
    # and substituted values are queued, and _find is called 122 times, on
    # 68 of the held columns
    cs = systems["f4a3"]
    held = _held(cs)
    assert (len(cs.presolve_rows), len(held), sum(k < len(cs.image) for k in held)) == \
        (63, 113, 85)
    assert sum(k in held for k, _, _ in cs.pins + cs.substituted) == 38
    found = _found(monkeypatch, cs)
    assert set(found) <= held
    assert (len(found), len(set(found))) == (122, 68)
