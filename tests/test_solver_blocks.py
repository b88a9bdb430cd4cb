"""The index system block by block, and a residual certificate for its solution.

build_constraints records one block per anchor pair {t, hat(t)}: the row
ids and column ids of that pair, each in system order.  The blocks must
partition both the rows and the columns, with every row's columns in its
own block, and eliminating each block on its own must give exactly the
pivots, rows and right-hand sides of one elimination of the whole system.
When several blocks conflict, solve must raise the tags that one
elimination of the whole system gives: those of its first conflicting row.

The residual certificate puts the solved values back into every tagged
equation and requires each one to vanish identically in the parameters.
It checks the solution against the rules without trusting _eliminate.
"""

import copy

import pytest

from microloc import solver
from microloc.data import load_bundled_dataset, loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import CMatrix, ConstraintSystem, Equation, InconsistentSystem, \
    _combined, _eliminate, _minimal_conflict, build_constraints, solve
from chains import chain_doc, middle_corruption, with_kl_value
from test_constraints import DIAMOND, _without_kl
from test_solver_oracle import CHAIN_SIZES, F4_BUMPS


def _bumped(doc, target, source):
    """The bundled document with P(target <- source) raised by one."""
    out = copy.deepcopy(doc)
    (rec,) = [r for r in out["kl"]
              if tuple(r["target"]) == target and tuple(r["source"]) == source]
    rec["value"] += 1
    return out


@pytest.fixture(scope="module")
def systems(bundled_doc):
    docs = {"f4a3-fewer-kl": _without_kl(bundled_doc), "diamond": DIAMOND}
    docs.update({f"chain{n}": chain_doc(n) for n in CHAIN_SIZES})
    docs.update({f"f4a3-bump{k}": _bumped(bundled_doc, *bump)
                 for k, bump in enumerate(F4_BUMPS)})
    docs.update({f"chain{n}-corrupt": with_kl_value(chain_doc(n), *middle_corruption(n))
                 for n in CHAIN_SIZES})
    out = {"f4a3": load_bundled_dataset()}
    out.update({name: loads_dataset(doc) for name, doc in docs.items()})
    return {name: build_constraints(ds, euler_matrix(ds)) for name, ds in out.items()}


BUMPS = tuple(f"f4a3-bump{k}" for k in range(len(F4_BUMPS)))
CORRUPT_CHAINS = tuple(f"chain{n}-corrupt" for n in CHAIN_SIZES)
CASES = ("f4a3", "f4a3-fewer-kl", "diamond", *(f"chain{n}" for n in CHAIN_SIZES), *BUMPS)


@pytest.mark.parametrize("name", CASES)
def test_blocks_partition_rows_and_columns(systems, name):
    cs = systems[name]
    rows = [i for row_ids, _ in cs.blocks for i in row_ids]
    cols = [j for _, col_ids in cs.blocks for j in col_ids]
    assert sorted(rows) == list(range(len(cs.rows)))
    assert sorted(cols) == list(range(len(cs.unknowns)))
    for row_ids, col_ids in cs.blocks:
        assert row_ids == sorted(row_ids) and col_ids == sorted(col_ids)
        own = set(col_ids)
        assert all(k in own for i in row_ids for k, _ in cs.rows[i][0])


def test_block_counts(systems):
    # F4(a3): five hat pairs and two hat-fixed orbits; a chain of n orbits
    # pairs Ai with A(n-1-i), the middle orbit of an odd chain with itself
    assert len(systems["f4a3"].blocks) == 7
    for n in CHAIN_SIZES:
        assert len(systems[f"chain{n}"].blocks) == (n + 1) // 2


@pytest.mark.parametrize("name", CASES)
def test_blockwise_elimination_equals_global(systems, name):
    cs = systems[name]
    unknowns = cs.unknowns
    pivots, rows, rhss, conflict, _ = _eliminate(cs.equations, unknowns)
    got_pivots, got_rows, got_rhss = {}, [None] * len(rows), [None] * len(rows)
    conflicts = []
    for row_ids, col_ids in cs.blocks:
        p, brows, brhss, c, _ = _eliminate([cs.rows[i] for i in row_ids], col_ids)
        got_pivots.update({unknowns[j]: row_ids[i] for j, i in p.items()})
        for i, row, rhs in zip(row_ids, brows, brhss):
            got_rows[i] = [(unknowns[k], type(x), x) for k, x in row.items()]
            got_rhss[i] = (type(rhs), rhs)
        if c is not None:
            conflicts.append(row_ids[c])
    assert got_pivots == pivots
    assert got_rows == [[(v, type(x), x) for v, x in row.items()] for row in rows]
    assert got_rhss == [(type(x), x) for x in rhss]
    assert min(conflicts, default=None) == conflict


@pytest.mark.parametrize("name", BUMPS + CORRUPT_CHAINS)
def test_conflict_tags_equal_global_elimination(systems, name):
    # several blocks can conflict (bump 5 conflicts in three, and the first
    # of them does not hold the lowest conflicting row); solve must reduce
    # the conflict one elimination of the whole system reports
    cs = systems[name]
    _, _, _, conflict, merges = _eliminate(cs.equations, cs.unknowns)
    if conflict is None:
        assert solve(cs).equation_count == len(cs.rows)
        return
    subset = _minimal_conflict(cs.equations, _combined(merges, conflict), cs.unknowns)
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == [cs.equations[i].tag for i in subset]


def test_hand_built_system_is_one_block():
    x, y = ("x", 0), ("x", 1)
    cs = ConstraintSystem(None, [x, y], [Equation(((y, 2), (x, 1)), 3, ("eq", 0))], [])
    assert cs.rows == [(((1, 2), (0, 1)), 3, ("eq", 0))]
    assert cs.blocks == [([0], [0, 1])]


def test_successful_solve_builds_no_equation(systems, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an Equation was built")

    monkeypatch.setattr(solver, "Equation", refuse)
    for name in ("f4a3", "chain12"):
        cs = systems[name]
        ds = cs.dataset
        assert solve(build_constraints(ds, euler_matrix(ds))).equation_count == len(cs.rows)


# -- the residual certificate ----------------------------------------------

def _residual_failures(cs, sr):
    """Tags of the equations that the solved values do not satisfy identically."""
    def value(v):
        if v[0] == "m":
            return sr.cc_table[v[1]].at(v[2])
        return sr.cmatrix.entry(v[1], v[2])

    out = []
    for eq in cs.equations:
        total = -eq.rhs
        for v, c in eq.coeffs:
            total = total + c * value(v)
        if total:
            out.append(eq.tag)
    return out


@pytest.mark.parametrize("name", ["f4a3", "f4a3-fewer-kl", "diamond",
                                  *(f"chain{n}" for n in CHAIN_SIZES)])
def test_solution_satisfies_every_equation(systems, name):
    cs = systems[name]
    assert _residual_failures(cs, solve(cs)) == []


def test_residual_certificate_sees_a_changed_entry(systems):
    cs = systems["f4a3"]
    sr = solve(cs)
    entries = dict(sr.cmatrix.entries)
    entries[("S11", "S11")] = entries[("S11", "S11")] + 1
    edited = copy.copy(sr)
    edited.cmatrix = CMatrix(entries)
    bad = _residual_failures(cs, edited)
    # the diagonal row and the expansion row at anchor S11 of each of the
    # five local systems on S11
    assert len(bad) == 6
    assert ("diagonal", "S11") in bad
    assert all(tag[0] == "expansion" and tag[1][0] == tag[2] == "S11"
               for tag in bad if tag[0] != "diagonal")
