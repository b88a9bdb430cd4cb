"""Conflicts in the index system, and a residual certificate for its solution.

solve presolves the whole system once.  When it is inconsistent, solve
must raise the tags that one elimination of the whole system gives: those
of its first conflicting row, reduced by the deletion filter, also when
several unconnected parts of the system conflict.

The residual certificate puts the solved values back into every tagged
equation and requires each one to vanish identically in the parameters.
It checks the solution against the rules without trusting _eliminate.
"""

import copy

import pytest

from microloc import solver
from microloc.data import load_bundled_dataset, loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import CMatrix, InconsistentSystem, \
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


@pytest.mark.parametrize("name", BUMPS + CORRUPT_CHAINS)
def test_conflict_tags_equal_global_elimination(systems, name):
    # several unconnected parts can conflict (bump 5 conflicts in three,
    # and the first of them does not hold the lowest conflicting row); solve
    # must reduce the conflict one elimination of the whole system reports
    cs = systems[name]
    _, _, _, conflict, merges = _eliminate(cs.equations, cs.unknowns)
    if conflict is None:
        assert solve(cs).equation_count == len(cs.rows)
        return
    subset = _minimal_conflict(cs.equations, _combined(merges, conflict), cs.unknowns)
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == [cs.equations[i].tag for i in subset]


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
