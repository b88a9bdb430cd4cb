"""The conflict path builds only the rows its seeds can reach.

When solve finds the system inconsistent, its seeds are the ids of the
rows the presolve contradicts and of the failed checks of the forward
substitution.  It builds the rows of the anchors joined to the seeds
(solver._seed_rows) and hands them to _conflict in id order, the seeds
mapped to positions.  Every row built must equal the full system's row at
its id, the ids ascending, and the tags raised must be those of the search
over every row of the full system from the same seeds (_full_conflict, a
test-only copy of _conflict as solve called it when it read cs.rows).
cs.rows is built by the same code (_anchor_rows, over every anchor), so
the full system is the test-only copy of the builder that emitted every
row (tests/test_mclasses.py), and cs.rows must equal it too.

The inputs: the bundled case with P(S9 <- S10) set to 5 (f4a3-corrupt),
each of its 54 KL values raised by one, every inconsistent system of
tests/test_solver_conflict.py, chain-corrupt 4 to 60, the two frozen
conflicts of tests/test_mclasses.py and its hypothesis edits of the hat and
fourier pairs, whose maps need not be involutions.  The rows built must
also hold every row the search over the full rows reaches.  A conflicting
solve never builds cs.rows, and the rows built on three inputs are pinned.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, seed, settings

from microloc import solver
from microloc.euler import euler_matrix
from microloc.solver import InconsistentSystem, _combined, _eliminate, _minimal_conflict, \
    _presolve, _seed_rows, build_constraints, solve
from chains import chain_doc, middle_corruption, with_kl_value
from test_mclasses import FROZEN, _copied_rows, _edited_duality
from test_solver_conflict import systems  # noqa: F401  (fixture)
from test_solver_oracle import _system


def _reached(system, seeds):
    """The rows of the system joined to the seeds through shared columns, and their columns."""
    holders = {}
    for i, (coeffs, _, _) in enumerate(system):
        for k, _ in coeffs:
            holders.setdefault(k, []).append(i)
    reached, cols, stack = set(seeds), set(), list(seeds)
    while stack:
        for k, _ in system[stack.pop()][0]:
            if k not in cols:
                cols.add(k)
                stack += [j for j in holders[k] if j not in reached]
                reached.update(holders[k])
    return reached, cols


def _full_conflict(system, seeds):
    """The tags _conflict(cs.rows, seeds) gave, searching every row of the system."""
    reached, cols = _reached(system, seeds)
    part = [system[i] for i in sorted(reached)]
    cols = sorted(cols)
    _, _, _, c, merges = _eliminate(part, cols)
    return [part[i][2] for i in _minimal_conflict(part, _combined(merges, c), cols)]


def _seeds(cs):
    return _presolve(cs.presolve_rows, cs.presolve_ids, cs.image,
                     cs.pins + cs.substituted)[1] + cs.contradicted


def check_seed_rows(cs, tags):
    """The rows the conflict path builds for cs, and the tags solve raised on it,
    against cs.rows."""
    # cs.rows is built by the same code as the conflict path's rows, so both
    # are held against the test-only copy of the builder that emitted every row
    full, _ = _copied_rows(cs.dataset, euler_matrix(cs.dataset))
    assert cs.rows == full
    seeds = _seeds(cs)
    assert seeds
    ids, rows = _seed_rows(cs, seeds)
    ids = list(ids)
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert rows == [full[i] for i in ids]
    # every row the search over the full rows reaches is built
    assert _reached(full, seeds)[0] <= set(ids)
    assert tags == _full_conflict(full, seeds)


def _raised(cs):
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    return e.value.tags


def _f4a3_corrupt(doc):
    out = copy.deepcopy(doc)
    (rec,) = [r for r in out["kl"]
              if r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"]]
    rec["value"] = 5
    return out


def _chain_corrupt(n):
    return with_kl_value(chain_doc(n), *middle_corruption(n))


def test_f4a3_corrupt(bundled_doc):
    cs = _system(_f4a3_corrupt(bundled_doc))
    check_seed_rows(cs, _raised(cs))


@pytest.mark.parametrize("k", range(54))
def test_f4a3_kl_bump(bundled_doc, k):
    doc = copy.deepcopy(bundled_doc)
    assert len(doc["kl"]) == 54
    doc["kl"][k]["value"] += 1
    cs = _system(doc)
    try:
        solve(cs)
    except InconsistentSystem as e:
        check_seed_rows(cs, e.tags)


def test_inconsistent_systems(systems):  # noqa: F811
    inconsistent = 0
    for cs in systems.values():
        ds = cs.dataset
        cs = build_constraints(ds, euler_matrix(ds))
        try:
            solve(cs)
        except InconsistentSystem as e:
            check_seed_rows(cs, e.tags)
            inconsistent += 1
    # six of the ten bumps and the four corrupt chains
    assert inconsistent == 10


@pytest.mark.parametrize("n", range(4, 61))
def test_chain_corrupt(n):
    cs = _system(_chain_corrupt(n))
    check_seed_rows(cs, _raised(cs))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_conflict(name):
    cs = _system(FROZEN[name]())
    check_seed_rows(cs, _raised(cs))


@seed(2302)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edited_duality())
def test_edited_duality(doc):
    # hat and fourier pairs edited, so the maps need not be involutions
    try:
        cs = _system(doc)
    except KeyError:
        return             # an orbit or a local system without an image
    try:
        solve(cs)
    except InconsistentSystem as e:
        check_seed_rows(cs, e.tags)


# -- structure, with no timing ------------------------------------------------------

def test_conflicting_solve_builds_no_full_rows(bundled_doc, monkeypatch):
    def refuse(cs):
        raise AssertionError("cs.rows was built")

    built = []

    def seed_rows(cs, seeds):
        out = seed_rows_once(cs, seeds)
        built.append((len(out[1]), cs.equation_count))
        return out

    seed_rows_once = solver._seed_rows
    monkeypatch.setattr(solver, "_all_rows", refuse)
    monkeypatch.setattr(solver, "_seed_rows", seed_rows)
    for doc in (_f4a3_corrupt(bundled_doc), _chain_corrupt(30), _chain_corrupt(60)):
        cs = _system(doc)
        _raised(cs)
        assert cs._rows is None
    # the rows of the anchor S7 of F4(a3), its own hat image, of A13-A16 of
    # chain30 and of A28-A31 of chain60, of 429, 1,921 and 7,441 rows
    assert built == [(38, 429), (256, 1921), (496, 7441)]
