"""The conflict path builds only the rows its seeds can reach.

When solve finds the system inconsistent, its seeds are the ids of the
rows the presolve contradicts and of the failed checks of the forward
substitution.  It builds the rows of the anchors joined to the seeds
(solver._seed_rows) and hands them to _conflict in the full system's
order, which eliminates every one of them.  The rows built must be rows of
the full system, in its order, and hold every row of it that shares a
column with one of them: rows come in whole anchors, and a symmetry row
joins hat-linked anchors.  The tags raised must be those of the search
over every row of the full system from the same seeds (_full_conflict, a
test-only copy of _conflict as solve called it when it read cs.rows, with
the search over a column index that kept only the rows joined to the
seeds).  _conflict over every row of the full system must raise them too:
the rows joined to no seed are consistent, which is what lets _conflict
eliminate all the rows it is given.  cs.rows is built by the same code
(_anchor_rows, over every anchor), so the full system is the test-only
copy of the builder that emitted every row (tests/test_mclasses.py), and
cs.rows must equal it too.

The inputs: the bundled case with P(S9 <- S10) set to 5 (f4a3-corrupt),
each of its 54 KL values raised by one, every inconsistent system of
tests/test_solver_conflict.py, chain-corrupt 4 to 60, the two frozen
conflicts of tests/test_mclasses.py and its hypothesis edits of the hat and
fourier pairs, which split, join or swap pairs and so keep both maps
involutions, as the solver requires.  The rows built must
also hold every row the search over the full rows reaches.  A conflicting
solve never builds cs.rows, and the rows built on three inputs are pinned.
Every pin, expansion row and diagonal row of the bundled case, chain6 and
chain9, taken as a seed alone, must reach its own row.  On f4a3-corrupt
the conflict path must look up the m-columns of the seeds' row ids alone,
and read the pin values of the reached anchors' columns only.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, seed, settings

from microloc import solver
from microloc.euler import euler_matrix
from microloc.solver import InconsistentSystem, _combined, _conflict, _eliminate, \
    _minimal_conflict, _presolve, _seed_rows, build_constraints, solve
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
    rows = _seed_rows(cs, seeds)
    # the rows built are rows of the full system, in its order
    ids, j = set(), 0
    for row in rows:
        j = full.index(row, j)
        ids.add(j)
        j += 1
    # rows come in whole anchors, and a symmetry row joins hat-linked
    # anchors, so every row sharing a column with a built row is built
    cols = {k for coeffs, _, _ in rows for k, _ in coeffs}
    assert all(i in ids for i, (coeffs, _, _) in enumerate(full)
               if any(k in cols for k, _ in coeffs))
    # every row the search over the full rows reaches is built
    assert _reached(full, seeds)[0] <= ids
    assert tags == _full_conflict(full, seeds)
    # the rows joined to no seed leave the tags as they are
    assert _conflict(full) == tags


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
    # hat and fourier pairs split, joined or swapped: both maps stay involutions
    cs = _system(doc)
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
        built.append((len(out), cs.equation_count))
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


@pytest.mark.parametrize("n", [0, 6, 9], ids=["bundled", "chain6", "chain9"])
def test_every_seed_kind_reaches_its_own_row(bundled_doc, n):
    # a seed is a pin, an expansion row or a diagonal row; each must be
    # mapped to its own anchor, whose rows hold it
    cs = _system(chain_doc(n) if n else bundled_doc)
    ids = [i for i, (_, _, tag) in enumerate(cs.rows) if tag[0] != "symmetry"]
    assert ids
    for i in ids:
        assert cs.rows[i] in _seed_rows(cs, [i])


def test_conflict_path_reads_the_pins_of_the_anchors_it_reaches(bundled_doc):
    # the seeds' anchors come from the layout's m-column of each row id, and
    # the pins of the reached anchors' columns from its map of pin values by
    # column: on f4a3-corrupt, the two seeds reach one anchor, S7, of 12
    cs = _system(_f4a3_corrupt(bundled_doc))
    seeds = _seeds(cs)
    n = len(cs.dataset.orbits)
    read, owned = [], []

    class Pins(dict):
        def __contains__(self, a):
            read.append(a)
            return dict.__contains__(self, a)

        def __getitem__(self, a):
            read.append(a)
            return dict.__getitem__(self, a)

    class Owner(list):
        def __getitem__(self, i):
            owned.append(i)
            return list.__getitem__(self, i)

    expansion, expansions, hats, pins, owner = cs._layout
    cs._layout = expansion, expansions, hats, Pins(pins), Owner(owner)
    cs.pins = None         # the conflict path reads no pin from the list
    rows = _seed_rows(cs, seeds)
    reached = {k % n for coeffs, _, _ in rows for k, _ in coeffs if k < len(cs.image)}
    assert [cs.dataset.orbits[k].id for k in reached] == ["S7"] and len(rows) == 38
    assert owned == seeds == [139, 171]
    assert read and {a % n for a in read} == reached
