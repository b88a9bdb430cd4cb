"""The duality image, the pins and the substituted values, against the rows.

build_constraints does not emit the support, leading and symmetry rows for
the presolve.  It keeps the duality image (m[src, t] is tied to
m[fourier(src), hat(t)]) and one pin per support and leading row: 0 for a
cell outside its source's closure, the source's rank for a leading cell.
The presolve derives the m-classes itself.  It also fixes the c-columns of
most anchors by forward substitution, handing the values on as pins with
the ids of the rows whose check failed, and emits only the expansion rows
of the anchors that fall back.  Presolving that structure with the rows
left must give the contradiction status of presolving the full system
and, when there is none, the same expression for every column: the
expression of the larger of the column and its image, the presolve's
class representative, with a free column r read as r itself
(_expressions); the full rows go in with no image, their symmetry rows
solved as rows.  The pins, put onto the classes of a union-find over the
symmetry rows, must be what the full system's support and leading rows
give.  The full system is a test-only copy of build_constraints
as it was when it emitted every row, and cs.rows, built on first read,
must equal it.

The inputs are the bundled case, chains 6 to 30, every system of
tests/test_solver_conflict.py, two frozen conflicts (a chain4 whose
fourier map fixes two sheaves it swapped, and the bundled case with one
KL value raised) and hypothesis edits of the hat and fourier pairs that
keep both maps involutions, as the solver requires; the edited datasets
go through the library without validate_dataset, whose order-reversal
check on hat they may fail.  Every input that solves is checked against
sympy's rref; every input that does not must raise the tags of one
elimination of the full rows, reduced by _minimal_conflict, after one
presolve.  A successful solve must not build cs.rows.
"""

import copy
import json
import os

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from microloc import data, solver
from microloc.data import loads_dataset
from microloc.duality import fourier_partner, hat
from microloc.euler import UNKNOWN, euler_matrix
from microloc.solver import InconsistentSystem, SkippedExpansion, _combined, _cvar_key, \
    _eliminate, _minimal_conflict, _presolve, build_constraints, solve
from chains import chain_doc, orbit_id
from test_presolve import _check_solve_against_rref
from test_solver_conflict import CASES, BUMPS, CORRUPT_CHAINS, _residual_failures, \
    systems  # noqa: F401  (fixture)

CHAINS = range(6, 31)


def _copied_rows(ds, em):
    """The full row list of build_constraints as it was when it emitted every row."""
    poset = ds.poset
    d = ds.duality
    sources = ds.local_systems()
    anchors = [o.id for o in ds.orbits]
    dims = {o.id: o.dim for o in ds.orbits}
    n = len(anchors)
    at = {t: k for k, t in enumerate(anchors)}
    ups = {t: poset.up_set(t) for t in anchors}
    cpairs = sorted(
        ((a, b) for a in anchors for b in anchors if b in ups[a]),
        key=lambda p: _cvar_key(p, dims))
    ccol = {t: {} for t in anchors}
    for j, (a, b) in enumerate(cpairs, len(sources) * n):
        ccol[a][b] = j

    rows = []
    skipped = []
    for s, src in enumerate(sources):
        s_orb = src[0]
        closure = poset.down_set(s_orb)
        row = [(u, em.value(src, u)) for u in poset.ids if u in closure]
        for k, t in enumerate(anchors):
            mv = s * n + k
            if t not in closure:
                rows.append((((mv, 1),), 0, ("support", src, t)))
                continue
            if t == s_orb:
                rows.append((((mv, 1),), ds.ls_dim(src), ("leading", src)))
            up = ups[t]
            cols = ccol[t]
            coeffs = [(mv, -1)]
            missing = []
            for u, v in row:
                if u in up:
                    if v is UNKNOWN:
                        missing.append((u, src))
                    elif v:
                        coeffs.append((cols[u], v))
            if missing:
                skipped.append(SkippedExpansion(t, src, tuple(missing)))
                continue
            rows.append((tuple(coeffs), 0, ("expansion", src, t)))

    source_index = {src: s for s, src in enumerate(sources)}
    for s, src in enumerate(sources):
        f = source_index[fourier_partner(d, src)] * n
        for k, t in enumerate(anchors):
            a = s * n + k
            b = f + at[hat(d, t)]
            if a == b:
                continue
            rows.append((((a, 1), (b, -1)), 0, ("symmetry", src, t)))

    if ds.diagonal_rule:
        for o in ds.orbits:
            rows.append((((ccol[o.id][o.id], 1),), -1 if o.dim % 2 else 1, ("diagonal", o.id)))
    return rows, skipped


def _union_find_classes(rows):
    """(classes, pins) from the full rows: the union-find over the symmetry
    rows, each class rooted at its latest column, as {column: root} for
    every other member; and {root: {pin value: id of its first row}} from
    the support and leading rows."""
    parent = {}

    def find(k):
        while k in parent:
            k = parent[k]
        return k

    for coeffs, rhs, tag in rows:
        if tag[0] == "symmetry":
            (a, _), (b, _) = coeffs
            a, b = find(a), find(b)
            if a != b:
                parent[min(a, b)] = max(a, b)
    classes = {k: find(k) for k in parent}
    pins = {}
    for i, (coeffs, rhs, tag) in enumerate(rows):
        if tag[0] in ("support", "leading"):
            ((k, _),) = coeffs
            pins.setdefault(find(k), {}).setdefault(rhs, i)
    return classes, pins


def _expressions(presolved, ncols, image=()):
    """What a _presolve result assigns to each column: the (rest, rhs) of
    its class's representative, the larger of the column and its image
    (the column itself past the image), as _presolve's docstring says,
    with a free representative r read as ({r: -1}, 0), that is r = r."""
    solved, _ = presolved
    m = len(image)
    return [solved.get(r, ({r: -1}, 0))
            for r in (max(j, image[j]) if j < m else j for j in range(ncols))]


def _check_against_full_rows(cs, rows):
    """The presolve of cs's structure, its substituted values and failed
    checks against the presolve of the full rows: the same contradiction
    status and, without one, the same expression for every column."""
    got = _presolve(cs.presolve_rows, cs.presolve_ids, cs.image, cs.pins + cs.substituted)
    want = _presolve(rows)
    assert bool(got[1] or cs.contradicted) == bool(want[1])
    if not want[1]:
        ncols = len(cs.unknowns)
        assert _expressions(got, ncols, cs.image) == _expressions(want, ncols)


def _check_classes(ds):
    """Build ds's system and check its structure and rows against the copy."""
    em = euler_matrix(ds)
    cs = build_constraints(ds, em)
    rows, skipped = _copied_rows(ds, em)
    classes, pins = _union_find_classes(rows)
    _check_against_full_rows(cs, rows)
    # one pin per support and leading row, at its id, put onto its class
    assert [(coeffs[0][0], rhs, i) for i, (coeffs, rhs, tag) in enumerate(rows)
            if tag[0] in ("support", "leading")] == cs.pins
    got = {}
    for k, value, i in cs.pins:
        got.setdefault(classes.get(k, k), {}).setdefault(value, i)
    assert got == pins
    assert cs.equation_count == len(rows)
    assert cs.skipped == skipped
    # each substituted value pins a column of the expansion row at its id;
    # the anchors it settles skip no expansion and have every c-column
    # fixed once, and the presolve takes the full system's expansion rows
    # of every other anchor and its diagonal rows, at their ids
    settled = set()
    for k, _, i in cs.substituted:
        coeffs, _, tag = rows[i]
        assert tag[0] == "expansion" and k in dict(coeffs)
        if cs.unknowns[k][0] == "c":
            settled.add(tag[2])
    assert sorted(k for k, _, _ in cs.substituted if cs.unknowns[k][0] == "c") == \
        [j for j, v in enumerate(cs.unknowns) if v[0] == "c" and v[1] in settled]
    assert not settled & {s.anchor for s in cs.skipped}
    assert all(rows[i][2][0] == "expansion" and rows[i][2][2] in settled
               for i in cs.contradicted)
    assert [rows[i] for i in cs.presolve_ids] == cs.presolve_rows
    assert [row for row in rows if row[2][0] == "diagonal" or
            row[2][0] == "expansion" and row[2][2] not in settled] == cs.presolve_rows
    assert cs.rows == rows
    return cs


def _check_outcome(cs):
    """Solve cs: against the rref when it solves, against the full rows' tags when not."""
    cols = list(range(len(cs.unknowns)))
    _, _, _, conflict, merges = _eliminate(cs.rows, cols)
    if conflict is None:
        sr = _check_solve_against_rref(cs)
        assert _residual_failures(cs, sr) == []
        return None
    want = [cs.rows[i][2] for i in _minimal_conflict(cs.rows, _combined(merges, conflict), cols)]
    with pytest.raises(InconsistentSystem) as e:
        solve(cs)
    assert e.value.tags == want
    return want


# -- the classes against the union-find ------------------------------------------

def test_bundled_classes(dataset):
    cs = _check_classes(dataset)
    # F4(a3): 240 m-columns; 311 unknowns and 429 rows, as before
    assert (len(cs.unknowns), cs.equation_count) == (311, 429)
    _check_outcome(cs)


@pytest.mark.parametrize("n", CHAINS)
def test_chain_classes(n):
    cs = _check_classes(loads_dataset(chain_doc(n)))
    _check_outcome(cs)


@pytest.mark.parametrize("name", CASES + CORRUPT_CHAINS)
def test_conflict_module_classes(systems, name):  # noqa: F811
    cs = systems[name]
    _check_classes(cs.dataset)
    _check_outcome(build_constraints(cs.dataset, euler_matrix(cs.dataset)))


# -- frozen conflicts ------------------------------------------------------------

def _leading_joined_to_support():
    """chain4 with fourier fixing (A1,(1)) and (A2,(1)) instead of swapping them.

    hat(A1) = A2, so m[(A1,(1)), A1] (leading, 1) is tied to
    m[(A1,(1)), A2] (support, 0): one class takes two pins.
    """
    doc = chain_doc(4)
    doc["duality"]["fourier"][1:2] = [[[orbit_id(k), "(1)"]] * 2 for k in (1, 2)]
    return doc


def _pin_against_expansion():
    """The bundled case with P(S9 <- S10) on the (1) sheaves raised by one.

    No class takes two pins; the pins contradict two expansion rows at S7,
    an anchor that falls back, in the presolve.
    """
    doc = copy.deepcopy(BASES["f4a3"])
    (rec,) = [r for r in doc["kl"]
              if r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"]]
    rec["value"] += 1
    return doc


FROZEN = {"leading-joined-to-support": _leading_joined_to_support,
          "pin-against-expansion": _pin_against_expansion}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_conflict_tags_equal_full_elimination(name, monkeypatch):
    ds = loads_dataset(FROZEN[name]())
    cs = _check_classes(ds)
    classes, _ = _union_find_classes(cs.rows)
    values = {}
    for k, value, _ in cs.pins:
        values.setdefault(classes.get(k, k), set()).add(value)
    clashing = [r for r, vs in values.items() if len(vs) > 1]
    assert bool(clashing) == (name == "leading-joined-to-support")

    calls = []

    def presolve(*args):
        out = presolve_once(*args)
        calls.append(out[1])
        return out

    presolve_once = solver._presolve
    monkeypatch.setattr(solver, "_presolve", presolve)
    cs = build_constraints(ds, euler_matrix(ds))
    assert _check_outcome(cs)
    assert len(calls) == 1
    seeds = {cs.rows[i][2][0] for i in calls[0]}
    if name == "leading-joined-to-support":
        assert "support" in seeds or "leading" in seeds
    else:
        assert seeds == {"expansion"}


@pytest.mark.parametrize("name", BUMPS + CORRUPT_CHAINS)
def test_conflicting_solve_presolves_once(systems, name, monkeypatch):  # noqa: F811
    calls = []

    def presolve(*args):
        calls.append(1)
        return presolve_once(*args)

    presolve_once = solver._presolve
    monkeypatch.setattr(solver, "_presolve", presolve)
    cs = systems[name]
    try:
        solve(build_constraints(cs.dataset, euler_matrix(cs.dataset)))
    except InconsistentSystem:
        pass
    assert calls == [1]


# -- the rows, on first read only ------------------------------------------------

def test_successful_solve_builds_no_rows(systems, monkeypatch):  # noqa: F811
    def refuse(cs):
        raise AssertionError("cs.rows was built")

    monkeypatch.setattr(solver, "_all_rows", refuse)
    for name in ("f4a3", "f4a3-fewer-kl", "diamond", "chain12"):
        ds = systems[name].dataset
        cs = build_constraints(ds, euler_matrix(ds))
        sr = solve(cs)
        assert cs._rows is None
        assert sr.equation_count == cs.equation_count


# -- hypothesis: edited dualities ------------------------------------------------

BASES = {f"chain{n}": chain_doc(n) for n in (3, 4, 5, 6)}
with open(os.path.join(os.path.dirname(data.__file__), "data", "f4a3.json")) as fh:
    BASES["f4a3"] = json.load(fh)


def _repaired(draw, pairs):
    """One edit of an involution given as its pairs, fixed points as [x, x],
    that leaves it an involution: split a pair into two fixed points, join
    two fixed points into a pair, or swap the partners of two pairs."""
    moved = [p for p in pairs if p[0] != p[1]]
    fixed = [p for p in pairs if p[0] == p[1]]
    kinds = ["split"] * bool(moved) + ["join"] * (len(fixed) > 1) + ["swap"] * (len(moved) > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "split":
        a, b = draw(st.sampled_from(moved))
        return [p for p in pairs if p != [a, b]] + [[a, a], [b, b]]
    two = draw(st.lists(st.sampled_from(fixed if kind == "join" else moved),
                        min_size=2, max_size=2, unique_by=str))
    kept = [p for p in pairs if p not in two]
    (a, b), (c, d) = two
    if kind == "join":
        return kept + [[a, c]]
    return kept + ([[a, c], [b, d]] if draw(st.booleans()) else [[a, d], [b, c]])


@st.composite
def _edited_duality(draw, involutions=True):
    """A chain document or the bundled one, with 1-3 edits of its hat and fourier pairs.

    An edit splits a pair into two fixed points, joins two fixed points or
    swaps the partners of two pairs, so both maps stay involutions and the
    dataset meets the solver's precondition.  With involutions off, an
    edit replaces one side of a pair, or adds a pair, instead, so an orbit
    or a local system may end up with no image, and the maps need not be
    involutions.  Up to three KL records may go too, so that expansions are
    skipped and some m-classes stay free.
    """
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    orbits = [o["id"] for o in doc["orbits"]]
    systems = [[o["id"], irrep] for o in doc["orbits"] for irrep, _ in o["group"]["irreps"]]
    for _ in range(draw(st.integers(0, 3))):
        del doc["kl"][draw(st.integers(0, len(doc["kl"]) - 1))]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["hat", "fourier"]))
        pairs = doc["duality"][key]
        if involutions:
            doc["duality"][key] = _repaired(draw, pairs)
            continue
        pick = st.sampled_from(orbits if key == "hat" else systems)
        if draw(st.booleans()):
            pairs.append([draw(pick), draw(pick)])
        else:
            pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = draw(pick)
    return doc


@seed(2303)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edited_duality())
def test_edited_duality_classes(doc):
    _check_outcome(_check_classes(loads_dataset(doc)))
