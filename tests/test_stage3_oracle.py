"""The three stage-3 walks against copies of their cell-by-cell forms.

reconstruct_local_euler, micro_packet and verify_fourier_symmetry once
visited every (source, orbit) cell, and the inversion every cell of every
interval.  The copies below keep those forms.  Each function must give
what its copy gives: the same entries, failure texts, packets and mismatch
lists, in the same order, or the same exception text.  The inputs are the
solved reports of the bundled case and of chains 6 to 30, and edited or
hand-built reports with explicit zero entries, Fraction and parametric
values, zero or parametric diagonals and failures that propagate
upstream; the packets are compared again after an edited table is
assigned to a report they were already read from.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from microloc.affine import AffineInt, ZERO, div, exact
from microloc.data import load_bundled_dataset, loads_dataset
from microloc.duality import fourier_partner, hat
from microloc.euler import UNKNOWN, EulerMatrix, euler_matrix
from microloc.packets import Packet, _classify, micro_packet
from microloc.solver import (Bound, CMatrix, CharacteristicCycle, ComputationError, SolveReport,
                             build_constraints, reconstruct_local_euler, solve,
                             verify_fourier_symmetry)
from chains import chain_doc


# ---------------------------------------------------------------- the copies

def _copied_plain(v):
    return v.constant if isinstance(v, AffineInt) and not v.coeffs else v


def _copied_reconstruct(sr):
    """reconstruct_local_euler as a walk over every cell of every interval."""
    ds = sr.dataset
    poset = ds.poset
    dims = {o.id: o.dim for o in ds.orbits}
    all_orbits = [o.id for o in ds.orbits]
    cm = {k: _copied_plain(v) for k, v in sr.cmatrix.entries.items()}
    ups = {o: poset.up_set(o) for o in all_orbits}
    rows = {}
    failures = {}
    sources = list(sr.cc_table)
    for src, cc in sr.cc_table.items():
        s_orb = src[0]
        closure = poset.down_set(s_orb)
        stored = [x for x in poset.ids if x in closure]
        internal = {}
        row = rows[src] = {}
        for t in all_orbits:
            if t not in closure:
                row[t] = 0
        for t in sorted(closure, key=lambda o: (-dims[o], o)):
            diag = cm.get((t, t), 0)
            try:
                if isinstance(diag, AffineInt) or diag == 0:
                    raise ComputationError(
                        f"diagonal entry at {t} is {diag}, cannot invert")
                acc = _copied_plain(cc.at(t))
                up = ups[t]
                for u in stored:
                    if u == t or u not in up:
                        continue
                    ev = internal.get(u)
                    if ev is None:
                        raise ComputationError(f"upstream failure at {u}")
                    c = cm.get((t, u), 0)
                    if c:
                        acc = acc - c * ev
                acc = _copied_plain(acc)
                val = acc / diag if isinstance(acc, AffineInt) else div(exact(acc), diag)
            except (ComputationError, ValueError) as e:
                row[t] = UNKNOWN
                failures[(src, t)] = str(e)
                internal[t] = None
                continue
            internal[t] = val
            if isinstance(val, AffineInt):
                row[t] = UNKNOWN
                failures[(src, t)] = \
                    f"parameter does not cancel: {', '.join(sorted(val.coeffs))}"
            else:
                row[t] = val
    return EulerMatrix(sources, all_orbits, rows, failures=failures)


def _copied_micro_packet(sr, anchor):
    """micro_packet classifying every catalog entry's multiplicity."""
    ds = sr.dataset
    if anchor not in ds.poset:
        raise KeyError(f"unknown orbit {anchor}")
    members, maybe = [], []
    for rep_id, param in ds._rep_params:
        kind = _classify(sr, sr.cc_table[param].at(anchor))
        if kind == "in":
            members.append(rep_id)
        elif kind == "indeterminate":
            maybe.append(rep_id)
    return Packet("micro", anchor, tuple(members), tuple(maybe))


def _copied_fourier_mismatches(sr):
    """verify_fourier_symmetry comparing every (source, orbit) cell."""
    ds = sr.dataset
    duals = [(o.id, hat(ds.duality, o.id)) for o in ds.orbits]
    out = []
    for src in ds.local_systems():
        cc, fcc = sr.cc_table[src], sr.cc_table[fourier_partner(ds.duality, src)]
        for t, dual in duals:
            lhs, rhs = cc.at(t), fcc.at(dual)
            if lhs != rhs:
                out.append((src, t, lhs, rhs))
    return out


# ---------------------------------------------------------------- comparison

def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # the copies raise what the library raised
        return type(e).__name__, str(e)


def _euler_view(em):
    return (em.sources, em.targets, list(em.entries.items()),
            [type(v) for v in em.entries.values()], list(em.failures.items()))


def _assert_walks_agree(sr):
    got, want = _outcome(reconstruct_local_euler, sr), _outcome(_copied_reconstruct, sr)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _euler_view(got[1]) == _euler_view(want[1])
    else:
        assert got == want
    _assert_packets_agree(sr)
    assert _outcome(verify_fourier_symmetry, sr) == _outcome(_copied_fourier_mismatches, sr)


def _assert_packets_agree(sr):
    for o in sr.dataset.orbits:
        assert _outcome(micro_packet, sr, o.id) == _outcome(_copied_micro_packet, sr, o.id)


# ---------------------------------------------------------------- inputs

# a diamond B < X, Y < T stored out of dimension order, with a full
# duality and a catalog entry per local system
DIAMOND_DOC = {
    "schema_version": 1, "name": "diamond", "ambient_dim": 2,
    "orbits": [
        {"id": "T", "dim": 2, "group": {"name": "Z/2", "irreps": [["(1)", 1], ["(1^2)", 1]]}},
        {"id": "Y", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "B", "dim": 0, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "X", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
    ],
    "covers": [["B", "X"], ["B", "Y"], ["X", "T"], ["Y", "T"]],
    "duality": {
        "hat": [["T", "B"], ["X", "Y"]],
        "fourier": [[["T", "(1)"], ["B", "(1)"]], [["X", "(1)"], ["Y", "(1)"]],
                    [["T", "(1^2)"], ["T", "(1^2)"]]],
    },
    "kl": [],
    "catalog": [
        {"id": "RT", "param": ["T", "(1)"], "az": "RB", "iwahori_spherical": True, "unitary": True},
        {"id": "RS", "param": ["T", "(1^2)"], "az": "RS", "iwahori_spherical": True, "unitary": True},
        {"id": "RX", "param": ["X", "(1)"], "az": "RY", "iwahori_spherical": True, "unitary": True},
        {"id": "RY", "param": ["Y", "(1)"], "az": "RX", "iwahori_spherical": True, "unitary": True},
        {"id": "RB", "param": ["B", "(1)"], "az": "RT", "iwahori_spherical": True, "unitary": True},
    ],
    "special_piece": [], "arthur_type": [], "b_function": ["-1"],
}

_HAND_BUILT = [loads_dataset(chain_doc(3)), loads_dataset(chain_doc(4)),
               loads_dataset(DIAMOND_DOC)]
CHAINS = range(6, 31)


@functools.lru_cache(maxsize=None)
def _solved(n):
    """The solved report of chain n, or of the bundled case for n = 0."""
    ds = load_bundled_dataset() if n == 0 else loads_dataset(chain_doc(n))
    return solve(build_constraints(ds, euler_matrix(ds)))


_CONSTANT = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3]))
_ONE_PARAMETER = st.builds(lambda a, name, b: AffineInt(a, {name: b}), _CONSTANT,
                           st.sampled_from(["c", "p", "q"]), st.sampled_from([-2, -1, 1, 2]))
_TWO_PARAMETERS = st.builds(lambda a: AffineInt(a, {"p": 1, "q": -1}), _CONSTANT)
# ZERO is an explicit zero entry; constants come three times as often as
# one-parameter forms, which come twice as often as two-parameter ones
_VALUE = st.one_of(st.just(ZERO), *[_CONSTANT.map(AffineInt)] * 6, *[_ONE_PARAMETER] * 2,
                   _TWO_PARAMETERS)
# None leaves the entry out
_ENTRY = st.none() | _VALUE
_DIAGONAL = st.one_of(*[_CONSTANT.filter(bool).map(AffineInt)] * 3, _ENTRY)
_BOUND = st.builds(Bound, st.sampled_from(["c", "p", "q"]),
                   st.none() | st.integers(-2, 2), st.none() | st.integers(-2, 2))
_BOUNDS = st.none() | st.lists(_BOUND, max_size=3)


def _copy(sr, cmatrix, rows, bounds):
    return SolveReport(dataset=sr.dataset, cmatrix=CMatrix(cmatrix), cc_table=rows,
                       free_parameters=list(sr.free_parameters), residual_unknowns=[],
                       skipped=[], bounds=bounds)


@st.composite
def _hand_built(draw):
    ds = draw(st.sampled_from(_HAND_BUILT))
    ids = [o.id for o in ds.orbits]
    cmatrix = {}
    for a in ids:
        for b in ids:
            if ds.poset.leq(a, b):
                v = draw(_DIAGONAL if a == b else _ENTRY)
                if v is not None:
                    cmatrix[(a, b)] = v
    rows = {}
    for src in ds.local_systems():
        mult = {o: draw(_ENTRY) for o in ids}
        rows[src] = CharacteristicCycle(src, {o: v for o, v in mult.items() if v is not None})
    return SolveReport(ds, CMatrix(cmatrix), rows, [], [], [], draw(_BOUNDS))


@st.composite
def _edited(draw):
    """A solved report, of the bundled case or a chain, with a few entries
    of its index matrix and its cycles set, cleared or zeroed."""
    # the bundled case as often as all the chains together
    sr = _solved(draw(st.just(0) | st.sampled_from(CHAINS)))
    ids = [o.id for o in sr.dataset.orbits]
    cmatrix = dict(sr.cmatrix.entries)
    rows = {src: dict(cc.mult) for src, cc in sr.cc_table.items()}
    for _ in range(draw(st.integers(0, 4))):
        v = draw(_ENTRY)
        if draw(st.booleans()):
            a = draw(st.sampled_from(ids))
            b = draw(st.sampled_from([a, *sorted(sr.dataset.poset.up_set(a))]))
            key, table = (a, b), cmatrix
            if a == b:
                v = draw(_DIAGONAL)
        else:
            key, table = draw(st.sampled_from(ids)), rows[draw(st.sampled_from(list(rows)))]
        if v is None:
            table.pop(key, None)
        else:
            table[key] = v
    rows = {src: CharacteristicCycle(src, mult) for src, mult in rows.items()}
    return _copy(sr, cmatrix, rows, draw(st.just(sr.bounds) | _BOUNDS))


@st.composite
def _reports(draw):
    sr = draw(st.one_of(_edited(), _hand_built()))
    # the inversion follows the table's order, the other two do not
    if draw(st.booleans()):
        order = draw(st.permutations(list(sr.cc_table)))
        sr.cc_table = {src: sr.cc_table[src] for src in order}
    return sr


@st.composite
def _retabled(draw, sr):
    """sr's table, as new cycles, with one to four entries set, cleared or
    zeroed."""
    ids = [o.id for o in sr.dataset.orbits]
    rows = {src: dict(cc.mult) for src, cc in sr.cc_table.items()}
    for _ in range(draw(st.integers(1, 4))):
        mult = rows[draw(st.sampled_from(list(rows)))]
        o, v = draw(st.sampled_from(ids)), draw(_ENTRY)
        if v is None:
            mult.pop(o, None)
        else:
            mult[o] = v
    return {src: CharacteristicCycle(src, mult) for src, mult in rows.items()}


# ---------------------------------------------------------------- the tests

@pytest.mark.parametrize("n", [0, *CHAINS], ids=["f4a3", *(f"chain{n}" for n in CHAINS)])
def test_solved_reports_match_the_copies(n):
    _assert_walks_agree(_solved(n))


# the first draw of each chain solves it, which counts as generation time
@settings(max_examples=150, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(sr=_reports())
def test_edited_and_hand_built_reports_match_the_copies(sr):
    _assert_walks_agree(sr)


# micro_packet reads a view of the table built on first read; a table
# assigned after that read must be the one read next
@settings(max_examples=100, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_packets_read_a_table_assigned_after_a_read(data):
    sr = data.draw(_reports())
    _assert_packets_agree(sr)
    sr.cc_table = data.draw(_retabled(sr))
    _assert_packets_agree(sr)
