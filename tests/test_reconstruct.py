"""reconstruct_local_euler: the frozen F4(a3) failures, each branch of the
inversion on hand-built reports, and agreement with a plain AffineInt copy
of the inversion on random small systems."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from microloc.affine import AffineInt, ZERO
from microloc.data import loads_dataset
from microloc.euler import UNKNOWN, EulerMatrix
from microloc.solver import (CMatrix, CharacteristicCycle, ComputationError,
                             SolveReport, reconstruct_local_euler)
from chains import chain_doc

# Frozen from the package when the inversion moved off AffineInt for
# constant values: a regression pin, not an independent derivation.
F4_FAILURES = {
    (("S1", "(1)"), "S0"): "parameter does not cancel: p_S0_S1",
    (("S2", "(1)"), "S1"): "parameter does not cancel: p_S1_S2",
    (("S2", "(1)"), "S0"): "product of p_S0_S1 and -p_S1_S2+1 is not affine",
    (("S2", "(1^2)"), "S1"): "parameter does not cancel: p_S1_S2",
    (("S2", "(1^2)"), "S0"): "product of p_S0_S1 and -p_S1_S2 is not affine",
    (("S3", "(1)"), "S2"): "parameter does not cancel: p_S2_S3",
    (("S3", "(1)"), "S1"): "product of p_S1_S2 and p_S2_S3 is not affine",
    (("S3", "(1)"), "S0"): "upstream failure at S1",
    (("S4", "(1)"), "S2"): "parameter does not cancel: p_S2_S4",
    (("S4", "(1)"), "S1"): "product of p_S1_S2 and p_S2_S4 is not affine",
    (("S4", "(1)"), "S0"): "upstream failure at S1",
    (("S5", "(1)"), "S3"): "parameter does not cancel: p_S3_S5",
    (("S5", "(1)"), "S2"): "product of p_S2_S3 and p_S3_S5 is not affine",
    (("S5", "(1)"), "S1"): "upstream failure at S2",
    (("S5", "(1)"), "S0"): "upstream failure at S1",
    (("S5", "(1^2)"), "S3"): "parameter does not cancel: p_S3_S5",
    (("S5", "(1^2)"), "S2"): "product of p_S2_S3 and p_S3_S5-1 is not affine",
    (("S5", "(1^2)"), "S1"): "upstream failure at S2",
    (("S5", "(1^2)"), "S0"): "upstream failure at S1",
    (("S6", "(1)"), "S3"): "parameter does not cancel: p_S3_S6",
    (("S6", "(1)"), "S2"): "product of p_S2_S3 and p_S3_S6 is not affine",
    (("S6", "(1)"), "S1"): "upstream failure at S2",
    (("S6", "(1)"), "S0"): "upstream failure at S1",
    (("S7", "(1)"), "S3"): "parameter does not cancel: p_S3_S5, p_S3_S7",
    (("S7", "(1)"), "S2"): "product of p_S2_S3 and -2p_S3_S5-p_S3_S7-1 is not affine",
    (("S7", "(1)"), "S1"): "upstream failure at S2",
    (("S7", "(1)"), "S0"): "upstream failure at S1",
    (("S8", "(1)"), "S6"): "parameter does not cancel: p_S6_S8",
    (("S8", "(1)"), "S3"): "product of p_S3_S6 and -p_S6_S8+2 is not affine",
    (("S8", "(1)"), "S2"): "upstream failure at S3",
    (("S8", "(1)"), "S1"): "upstream failure at S2",
    (("S8", "(1)"), "S0"): "upstream failure at S1",
    (("S9", "(1)"), "S3"): "parameter does not cancel: p_S3_S5, p_S3_S7, p_S3_S9",
    (("S9", "(1)"), "S2"): "product of p_S2_S3 and 2p_S3_S5+p_S3_S7+p_S3_S9 is not affine",
    (("S9", "(1)"), "S1"): "upstream failure at S2",
    (("S9", "(1)"), "S0"): "upstream failure at S1",
    (("S9", "(1^2)"), "S3"): "parameter does not cancel: p_S3_S9",
    (("S9", "(1^2)"), "S2"): "product of p_S2_S3 and p_S3_S9 is not affine",
    (("S9", "(1^2)"), "S1"): "upstream failure at S2",
    (("S9", "(1^2)"), "S0"): "upstream failure at S1",
    (("S10", "(1)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S8",
    (("S10", "(1)"), "S3"): "product of p_S3_S6 and p_S6_S10+p_S6_S8 is not affine",
    (("S10", "(1)"), "S2"): "upstream failure at S3",
    (("S10", "(1)"), "S1"): "upstream failure at S2",
    (("S10", "(1)"), "S0"): "upstream failure at S1",
    (("S10", "(1^2)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S8",
    (("S10", "(1^2)"), "S3"): "product of p_S3_S6 and p_S6_S10+p_S6_S8 is not affine",
    (("S10", "(1^2)"), "S2"): "upstream failure at S3",
    (("S10", "(1^2)"), "S1"): "upstream failure at S2",
    (("S10", "(1^2)"), "S0"): "upstream failure at S1",
    (("S11", "(4)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S11, p_S6_S8",
    (("S11", "(4)"), "S3"): "product of p_S3_S6 and -p_S6_S10-p_S6_S11-p_S6_S8 is not affine",
    (("S11", "(4)"), "S2"): "upstream failure at S3",
    (("S11", "(4)"), "S1"): "upstream failure at S2",
    (("S11", "(4)"), "S0"): "upstream failure at S1",
    (("S11", "(31)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S11, p_S6_S8",
    (("S11", "(31)"), "S3"): "product of p_S3_S6 and -2p_S6_S10-3p_S6_S11-p_S6_S8 is not affine",
    (("S11", "(31)"), "S2"): "upstream failure at S3",
    (("S11", "(31)"), "S1"): "upstream failure at S2",
    (("S11", "(31)"), "S0"): "upstream failure at S1",
    (("S11", "(22)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S11",
    (("S11", "(22)"), "S3"): "product of p_S3_S6 and -p_S6_S10-2p_S6_S11 is not affine",
    (("S11", "(22)"), "S2"): "upstream failure at S3",
    (("S11", "(22)"), "S1"): "upstream failure at S2",
    (("S11", "(22)"), "S0"): "upstream failure at S1",
    (("S11", "(211)"), "S6"): "parameter does not cancel: p_S6_S10, p_S6_S11",
    (("S11", "(211)"), "S3"): "product of p_S3_S6 and -p_S6_S10-3p_S6_S11+1 is not affine",
    (("S11", "(211)"), "S2"): "upstream failure at S3",
    (("S11", "(211)"), "S1"): "upstream failure at S2",
    (("S11", "(211)"), "S0"): "upstream failure at S1",
    (("S11", "(1^4)"), "S6"): "parameter does not cancel: p_S6_S11",
    (("S11", "(1^4)"), "S3"): "product of p_S3_S6 and -p_S6_S11+1 is not affine",
    (("S11", "(1^4)"), "S2"): "upstream failure at S3",
    (("S11", "(1^4)"), "S1"): "upstream failure at S2",
    (("S11", "(1^4)"), "S0"): "upstream failure at S1",
}


def test_f4_failures_are_frozen(solved):
    rec = reconstruct_local_euler(solved)
    assert list(rec.failures.items()) == list(F4_FAILURES.items())
    assert all(rec.entries[cell] is UNKNOWN for cell in F4_FAILURES)


def _report(ds, cmatrix, rows):
    """A SolveReport carrying the given index entries and cycle rows."""
    table = {src: CharacteristicCycle(src, {o: ZERO + v for o, v in mult.items()})
             for src, mult in rows.items()}
    return SolveReport(
        dataset=ds, cmatrix=CMatrix({k: ZERO + v for k, v in cmatrix.items()}),
        cc_table=table, free_parameters=[], residual_unknowns=[], skipped=[], bounds=None)


def _chain3_report(cmatrix, mult):
    """chain3 with diagonal entries (-1)^dim and zeros above, overridden by
    cmatrix, and one cycle row, for (A2,(1))."""
    entries = {("A0", "A0"): 1, ("A0", "A1"): 0, ("A0", "A2"): 0,
               ("A1", "A1"): -1, ("A1", "A2"): 0, ("A2", "A2"): 1}
    entries.update(cmatrix)
    return _report(loads_dataset(chain_doc(3)), entries, {("A2", "(1)"): mult})


TOP = ("A2", "(1)")
P, Q = AffineInt.parameter("p"), AffineInt.parameter("q")


def _invert(sr):
    rec = reconstruct_local_euler(sr)
    return [(k[1], v) for k, v in rec.entries.items()], \
        {k[1]: msg for k, msg in rec.failures.items()}


def test_zero_diagonal_fails_and_the_failure_propagates():
    entries, failures = _invert(_chain3_report({("A1", "A1"): 0}, {"A2": 1, "A1": 1, "A0": 1}))
    assert entries == [("A2", 1), ("A1", UNKNOWN), ("A0", UNKNOWN)]
    assert failures == {"A1": "diagonal entry at A1 is 0, cannot invert",
                        "A0": "upstream failure at A1"}


def test_parametric_diagonal_fails():
    entries, failures = _invert(_chain3_report({("A1", "A1"): P}, {"A2": 1}))
    assert entries == [("A2", 1), ("A1", UNKNOWN), ("A0", UNKNOWN)]
    assert failures == {"A1": "diagonal entry at A1 is p, cannot invert",
                        "A0": "upstream failure at A1"}


def test_product_of_two_parameters_is_not_affine():
    entries, failures = _invert(_chain3_report({("A0", "A1"): P}, {"A2": 1, "A1": Q}))
    assert entries == [("A2", 1), ("A1", UNKNOWN), ("A0", UNKNOWN)]
    assert failures == {"A1": "parameter does not cancel: q",
                        "A0": "product of p and -q is not affine"}


def test_a_cancelling_parameter_gives_a_plain_int():
    # value at A1 is -p; at A0, (p + 3) - (-1)(-p) = 3
    entries, failures = _invert(_chain3_report({("A0", "A1"): -1}, {"A2": 1, "A1": P, "A0": P + 3}))
    assert entries == [("A2", 1), ("A1", UNKNOWN), ("A0", 3)]
    assert type(entries[2][1]) is int
    assert failures == {"A1": "parameter does not cancel: p"}


def test_support_zeros_come_first_in_stored_order():
    ds = loads_dataset(chain_doc(3))
    src = ("A0", "(1)")
    sr = _report(ds, {("A0", "A0"): 1}, {src: {"A0": 2}})
    rec = reconstruct_local_euler(sr)
    assert list(rec.entries.items()) == [((src, "A1"), 0), ((src, "A2"), 0), ((src, "A0"), 2)]
    assert rec.sources == [src] and rec.targets == ["A0", "A1", "A2"]


def _affine_reconstruct(sr, published_cc):
    """The inversion with every value an AffineInt, kept as the reference."""
    ds = sr.dataset
    dims = {o.id: o.dim for o in ds.orbits}
    all_orbits = [o.id for o in ds.orbits]
    rows = {}
    failures = {}
    sources = []
    for cc in published_cc:
        src = tuple(cc.source)
        sources.append(src)
        s_orb = src[0]
        below = sorted(ds.poset.down_set(s_orb), key=lambda o: (-dims[o], o))
        internal = {}
        row = rows[src] = {}
        for t in all_orbits:
            if not ds.poset.leq(t, s_orb):
                row[t] = 0
        for t in below:
            diag = sr.cmatrix.entry(t, t)
            try:
                if not diag.is_constant() or diag.constant == 0:
                    raise ComputationError(
                        f"diagonal entry at {t} is {diag}, cannot invert")
                acc = ZERO + cc.at(t)
                for u in ds.poset.interval(t, s_orb):
                    if u == t:
                        continue
                    ev = internal.get(u)
                    if ev is None:
                        raise ComputationError(f"upstream failure at {u}")
                    acc = acc - sr.cmatrix.entry(t, u) * ev
                val = acc / diag.constant
            except (ComputationError, ValueError) as e:
                row[t] = UNKNOWN
                failures[(src, t)] = str(e)
                internal[t] = None
                continue
            internal[t] = val
            if val.is_constant():
                row[t] = val.constant
            else:
                row[t] = UNKNOWN
                failures[(src, t)] = \
                    f"parameter does not cancel: {', '.join(sorted(val.coeffs))}"
    return EulerMatrix(sources, all_orbits, rows, failures=failures)


# a diamond B < X, Y < T stored out of dimension order, so that the stored
# order, the inversion order and the interval order all differ
DIAMOND_DOC = {
    "schema_version": 1, "name": "diamond", "ambient_dim": 2,
    "orbits": [
        {"id": "T", "dim": 2, "group": {"name": "Z/2", "irreps": [["(1)", 1], ["(1^2)", 1]]}},
        {"id": "Y", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "B", "dim": 0, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
        {"id": "X", "dim": 1, "group": {"name": "trivial", "irreps": [["(1)", 1]]}},
    ],
    "covers": [["B", "X"], ["B", "Y"], ["X", "T"], ["Y", "T"]],
    "duality": {"hat": [], "fourier": []}, "kl": [], "catalog": [],
    "special_piece": [], "arthur_type": [], "b_function": ["-1"],
}

_DATASETS = [loads_dataset(chain_doc(2)), loads_dataset(chain_doc(4)),
             loads_dataset(DIAMOND_DOC)]
_CONSTANT = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3]))
_FORM = st.builds(lambda a, name, b: AffineInt(a, {name: b}),
                  _CONSTANT, st.sampled_from(["p", "q"]), st.sampled_from([-2, -1, 1, 2]))
# constants twice as often as forms; None leaves the entry out
_ENTRY = st.one_of(_CONSTANT.map(AffineInt), _CONSTANT.map(AffineInt), _FORM, st.none())
# mostly invertible, so that most examples get past the diagonal check
_DIAGONAL = st.one_of(*[_CONSTANT.filter(bool).map(AffineInt)] * 3, _ENTRY)


@st.composite
def _systems(draw):
    ds = draw(st.sampled_from(_DATASETS))
    ids = [o.id for o in ds.orbits]
    cmatrix = {}
    for a in ids:
        for b in ids:
            if not ds.poset.leq(a, b):
                continue
            v = draw(_DIAGONAL if a == b else _ENTRY)
            if v is not None:
                cmatrix[(a, b)] = v
    rows = []
    for src in ds.local_systems():
        mult = {}
        for o in ids:
            v = draw(_ENTRY)
            if v:
                mult[o] = v
        rows.append(CharacteristicCycle(src, mult))
    rows = draw(st.permutations(rows))
    sr = SolveReport(dataset=ds, cmatrix=CMatrix(cmatrix),
                     cc_table={cc.source: cc for cc in rows},
                     free_parameters=[], residual_unknowns=[], skipped=[], bounds=None)
    return sr, rows


@settings(max_examples=300, deadline=None)
@given(system=_systems())
def test_inversion_matches_the_affine_reference(system):
    sr, rows = system
    got = reconstruct_local_euler(sr)
    want = _affine_reconstruct(sr, rows)
    assert list(got.entries.items()) == list(want.entries.items())
    assert [type(v) for v in got.entries.values()] == [type(v) for v in want.entries.values()]
    assert list(got.failures.items()) == list(want.failures.items())
    assert (got.sources, got.targets) == (want.sources, want.targets)
