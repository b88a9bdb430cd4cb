"""build_constraints against a per-cell copy of the rule loop.

per_cell_constraints below assembles the system the plain way: for every
(source, anchor) pair it asks the poset whether the anchor lies below the
source, takes the interval between them, and reads each chi_loc cell of it
from the Euler matrix.  build_constraints must return the same system:
the same equations in the same order, each with the same coefficient order,
value types and tag; the same unknowns; and the same skipped expansions,
each with its missing cells in the same order.
"""

import copy

import pytest

from microloc.data import load_bundled_dataset, loads_dataset
from microloc.duality import fourier_partner, hat
from microloc.euler import UNKNOWN, euler_matrix
from microloc.solver import ConstraintSystem, Equation, SkippedExpansion, build_constraints
from chains import chain_doc
from test_reconstruct import DIAMOND_DOC


def per_cell_constraints(ds, em):
    """The constraint system built one (source, anchor) cell at a time."""
    poset = ds.poset
    sources = ds.local_systems()
    anchors = [o.id for o in ds.orbits]
    dims = {o.id: o.dim for o in ds.orbits}

    mvars = [("m", src, t) for src in sources for t in anchors]
    cpairs = sorted(
        ((a, b) for a in anchors for b in anchors if poset.leq(a, b)),
        key=lambda p: (-dims[p[0]], p[0], dims[p[1]], p[1]))
    cvars = [("c",) + p for p in cpairs]

    eqs = []
    skipped = []
    for src in sources:
        s_orb = src[0]
        for t in anchors:
            mv = ("m", src, t)
            if not poset.leq(t, s_orb):
                eqs.append(Equation(((mv, 1),), 0, ("support", src, t)))
                continue
            if t == s_orb:
                eqs.append(Equation(((mv, 1),), ds.ls_dim(src), ("leading", src)))
            interval = poset.interval(t, s_orb)
            evals = {u: em.value(src, u) for u in interval}
            if any(v is UNKNOWN for v in evals.values()):
                missing = tuple((u, src) for u in interval if evals[u] is UNKNOWN)
                skipped.append(SkippedExpansion(t, src, missing))
                continue
            coeffs = [(mv, -1)]
            for u in interval:
                if evals[u]:
                    coeffs.append((("c", t, u), evals[u]))
            eqs.append(Equation(tuple(coeffs), 0, ("expansion", src, t)))

    for src in sources:
        fsrc = fourier_partner(ds.duality, src)
        for t in anchors:
            a = ("m", src, t)
            b = ("m", fsrc, hat(ds.duality, t))
            if a == b:
                continue
            eqs.append(Equation(((a, 1), (b, -1)), 0, ("symmetry", src, t)))

    if getattr(ds, "diagonal_rule", True):
        for o in ds.orbits:
            eqs.append(Equation(
                ((("c", o.id, o.id), 1),), -1 if o.dim % 2 else 1, ("diagonal", o.id)))

    return ConstraintSystem(ds, mvars + cvars, eqs, skipped)


def typed(cs):
    """The system as plain tuples, with the type of every value beside it,
    so that 1 and Fraction(1) (equal as numbers) compare unequal."""
    return (
        [(tuple((var, type(c), c) for var, c in eq.coeffs), type(eq.rhs), eq.rhs, eq.tag)
         for eq in cs.equations],
        list(cs.unknowns),
        [(s.anchor, s.source, s.missing) for s in cs.skipped],
    )


# test_reconstruct's diamond, stored out of dimension order, with a hat, a
# fourier map and one KL record, so that some expansions are written and
# some are skipped
DIAMOND = dict(
    DIAMOND_DOC,
    duality={
        "hat": [["T", "B"], ["X", "Y"]],
        "fourier": [[["T", "(1)"], ["B", "(1)"]], [["T", "(1^2)"], ["T", "(1^2)"]],
                    [["X", "(1)"], ["Y", "(1)"]]],
    },
    kl=[{"target": ["X", "(1)"], "source": ["T", "(1)"], "value": 1,
         "provenance": "reconstructed"}])


def _without_kl(doc):
    """The bundled document with every third KL record removed."""
    out = copy.deepcopy(doc)
    out["kl"] = [r for i, r in enumerate(out["kl"]) if i % 3 != 1]
    return out


CASES = ("f4a3", "f4a3-fewer-kl", "chain6", "chain9", "chain12", "diamond")


@pytest.fixture(scope="module")
def datasets(bundled_doc):
    return {
        "f4a3": load_bundled_dataset(),
        "f4a3-fewer-kl": loads_dataset(_without_kl(bundled_doc)),
        "chain6": loads_dataset(chain_doc(6)),
        "chain9": loads_dataset(chain_doc(9)),
        "chain12": loads_dataset(chain_doc(12)),
        "diamond": loads_dataset(DIAMOND),
    }


@pytest.mark.parametrize("name", CASES)
def test_matches_per_cell_loop(name, datasets):
    ds = datasets[name]
    em = euler_matrix(ds)
    got = build_constraints(ds, em)
    want = per_cell_constraints(ds, em)
    assert got.dataset is ds
    assert typed(got) == typed(want)


def test_cases_reach_skips_and_written_expansions(datasets):
    """Every case writes expansions; the bundled one skips 75, fewer KL
    records skip more, and the diamond skips some but not all."""
    counts = {}
    for name in CASES:
        cs = build_constraints(datasets[name], euler_matrix(datasets[name]))
        written = sum(eq.tag[0] == "expansion" for eq in cs.equations)
        counts[name] = (written, len(cs.skipped))
    assert all(written for written, _ in counts.values())
    assert counts["f4a3"][1] == 75
    assert counts["f4a3-fewer-kl"][1] > 75
    assert counts["diamond"][1] > 0
    assert counts["chain12"][1] == 0


def test_diamond_is_stored_out_of_dimension_order(datasets):
    ds = datasets["diamond"]
    ids = ds.poset.ids
    assert ids != sorted(ids, key=lambda o: ds.orbit(o).dim)
    assert ds.poset.interval("B", "T") == ["T", "Y", "B", "X"]


# a bottom, three orbits of dimension 1 and two of dimension 2 stored in
# falling string order, and a top; not every middle pair is comparable
WIDE = {
    "schema_version": 1, "name": "wide", "ambient_dim": 3,
    "orbits": [{"id": o, "dim": d, "group": {"name": "trivial", "irreps": [["(1)", 1]]}}
               for o, d in [("T", 3), ("Q2", 2), ("Q1", 2), ("P3", 1), ("P2", 1), ("P1", 1),
                            ("B", 0)]],
    "covers": [["B", "P1"], ["B", "P2"], ["B", "P3"], ["P3", "Q2"], ["P2", "Q2"],
               ["P2", "Q1"], ["P1", "Q1"], ["Q1", "T"], ["Q2", "T"]],
    "duality": {"hat": [["T", "B"], ["Q2", "P3"], ["Q1", "P1"], ["P2", "P2"]],
                "fourier": [[[a, "(1)"], [b, "(1)"]]
                            for a, b in [("T", "B"), ("Q2", "P3"), ("Q1", "P1"), ("P2", "P2")]]},
    "kl": [], "catalog": [], "special_piece": [], "arthur_type": [], "b_function": ["-1"],
}


@pytest.mark.parametrize("name", ["f4a3", "chain12", "wide"])
def test_cpair_order_is_the_cvar_key_sort(name, datasets):
    ds = loads_dataset(WIDE) if name == "wide" else datasets[name]
    dims = {o.id: o.dim for o in ds.orbits}
    ids = ds.poset.ids
    if name == "f4a3":
        # dimensions tie, so the ids decide
        assert all(dims[a] == dims[b] for a, b in [("S3", "S4"), ("S5", "S6"), ("S8", "S9")])
    elif name == "chain12":
        assert "A10" < "A2"
    else:
        assert [o for o in ids if dims[o] == 1] == sorted(
            (o for o in ids if dims[o] == 1), reverse=True)
    em = euler_matrix(ds)
    cs = build_constraints(ds, em)
    assert typed(cs) == typed(per_cell_constraints(ds, em))
    want = sorted(((a, b) for a in ids for b in ids if ds.poset.leq(a, b)),
                  key=lambda p: (-dims[p[0]], p[0], dims[p[1]], p[1]))
    m = len(ds.local_systems()) * len(ids)
    assert cs.unknowns[m:] == [("c",) + p for p in want]


def test_equation_is_an_immutable_value():
    coeffs = ((("m", ("A", "(1)"), "B"), 1), (("c", "B", "B"), -2))
    tag = ("expansion", ("A", "(1)"), "B")
    eq = Equation(coeffs, 0, tag)
    assert eq == Equation(coeffs=coeffs, rhs=0, tag=tag)
    assert hash(eq) == hash(Equation(coeffs=coeffs, rhs=0, tag=tag))
    assert eq != Equation(coeffs, 1, tag)
    assert (eq.coeffs, eq.rhs, eq.tag) == (coeffs, 0, tag)
    assert repr(eq) == ("Equation(coeffs=((('m', ('A', '(1)'), 'B'), 1), (('c', 'B', 'B'), -2)), "
                        "rhs=0, tag=('expansion', ('A', '(1)'), 'B'))")
    with pytest.raises(AttributeError):
        eq.rhs = 1
