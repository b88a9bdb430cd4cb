"""Local evaluations, the transition matrices, and the composition pairing."""

import copy

import pytest

from microloc.data import loads_dataset
from microloc.euler import (InsufficientKLData, MultiplicityMatrices, UNKNOWN,
                            composition_terms, euler_matrix, kl_value, local_euler)
from chains import chain_doc
from golden import EULER

LOW = {"S0", "S1", "S2", "S3", "S6"}
REGION = ["S4", "S7", "S8", "S9", "S10", "S11"]


def _pairing(mm, probe, column):
    """sum over g of cg(probe, g) * mg(g, column): 1 on the diagonal, else 0."""
    return sum(t["product"] for t in composition_terms(mm, probe, column))


def test_unknown_sentinel_resists_misuse():
    with pytest.raises(TypeError):
        bool(UNKNOWN)
    assert UNKNOWN != 0 and UNKNOWN is not None


def test_kl_value_rules(dataset):
    # same orbit: the identity block
    assert kl_value(dataset, ("S9", "(1)"), ("S9", "(1)")) == 1
    assert kl_value(dataset, ("S9", "(1)"), ("S9", "(1^2)")) == 0
    # outside the closure: zero
    assert kl_value(dataset, ("S6", "(1)"), ("S9", "(1)")) == 0
    # a stored per-irrep record
    assert kl_value(dataset, ("S9", "(1)"), ("S10", "(1)")) == 1
    # unpinned cell
    assert kl_value(dataset, ("S0", "(1)"), ("S4", "(1)")) is UNKNOWN


def test_matrix_matches_frozen_table(dataset):
    em = euler_matrix(dataset)
    known = dict(em.known_items())
    assert len(known) == 165
    assert set(known) == set(EULER)
    for cell, (const, coeff) in EULER.items():
        assert coeff == 0
        assert known[cell] == const, cell


def test_unknown_cells_sit_under_low_targets(dataset):
    em = euler_matrix(dataset)
    unknown = em.unknown_cells()
    assert len(unknown) == 75
    for (src, tgt) in unknown:
        assert tgt in LOW
        assert dataset.poset.leq(tgt, src[0]) and tgt != src[0]


def test_quoted_spot_values(dataset):
    em = euler_matrix(dataset)
    assert em.value(("S11", "(4)"), "S10") == 1
    assert em.value(("S10", "(1)"), "S9") == -2
    assert em.value(("S0", "(1)"), "S0") == 1
    assert em.value(("S11", "(31)"), "S11") == 3
    assert em.value(("S11", "(22)"), "S11") == 2
    assert em.value(("S2", "(1^2)"), "S11") == 0


def test_same_orbit_value_is_signed_ls_dimension(dataset):
    for src in dataset.local_systems():
        orb = dataset.orbit(src[0])
        want = (-1) ** orb.dim * dataset.ls_dim(src)
        assert local_euler(dataset, src, src[0]) == want


def test_bad_arguments_raise(dataset):
    with pytest.raises(KeyError):
        local_euler(dataset, ("S9", "(7)"), "S0")
    with pytest.raises(KeyError):
        local_euler(dataset, ("S9", "(1)"), "S99")


def test_mg_column_on_the_dense_exception_region(dataset):
    mm = MultiplicityMatrices(dataset)
    col = ("S11", "(4)")
    want = {
        ("S11", "(1^4)"): 0, ("S11", "(211)"): 0, ("S11", "(22)"): 0,
        ("S11", "(31)"): 0, ("S11", "(4)"): 1, ("S10", "(1)"): 1,
        ("S10", "(1^2)"): 0, ("S8", "(1)"): 0, ("S9", "(1)"): 0,
        ("S9", "(1^2)"): 1, ("S7", "(1)"): 0, ("S4", "(1)"): 0,
    }
    for cell, v in want.items():
        assert mm.mg(cell, col) == v, cell


def test_mg_skips_zero_rows_before_fetching(dataset):
    # the ((S10,(1)), (S11,(31))) evaluation is unpinned, yet the mg entry
    # below it is reachable because zero entries short-circuit the recursion
    mm = MultiplicityMatrices(dataset)
    with pytest.raises(InsufficientKLData):
        mm.cg(("S10", "(1)"), ("S11", "(31)"))
    assert mm.mg(("S11", "(211)"), ("S11", "(31)")) == 0


def test_composition_breakdown_at_the_pinning_cell(dataset):
    mm = MultiplicityMatrices(dataset)
    terms = composition_terms(mm, ("S4", "(1)"), ("S11", "(4)"))
    assert terms[0]["gamma"] == ("S4", "(1)") and terms[0]["product"] == 0
    nonzero = [t["product"] for t in terms[1:] if t["product"]]
    assert nonzero == [-1, 2, -1]
    assert _pairing(mm, ("S4", "(1)"), ("S11", "(4)")) == 0


def test_inverse_law_on_computable_columns(dataset):
    mm = MultiplicityMatrices(dataset)
    cells = [(o, lab) for o in REGION
             for lab in dataset.orbit(o).group.labels()]
    computable = [("S4", "(1)"), ("S7", "(1)"), ("S8", "(1)"), ("S9", "(1)"),
                  ("S9", "(1^2)"), ("S10", "(1)"), ("S10", "(1^2)"),
                  ("S11", "(4)"), ("S11", "(1^4)")]
    for col in computable:
        for d in cells:
            if dataset.poset.leq(d[0], col[0]):
                want = 1 if d == col else 0
                assert _pairing(mm, d, col) == want, (d, col)


def test_remaining_columns_name_their_missing_pairs(dataset):
    mm = MultiplicityMatrices(dataset)
    with pytest.raises(InsufficientKLData) as e:
        _pairing(mm, ("S4", "(1)"), ("S11", "(31)"))
    assert (("S10", "(1)"), ("S11", "(31)")) in e.value.pairs


def _sparse_bundled(doc):
    """The bundled document less two kinds of KL record: the per-irrep
    record at (S9,(1)) under (S10,(1)), whose partner at (S9,(1^2)) stays,
    and every orbit-sum record under (S11,(22))."""
    doc = copy.deepcopy(doc)
    doc["kl"] = [r for r in doc["kl"]
                 if not (r["target"] == ["S9", "(1)"] and r["source"] == ["S10", "(1)"])
                 and not (r["target"][1] is None and r["source"] == ["S11", "(22)"])]
    return doc


@pytest.mark.parametrize("case", ["f4a3", "f4a3-sparse", 6, 9, 12], ids=str)
def test_matrix_agrees_with_local_euler_cell_by_cell(case, bundled_doc):
    if case == "f4a3":
        ds = loads_dataset(bundled_doc)
    elif case == "f4a3-sparse":
        ds = loads_dataset(_sparse_bundled(bundled_doc))
    else:
        ds = loads_dataset(chain_doc(case))
    em = euler_matrix(ds)
    targets = [o.id for o in ds.orbits]
    assert list(em.entries) == [(src, t) for src in ds.local_systems() for t in targets]
    for (src, t), v in em.entries.items():
        want = local_euler(ds, src, t)
        assert v is want if want is UNKNOWN else (type(v), v) == (type(want), want), (src, t)
    if case == "f4a3-sparse":
        # both fallbacks are reached: cells left UNKNOWN, and known cells
        # below a multi-irrep target whose value comes from an orbit sum
        assert len(em.unknown_cells()) > 75
        assert em.value(("S10", "(1)"), "S9") is UNKNOWN
        summed = [(src, t) for (src, t), v in em.known_items()
                  if t != src[0] and ds.kl.row(src)[1].get(t) is not None
                  and len(ds.orbit(t).group.irreps) > 1]
        assert summed


def test_rows_read_as_the_flat_cell_map(bundled_doc):
    """entries, value, known_items and unknown_cells read the rows as the
    flat {(source, target): value} map they once stored, in its order."""
    ds = loads_dataset(_sparse_bundled(bundled_doc))
    em = euler_matrix(ds)
    flat = {(src, o.id): local_euler(ds, src, o.id)
            for src in ds.local_systems() for o in ds.orbits}
    assert list(em.rows) == ds.local_systems()
    assert list(em.entries.items()) == list(flat.items())
    assert em.known_items() == [(k, v) for k, v in flat.items() if v is not UNKNOWN]
    assert em.unknown_cells() == [k for k, v in flat.items() if v is UNKNOWN]
    assert all(em.value(list(src), t) is v for (src, t), v in flat.items())
    for cell in [(("S0", "(9)"), "S1"), (("S9", "(1)"), "S12")]:
        with pytest.raises(KeyError) as e:
            em.value(*cell)
        assert e.value.args == (f"no cell ({cell[0]}, {cell[1]})",)
    # entries is a view, built on read: writing to it changes nothing
    em.entries[(("S0", "(1)"), "S0")] = 5
    assert em.value(("S0", "(1)"), "S0") == 1
    with pytest.raises(AttributeError):
        em.entries = {}


class _CopiedMultiplicities:
    """Test-only copy of the two interval walks MultiplicityMatrices.mg and
    composition_terms each made before they shared one: the same order,
    the same skip of a zero mg entry before the cg fetch, and cg through
    kl_value."""

    def __init__(self, ds):
        self.ds = ds
        self._mg = {}

    def cg(self, d, g):
        if d == g:
            return 1
        if d[0] == g[0] or not self.ds.poset.leq(d[0], g[0]):
            return 0
        v = kl_value(self.ds, d, g)
        if v is UNKNOWN:
            raise InsufficientKLData([(d, g)])
        sign = (self.ds.orbit(d[0]).dim + self.ds.orbit(g[0]).dim) % 2
        return -v if sign else v

    def mg(self, d, col):
        if d[0] == col[0]:
            return 1 if d == col else 0
        if not self.ds.poset.leq(d[0], col[0]):
            return 0
        key = (d, col)
        if key not in self._mg:
            total = 0
            for orb in self.ds.poset.interval(d[0], col[0]):
                if orb == d[0]:
                    continue
                for lab in self.ds.orbit(orb).group.labels():
                    g = (orb, lab)
                    m = self.mg(g, col)
                    if m == 0:
                        continue
                    total -= self.cg(d, g) * m
            self._mg[key] = total
        return self._mg[key]

    def composition_terms(self, probe, column):
        ds = self.ds
        terms = [{"gamma": probe, "cg": 1, "mg": self.mg(probe, column),
                  "product": self.mg(probe, column)}]
        if probe[0] == column[0] or not ds.poset.leq(probe[0], column[0]):
            return terms
        for orb in ds.poset.interval(probe[0], column[0]):
            if orb == probe[0]:
                continue
            for lab in ds.orbit(orb).group.labels():
                g = (orb, lab)
                m = self.mg(g, column)
                if m == 0:
                    continue
                cgv = self.cg(probe, g)
                terms.append({"gamma": g, "cg": cgv, "mg": m, "product": cgv * m})
        return terms


def _outcome(fn, *args):
    """fn(*args) as ("value", result) or ("missing", the pairs it names)."""
    try:
        return "value", fn(*args)
    except InsufficientKLData as e:
        return "missing", e.pairs


@pytest.mark.parametrize("case", ["f4a3", "f4a3-sparse", 6, 9, 12], ids=str)
def test_multiplicities_match_the_copied_walks(case, bundled_doc):
    if case == "f4a3":
        ds = loads_dataset(bundled_doc)
    elif case == "f4a3-sparse":
        ds = loads_dataset(_sparse_bundled(bundled_doc))
    else:
        ds = loads_dataset(chain_doc(case))
    orbits = REGION if isinstance(case, str) else [o.id for o in ds.orbits]
    cells = [(o, lab) for o in orbits for lab in ds.orbit(o).group.labels()]
    mm, ref = MultiplicityMatrices(ds), _CopiedMultiplicities(ds)
    kinds = set()
    for col in cells:
        for d in cells:
            got = _outcome(mm.mg, d, col)
            assert got == _outcome(ref.mg, d, col), (d, col)
            terms = _outcome(composition_terms, mm, d, col)
            assert terms == _outcome(ref.composition_terms, d, col), (d, col)
            kinds.add(got[0])
            kinds.add(terms[0])
    # the bundled cases reach unpinned pairs; the chains pin every pair
    assert kinds == ({"value", "missing"} if isinstance(case, str) else {"value"})
