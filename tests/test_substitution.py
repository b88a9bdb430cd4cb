"""Forward substitution on the expansion rows, and the anchors that fall back.

build_constraints fixes the c-columns of an anchor t by walking the orbits
above t by rising dimension, each c(t, u) from the first row on u whose
m-class holds a known value, and hands the values to the presolve as pins.
An anchor falls back to the presolve, its expansion rows built as before,
when one of its expansions is skipped or some c(t, u) has no row to fix
it; every anchor falls back when dimension does not rise along a cover or
the duality image is not an involution.  Whatever falls back, the
presolve of the structure, the substituted values and the failed checks
must assign every column the expression the presolve of the full rows
assigns it, and a conflict must raise the tags of one elimination of the
full rows.  Two pins of different values on a pair that no presolve row
holds must be named as the queue names them, the earlier one.  The
edited datasets go through the library without validate_dataset.
"""

import copy

from microloc.data import loads_dataset
from microloc.euler import euler_matrix
from microloc.solver import _presolve, build_constraints
from chains import SIGN, chain_doc, middle_corruption, orbit_id, with_kl_value
from test_mclasses import _check_against_full_rows, _check_classes, _check_outcome, \
    _leading_joined_to_support


def _settled(cs):
    """The anchors whose c-columns substitution fixed."""
    return {cs.unknowns[k][1] for k, _, _ in cs.substituted if cs.unknowns[k][0] == "c"}


def _chain(n):
    return [orbit_id(i) for i in range(n)]


def test_every_chain_anchor_is_settled():
    cs = _check_classes(loads_dataset(chain_doc(6)))
    assert _settled(cs) == set(_chain(6))
    assert [tag[0] for _, _, tag in cs.presolve_rows] == ["diagonal"] * 6
    assert _check_outcome(cs) is None


def test_dimension_that_does_not_rise_along_a_cover():
    doc = chain_doc(6)
    doc["orbits"][3]["dim"] = 2            # the cover (A2, A3) keeps dimension 2
    cs = _check_classes(loads_dataset(doc))
    assert cs.substituted == [] and cs.contradicted == []
    _check_outcome(cs)


def test_anchor_with_a_skipped_row_falls_back():
    # without P(A1 <- A4) the rows of (A4,(1)) at A0 and A1 are skipped
    doc = chain_doc(6)
    doc["kl"] = [r for r in doc["kl"]
                 if (r["target"], r["source"]) != ([orbit_id(1), "(1)"], [orbit_id(4), "(1)"])]
    cs = _check_classes(loads_dataset(doc))
    assert {s.anchor for s in cs.skipped} == {"A0", "A1"}
    assert _settled(cs) == set(_chain(6)[2:])
    _check_outcome(cs)


def test_anchor_whose_c_entry_no_row_fixes_falls_back():
    # fourier fixes every (1) sheaf, so m[(A4,(1)), A2] is tied only to
    # m[(A4,(1)), A3]: neither is pinned, and (A4,(1)) is the only source
    # on A4, so no row fixes c(A2, A4), nor c(A3, A4) at A3
    doc = chain_doc(6)
    doc["duality"]["fourier"] = [[[a, "(1)"], [a, "(1)"]] for a in _chain(6)] + \
        [[[orbit_id(5), SIGN], [orbit_id(5), SIGN]]]
    cs = _check_classes(loads_dataset(doc))
    assert cs.skipped == []
    settled = _settled(cs)
    assert "A2" not in settled and "A3" not in settled and settled
    _check_outcome(cs)


def test_two_pins_on_a_class_no_row_holds():
    # chain3 with fourier fixing every sheaf: m[(A0,(1)), A0], leading 1 at
    # row 0, is tied to m[(A0,(1)), A2], support 0 at row 3.  No presolve
    # row holds either, so both pins go straight into the presolve's
    # solution, the later one first as the queue would take them, and the
    # earlier one is the one named
    doc = chain_doc(3)
    doc["duality"]["fourier"] = [[[a, "(1)"], [a, "(1)"]] for a in _chain(3)] + \
        [[[orbit_id(2), SIGN], [orbit_id(2), SIGN]]]
    cs = _check_classes(loads_dataset(doc))
    assert cs.involutive and cs.image[0] == 2
    held = {k for coeffs, _, _ in cs.presolve_rows for k, _ in coeffs}
    assert [p for p in cs.pins + cs.substituted if p[0] in (0, 2)] == [(0, 1, 0), (2, 0, 3)]
    assert not held & {0, 2}
    structure = (cs.presolve_rows, cs.presolve_ids, cs.image, cs.pins + cs.substituted)
    assert _presolve(*structure, True)[1] == _presolve(*structure)[1] == [0]
    assert cs.contradicted == [12]
    # the tags of one elimination of the full rows
    assert _check_outcome(cs) == [
        ("leading", ("A0", "(1)")), ("expansion", ("A0", "(1)"), "A0"),
        ("expansion", ("A1", "(1)"), "A0"), ("support", ("A1", "(1)"), "A2"),
        ("expansion", ("A2", "(1)"), "A0"), ("leading", ("A2", "(1)")),
        ("expansion", ("A2", "(1^2)"), "A0"), ("leading", ("A2", "(1^2)")),
        ("symmetry", ("A1", "(1)"), "A0"), ("symmetry", ("A2", "(1)"), "A0"),
        ("symmetry", ("A2", "(1^2)"), "A0")]


def test_image_that_is_not_an_involution():
    cs = _check_classes(loads_dataset(_leading_joined_to_support()))
    assert cs.substituted == [] and cs.contradicted == []
    assert _check_outcome(cs)


def test_failed_check_on_a_settled_anchor_raises_the_full_tags():
    cs = _check_classes(loads_dataset(with_kl_value(chain_doc(12), *middle_corruption(12))))
    assert _settled(cs) == set(_chain(12))
    assert cs.contradicted
    assert _check_outcome(cs)


def test_chain60_every_column_against_the_full_rows():
    ds = loads_dataset(chain_doc(60))
    cs = build_constraints(ds, euler_matrix(ds))
    assert _settled(cs) == set(_chain(60))
    _check_against_full_rows(cs, cs.rows)


def test_walk_does_not_depend_on_stored_order():
    # the walk goes by rising dimension, whatever order the orbits are stored in
    doc = chain_doc(6)
    reordered = copy.deepcopy(doc)
    reordered["orbits"] = doc["orbits"][::-1]
    cs = _check_classes(loads_dataset(reordered))
    assert _settled(cs) == set(_chain(6))
    assert _check_outcome(cs) is None
