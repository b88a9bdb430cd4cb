"""Micro-packets, the two Arthur packets, and the duality compatibilities."""

import copy

import pytest

from microloc.affine import ZERO, AffineInt
from microloc.duality import hat
from microloc.euler import euler_matrix
from microloc.packets import (Packet, all_micro_packets, basic_arthur_packet,
                              micro_packet, simplified_arthur_parameters,
                              unitarity_report, verify_az_micro_compatibility,
                              verify_weak_equals_union, weak_arthur_packet)
from microloc.solver import (CharacteristicCycle, ComputationError, SolveReport,
                             build_constraints, solve)
from golden import PACKETS

WEAK_MEMBERS = ("X5", "X7", "X8", "X9", "X11", "X13", "X15",
                "X17", "X18", "X19", "X20")


def test_all_micro_packets_match_frozen(dataset, solved):
    packets = all_micro_packets(solved)
    assert list(packets) == [o.id for o in dataset.orbits]
    for anchor, p in packets.items():
        want_members, want_ind = PACKETS[anchor]
        assert tuple(sorted(p.members)) == want_members, anchor
        assert tuple(sorted(p.indeterminate)) == want_ind, anchor


def test_only_s4_has_an_indeterminate_member(dataset, solved):
    packets = all_micro_packets(solved)
    assert {a: p.indeterminate for a, p in packets.items() if p.indeterminate} \
        == {"S4": ("X8",)}
    assert "X8" in packets["S4"]  # __contains__ covers indeterminates


def test_micro_packet_unknown_anchor_raises(dataset, solved):
    with pytest.raises(KeyError):
        micro_packet(solved, "S99")


def _unread(sr):
    """A report with sr's fields whose by-anchor view was never read."""
    return SolveReport(*(getattr(sr, f) for f in sr._fields))


def test_an_assigned_table_rebuilds_the_view(solved):
    sr = copy.copy(solved)
    assert micro_packet(sr, "S7") == Packet("micro", "S7", ("X5", "X7", "X8", "X9", "X11"))
    # at S7: X6's cycle gains an entry, X9's loses one, and X8's turns from 1 to c - 2
    table = dict(sr.cc_table)
    for param, value in [(("S10", "(1)"), 1), (("S7", "(1)"), None),
                         (("S8", "(1)"), AffineInt.parameter("c") - 2)]:
        mult = dict(table[param].mult)
        if value is None:
            del mult["S7"]
        else:
            mult["S7"] = ZERO + value
        table[param] = CharacteristicCycle(param, mult)
    sr.cc_table = table
    assert micro_packet(sr, "S7") == Packet("micro", "S7", ("X5", "X6", "X7", "X11"), ("X8",))
    assert all_micro_packets(sr) == all_micro_packets(_unread(sr))
    assert micro_packet(solved, "S7").members == ("X5", "X7", "X8", "X9", "X11")


def test_an_assigned_dataset_rebuilds_the_view(solved, mutate):
    sr = copy.copy(solved)
    before = all_micro_packets(sr)
    sr.dataset = mutate(lambda doc: doc["catalog"].reverse())
    after = all_micro_packets(sr)
    assert after == all_micro_packets(_unread(sr))
    assert {a: p.members[::-1] for a, p in before.items()} == \
        {a: p.members for a, p in after.items()}


def test_micro_packet_errors_keep_their_texts(solved):
    sr = copy.copy(solved)
    with pytest.raises(KeyError) as e:
        micro_packet(sr, "S99")
    assert e.value.args == ("unknown orbit S99",)
    assert micro_packet(sr, "S0").members
    table = dict(solved.cc_table)
    del table[("S8", "(1)")]
    sr.cc_table = table
    # a catalog parameter with no cycle fails every read, and a failed
    # read keeps no view
    for _ in range(2):
        with pytest.raises(KeyError) as e:
            micro_packet(sr, "S0")
        assert e.value.args == (("S8", "(1)"),)
    with pytest.raises(KeyError) as e:
        micro_packet(sr, "S99")
    assert e.value.args == ("unknown orbit S99",)
    # the missing cycle is named before any entry is classified: without
    # bounds, X5's c at S4 cannot be, and X5 comes before X8
    sr.bounds = None
    with pytest.raises(KeyError) as e:
        micro_packet(sr, "S4")
    assert e.value.args == (("S8", "(1)"),)
    sr.cc_table = solved.cc_table
    with pytest.raises(ComputationError, match="no usable bounds"):
        micro_packet(sr, "S4")


def test_basic_packet(dataset, solved):
    p = basic_arthur_packet(solved)
    assert p.kind == "basic-arthur"
    assert p.anchor == "S0"
    assert p.members == ("X5", "X13", "X17", "X19", "X20")
    assert not p.indeterminate


def test_weak_packet(dataset):
    p = weak_arthur_packet(dataset)
    assert p.members == WEAK_MEMBERS
    assert len(p.members) == 11


def test_weak_requires_a_special_piece(dataset):
    bare = copy.copy(dataset)
    bare.special_piece = ()
    with pytest.raises(ValueError):
        weak_arthur_packet(bare)


def test_weak_on_top_only_equals_basic(dataset, solved):
    only_top = copy.copy(dataset)
    only_top.special_piece = ("S11",)
    w = weak_arthur_packet(only_top)
    b = basic_arthur_packet(solved)
    assert set(w.members) == set(b.members)


def test_weak_on_all_orbits_is_everything(dataset):
    every = copy.copy(dataset)
    every.special_piece = tuple(o.id for o in dataset.orbits)
    w = weak_arthur_packet(every)
    assert len(w.members) == len(dataset.catalog)


def test_weak_equals_union_of_dual_micro_packets(dataset, solved):
    r = verify_weak_equals_union(solved)
    assert r.equal
    assert r.anchors == ["S0", "S1", "S2", "S3", "S7"]
    assert set(r.union_members) == set(WEAK_MEMBERS)
    assert r.union_indeterminate == ()


def test_az_compatibility_at_all_anchors(dataset, solved):
    reports = verify_az_micro_compatibility(solved)
    assert [r.anchor for r in reports] == ["S0", "S1", "S2", "S3", "S7"]
    assert all(r.ok for r in reports)
    for r in reports:
        assert set(r.az_image) == set(PACKETS[r.dual_anchor][0])


def test_az_compatibility_is_symmetric(dataset):
    # running the check from the dual side must succeed as well,
    # indeterminates included (S4 is self-dual with one indeterminate): a
    # special piece of the duals of the bundled one, then S4, puts the
    # anchors at the bundled special piece, then S4
    dual_side = copy.copy(dataset)
    dual_side.special_piece = [hat(dataset.duality, s) for s in dataset.special_piece] + ["S4"]
    sr = solve(build_constraints(dual_side, euler_matrix(dual_side)))
    reports = verify_az_micro_compatibility(sr)
    assert [r.anchor for r in reports] == list(dataset.special_piece) + ["S4"]
    assert all(r.ok for r in reports)
    s4 = reports[-1]
    assert s4.az_indeterminate == ("X8",) and s4.expected_indeterminate == ("X8",)


def test_swapping_az_inside_the_weak_packet_keeps_the_set(mutate):
    # az values of X7, X8, X9 all lie inside the weak packet, so exchanging
    # the entries of X8 and X9 permutes members without changing the set
    def swap(doc):
        by_id = {r["id"]: r for r in doc["catalog"]}
        by_id["X8"]["az"], by_id["X9"]["az"] = by_id["X9"]["az"], by_id["X8"]["az"]
    ds = mutate(swap)
    w = weak_arthur_packet(ds)
    assert set(w.members) == set(WEAK_MEMBERS)


def test_swapping_az_across_the_special_boundary_breaks_equality(mutate):
    def swap(doc):
        by_id = {r["id"]: r for r in doc["catalog"]}
        by_id["X8"]["az"], by_id["X12"]["az"] = by_id["X12"]["az"], by_id["X8"]["az"]
    ds = mutate(swap)
    sr = solve(build_constraints(ds, euler_matrix(ds)))
    r = verify_weak_equals_union(sr)
    assert not r.equal
    diff = set(r.union_members) ^ set(r.weak.members)
    assert diff == {"X8", "X14"}


def test_unitarity_flags_the_lone_nonunitary_member(dataset, solved):
    packets = all_micro_packets(solved)
    rows = unitarity_report(dataset.catalog, list(packets.values()))
    flagged = {r["anchor"]: r["nonunitary"] for r in rows if not r["all_unitary"]}
    assert flagged == {"S4": ["X16"]}
    for r in rows:
        if r["anchor"] in ("S0", "S1", "S2", "S3", "S7"):
            assert r["all_unitary"], r["anchor"]


def test_unitarity_on_the_full_catalog(dataset):
    whole = Packet("catalog", None, tuple(r.id for r in dataset.catalog))
    (row,) = unitarity_report(dataset.catalog, [whole])
    assert row["nonunitary"] == ["X16"]
    assert not row["all_unitary"]


def test_arthur_parameter_family(dataset):
    rows = simplified_arthur_parameters(dataset)
    assert len(rows) == 10
    pairs = {(r["support"], r["dual"]) for r in rows}
    assert ("S0", "S11") in pairs
    assert ("S1", "S10") in pairs
    assert ("S7", "S7") in pairs
    for s, d in pairs:
        assert (d, s) in pairs  # closed under transposition


def test_arthur_family_must_close_under_duality(dataset):
    reduced = copy.copy(dataset)
    reduced.arthur_type = [p for p in dataset.arthur_type if p.langlands != "S11"]
    with pytest.raises(ComputationError):
        simplified_arthur_parameters(reduced)


def test_chain_cross_check_catches_incompatible_duality(chain):
    # the toy chain pairs Y1 with Y2 under az but keeps hat the identity,
    # so the dual of the open-orbit representation cannot reproduce the
    # micro-packet at hat(top); the cross-check must notice
    sr = solve(build_constraints(chain, euler_matrix(chain)))
    with pytest.raises(ComputationError):
        basic_arthur_packet(sr)


def test_point_dataset_trivial_packets(load_doc):
    doc = {
        "schema_version": 1, "name": "point", "ambient_dim": 0,
        "orbits": [{"id": "P", "dim": 0,
                    "group": {"name": "trivial", "irreps": [["(1)", 1]]}}],
        "covers": [],
        "duality": {"hat": [["P", "P"]],
                    "fourier": [[["P", "(1)"], ["P", "(1)"]]]},
        "kl": [],
        "catalog": [{"id": "Z1", "param": ["P", "(1)"], "az": "Z1",
                     "iwahori_spherical": True, "unitary": True}],
        "special_piece": ["P"], "arthur_type": [], "b_function": [],
    }
    ds = load_doc(doc)
    sr = solve(build_constraints(ds, euler_matrix(ds)))
    b = basic_arthur_packet(sr)
    assert b.members == ("Z1",) and b.anchor == "P"
    w = weak_arthur_packet(ds)
    assert w.members == ("Z1",)
    r = verify_weak_equals_union(sr)
    assert r.equal and r.anchors == ["P"]
    (compat,) = verify_az_micro_compatibility(sr)
    assert compat.ok and compat.az_image == ("Z1",)
