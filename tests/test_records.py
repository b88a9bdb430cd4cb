"""The public record classes: construction, repr, equality, hash, immutability.

Records that nothing changes after construction are frozen: assigning to
a field raises AttributeError, and the hash is the hash of the tuple of
their fields.  The stateful classes and the reports compare by value too,
and the stateful classes have no hash; so two loads of one file, with
their orbit posets, compare equal.  Each case builds one instance
positionally with the defaults left out, and one by keyword.
"""

import pytest

from microloc import (
    ArthurParameter,
    AZCompatReport,
    Bound,
    CharacteristicCycle,
    CMatrix,
    ComponentGroup,
    Dataset,
    DualityData,
    Equation,
    KLRecord,
    KLTable,
    Orbit,
    OrbitPoset,
    Packet,
    Representation,
    SkippedExpansion,
    SolveReport,
    Violation,
    WeakUnionReport,
    all_micro_packets,
    build_constraints,
    euler_matrix,
    load_bundled_dataset,
    solve,
)

Z2 = ComponentGroup("Z2", (("(2)", 1), ("(1^2)", 1)))
Z2_REPR = "ComponentGroup(name='Z2', irreps=(('(2)', 1), ('(1^2)', 1)))"

# name -> (class, positional args, keyword args of the same value, its repr)
FROZEN = {
    "ComponentGroup": (
        ComponentGroup, ("Z2", (("(2)", 1), ("(1^2)", 1))),
        {"name": "Z2", "irreps": (("(2)", 1), ("(1^2)", 1))}, Z2_REPR),
    "Orbit": (
        Orbit, ("S4", 8, Z2), {"id": "S4", "dim": 8, "group": Z2},
        f"Orbit(id='S4', dim=8, group={Z2_REPR})"),
    "Representation": (
        Representation, ("pi4", ("S4", "(2)"), "pi9", True, False),
        {"id": "pi4", "param": ("S4", "(2)"), "az_partner": "pi9",
         "iwahori_spherical": True, "unitary": False},
        "Representation(id='pi4', param=('S4', '(2)'), az_partner='pi9', "
        "iwahori_spherical=True, unitary=False)"),
    "ArthurParameter": (
        ArthurParameter, ("psi1", "S4"), {"label": "psi1", "langlands": "S4"},
        "ArthurParameter(label='psi1', langlands='S4')"),
    "KLRecord": (
        KLRecord, ("S4", None, ("S8", "(1)"), 1, "transcribed"),
        {"target_orbit": "S4", "target_irrep": None, "source": ("S8", "(1)"),
         "value": 1, "provenance": "transcribed", "note": ""},
        "KLRecord(target_orbit='S4', target_irrep=None, source=('S8', '(1)'), "
        "value=1, provenance='transcribed', note='')"),
    "Violation": (
        Violation, ("cover-dim", "dim decreases"),
        {"code": "cover-dim", "detail": "dim decreases", "subject": ()},
        "Violation(code='cover-dim', detail='dim decreases', subject=())"),
    "SkippedExpansion": (
        SkippedExpansion, ("S4", ("S8", "(1)"), (("S5", ("S8", "(1)")),)),
        {"anchor": "S4", "source": ("S8", "(1)"), "missing": (("S5", ("S8", "(1)")),)},
        "SkippedExpansion(anchor='S4', source=('S8', '(1)'), "
        "missing=(('S5', ('S8', '(1)')),))"),
    "Packet": (
        Packet, ("micro", "S4", ("pi1", "pi2")),
        {"kind": "micro", "anchor": "S4", "members": ("pi1", "pi2"), "indeterminate": ()},
        "Packet(kind='micro', anchor='S4', members=('pi1', 'pi2'), indeterminate=())"),
    "Equation": (
        Equation, (((("c", "S4", "S11"), 1),), -2, ("diagonal", "S4")),
        {"coeffs": ((("c", "S4", "S11"), 1),), "rhs": -2, "tag": ("diagonal", "S4")},
        "Equation(coeffs=((('c', 'S4', 'S11'), 1),), rhs=-2, tag=('diagonal', 'S4'))"),
}

PACKET = Packet("micro", "S4", ("pi1",))
REPORTS = {
    "AZCompatReport": (
        AZCompatReport, ("S4", "S9", True),
        {"anchor": "S4", "dual_anchor": "S9", "ok": True, "az_image": (), "expected": (),
         "az_indeterminate": (), "expected_indeterminate": ()},
        "AZCompatReport(anchor='S4', dual_anchor='S9', ok=True, az_image=(), expected=(), "
        "az_indeterminate=(), expected_indeterminate=())"),
    "WeakUnionReport": (
        WeakUnionReport, (True, PACKET, ["S4"], {"S4": PACKET}, ("pi1",), ()),
        {"equal": True, "weak": PACKET, "anchors": ["S4"], "per_anchor": {"S4": PACKET},
         "union_members": ("pi1",), "union_indeterminate": ()},
        f"WeakUnionReport(equal=True, weak={PACKET!r}, anchors=['S4'], "
        f"per_anchor={{'S4': {PACKET!r}}}, union_members=('pi1',), union_indeterminate=())"),
    "Bound": (
        Bound, ("c", 2, None),
        {"parameter": "c", "lower": 2, "upper": None, "tight_lower_witnesses": [],
         "tight_upper_witnesses": []},
        "Bound(parameter='c', lower=2, upper=None, tight_lower_witnesses=[], "
        "tight_upper_witnesses=[])"),
}

CM = CMatrix({("S4", "S11"): 1})
STATEFUL = {
    "CMatrix": (
        CMatrix, ({("S4", "S11"): 1},), {"entries": {("S4", "S11"): 1}},
        "CMatrix(entries={('S4', 'S11'): 1})"),
    "CharacteristicCycle": (
        CharacteristicCycle, (("S8", "(1)"), {"S4": 2}),
        {"source": ("S8", "(1)"), "mult": {"S4": 2}},
        "CharacteristicCycle(source=('S8', '(1)'), mult={'S4': 2})"),
    "KLTable": (
        KLTable, ([KLRecord(*FROZEN["KLRecord"][1])],),
        {"records": [KLRecord(*FROZEN["KLRecord"][1])]},
        f"KLTable(records=[{FROZEN['KLRecord'][3]}])"),
    "DualityData": (
        DualityData, ([("S4", "S9")], [(("S4", "(2)"), ("S9", "(1)"))]),
        {"hat_pairs": [("S4", "S9")], "fourier_pairs": [(("S4", "(2)"), ("S9", "(1)"))]},
        "DualityData(hat_pairs=[('S4', 'S9')], fourier_pairs=[(('S4', '(2)'), ('S9', '(1)'))])"),
    "SolveReport": (
        SolveReport, (None, CM, {}, ["c"], [], [], None),
        {"dataset": None, "cmatrix": CM, "cc_table": {}, "free_parameters": ["c"],
         "residual_unknowns": [], "skipped": [], "bounds": None, "bound_note": "",
         "equation_count": 0},
        "SolveReport(dataset=None, cmatrix=CMatrix(entries={('S4', 'S11'): 1}), cc_table={}, "
        "free_parameters=['c'], residual_unknowns=[], skipped=[], bounds=None, bound_note='', "
        "equation_count=0)"),
    "Dataset": (
        Dataset, ("d", 1, 2, [], None, None, None, [], [], [], [], []),
        {"name": "d", "schema_version": 1, "ambient_dim": 2, "orbits": [], "poset": None,
         "duality": None, "kl": None, "catalog": [], "special_piece": [], "arthur_type": [],
         "conormal_dense_exceptions": [], "b_function": [], "notes": [],
         "diagonal_rule": True},
        "Dataset(name='d', schema_version=1, ambient_dim=2, orbits=[], poset=None, "
        "duality=None, kl=None, catalog=[], special_piece=[], arthur_type=[], "
        "conormal_dense_exceptions=[], b_function=[], notes=[], diagonal_rule=True)"),
}

ALL = {**FROZEN, **REPORTS, **STATEFUL}


@pytest.mark.parametrize("name", sorted(ALL))
def test_positional_and_keyword_forms_agree(name):
    cls, args, kwargs, text = ALL[name]
    pos, kw = cls(*args), cls(**kwargs)
    assert repr(pos) == repr(kw) == text
    assert pos == kw and not pos != kw
    for field, value in kwargs.items():
        assert getattr(pos, field) == value


@pytest.mark.parametrize("name", sorted(ALL))
def test_a_changed_field_makes_a_different_value(name):
    cls, args, kwargs, _ = ALL[name]
    field, value = next(iter(kwargs.items()))
    other = cls(**{**kwargs, field: [] if isinstance(value, list) else "other"})
    assert other != cls(**kwargs) and not other == cls(**kwargs)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_by_value_and_refuse_assignment(name):
    cls, args, kwargs, _ = FROZEN[name]
    rec = cls(*args)
    assert hash(rec) == hash(cls(**kwargs)) == hash(tuple(kwargs.values()))
    assert len({rec, cls(**kwargs)}) == 1
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert repr(rec) == FROZEN[name][3]


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_stateful_classes_have_no_hash(name):
    cls, args, _, _ = STATEFUL[name]
    with pytest.raises(TypeError):
        hash(cls(*args))


def test_stateful_classes_keep_assignment():
    sr = SolveReport(None, CM, {}, [], [], [], None)
    sr.bounds = [Bound("c", 2, None)]
    assert sr.bounds == [Bound("c", 2, None)]


def test_the_by_anchor_view_is_no_field(solved):
    read, unread = (SolveReport(*(getattr(solved, f) for f in solved._fields))
                    for _ in range(2))
    text = repr(read)
    all_micro_packets(read)
    assert repr(read) == repr(unread) == text
    assert read == unread and not read != unread


def test_list_defaults_are_fresh_per_instance():
    a, b = Bound("c", 2, None), Bound("c", 2, None)
    assert a.tight_lower_witnesses == [] and a.tight_lower_witnesses is not b.tight_lower_witnesses
    assert a.tight_upper_witnesses is not b.tight_upper_witnesses
    args = STATEFUL["Dataset"][1]
    assert Dataset(*args).notes == [] and Dataset(*args).notes is not Dataset(*args).notes


def test_records_of_a_loaded_dataset(dataset, solved):
    s4 = dataset.orbit("S4")
    assert s4 == Orbit(s4.id, s4.dim, ComponentGroup(s4.group.name, s4.group.irreps))
    assert dataset.kl.records[0] == KLRecord(*(getattr(dataset.kl.records[0], f) for f in
                                               FROZEN["KLRecord"][2]))
    cc = solved.cc_table[("S8", "(1)")]
    assert cc == CharacteristicCycle(("S8", "(1)"), dict(cc.mult))
    assert solved.cmatrix == CMatrix(dict(solved.cmatrix.entries))
    assert solved.bounds == [Bound("c", 2, None, [(("S8", "(1)"), "S4")], [])]


def test_two_loads_of_one_file_compare_equal():
    a, b = load_bundled_dataset(), load_bundled_dataset()
    assert a.poset is not b.poset
    assert a.poset == b.poset and not a.poset != b.poset
    assert a == b
    assert solve(build_constraints(a, euler_matrix(a))) == \
        solve(build_constraints(b, euler_matrix(b)))
    p = a.poset
    covers = list(p.covers)
    covers[0] = covers[0][::-1]
    changed = OrbitPoset(p.ids, p.dim, covers, p.ambient_dim)
    assert changed != p and not changed == p
    assert OrbitPoset(p.ids, p.dim, p.covers, p.ambient_dim) == p
    assert repr(p).startswith(f"OrbitPoset(ids={p.ids!r}, dim=")
    b.poset = changed
    assert a != b
    with pytest.raises(TypeError):
        hash(p)
