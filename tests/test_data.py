"""Loading, schema rejection, and structural validation of datasets."""

import copy
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import microloc
from microloc.cli import main
from microloc.data import Dataset, DualityData, SchemaError, bundled_dataset_path, \
    load_dataset, loads_dataset, validate_dataset
from microloc.poset import OrbitPoset
from chains import chain_doc


def test_bundled_shape(dataset):
    assert dataset.name == "F4(a3)"
    assert len(dataset.orbits) == 12
    assert len(dataset.catalog) == 20
    assert len(dataset.local_systems()) == 20
    assert list(dataset.special_piece) == ["S11", "S10", "S9", "S8", "S7"]
    assert len(dataset.kl.records) == 54
    assert dataset.diagonal_rule is True
    assert dataset.orbit("S4").dim == 7
    assert dataset.representation("X5").iwahori_spherical is False


def test_bundled_dataset_path_names_the_bundled_file(bundled_doc):
    assert json.loads(bundled_dataset_path().read_text(encoding="utf-8")) == bundled_doc


def test_bundled_dataset_loads_from_a_zipped_package(tmp_path):
    pkg = Path(microloc.__file__).resolve().parent
    archive = tmp_path / "microloc.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in sorted(pkg.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                zf.write(f, f.relative_to(pkg.parent))
    code = ("import microloc; ds = microloc.load_bundled_dataset(); "
            "print(microloc.__file__.startswith(sys.argv[1]), ds.name, len(ds.kl.records))")
    proc = subprocess.run([sys.executable, "-c", "import sys; " + code, str(archive)],
                          env=dict(os.environ, PYTHONPATH=str(archive)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.stderr, proc.stdout) == ("", "True F4(a3) 54\n")


def test_bundled_validates_clean(dataset):
    assert validate_dataset(dataset) == []


def test_b_function_parsed_exact(dataset):
    from fractions import Fraction
    assert Fraction(-3, 4) in dataset.b_function
    assert Fraction(-1) in dataset.b_function
    assert len(dataset.b_function) == 12


def test_missing_key_rejected(bundled_doc, tmp_path):
    doc = copy.deepcopy(bundled_doc)
    del doc["orbits"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_dataset(str(p))


# files json cannot turn into a document: bad syntax, a byte that is not
# UTF-8, an integer literal past Python's 4,300-digit conversion limit, and
# arrays nested past the recursion limit
UNREADABLE = {
    "syntax": b"{not json",
    "not-utf8": b'{"name": "\xff"}',
    "long-int": b'{"name": ' + b"1" * 5000 + b"}",
    "deep": b"[" * 200_000 + b"]" * 200_000,
}


def test_malformed_json_rejected(tmp_path):
    limits = sys.getrecursionlimit(), getattr(sys, "get_int_max_str_digits", lambda: None)()
    for name, data in UNREADABLE.items():
        p = tmp_path / f"{name}.json"
        p.write_bytes(data)
        with pytest.raises(SchemaError):
            load_dataset(str(p))
    # the loader raises neither limit to get past them
    assert (sys.getrecursionlimit(),
            getattr(sys, "get_int_max_str_digits", lambda: None)()) == limits


def test_unreadable_files_exit_2_without_traceback(tmp_path):
    src = str(Path(microloc.__file__).parent.parent)
    for name in ("not-utf8", "long-int", "deep"):
        p = tmp_path / f"{name}.json"
        p.write_bytes(UNREADABLE[name])
        proc = subprocess.run([sys.executable, "-m", "microloc", "validate", "--dataset", str(p)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), name
        assert proc.stderr.startswith("error: cannot load dataset: "), name
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, name


def _edited(doc, path, value):
    """A deep copy of doc with the item at path set to value."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _fault_text(doc, path, value):
    """The text of the SchemaError that loading doc, edited at path, raises."""
    with pytest.raises(SchemaError) as e:
        loads_dataset(_edited(doc, path, value))
    return str(e.value)


@pytest.mark.parametrize("path, value", [
    (("orbits", 0, "group", "irreps", 0), ["x"]),
    (("covers", 0), ["S0"]),
    (("orbits", 0, "dim"), "zero"),
    (("kl", 0, "value"), True),
    (("orbits", 0), "S0"),
    (("orbits",), 5),
    (("kl",), 5),
    (("special_piece",), 3),
    (("orbits", 0, "id"), ["S0"]),
    (("catalog", 0, "id"), ["X1"]),
    (("b_function",), [True]),
    (("b_function",), ["1e3000000"]),
    (("b_function",), ["1.5"]),
    (("name",), [1]),
    (("orbits", 1, "id"), "S0"),
    (("orbits", 0, "group", "irreps", 0, 1), 0),
    (("orbits", 2, "group", "irreps", 1, 0), "(1)"),
    (("kl", 0, "provenance"), "guessed"),
    (("kl", 0, "target"), "S9"),
    (("b_function",), ["1/0"]),
], ids=["irrep-entry-short", "cover-short", "dim-string", "kl-value-bool",
        "orbit-bare-string", "orbits-int", "kl-int", "special-piece-int", "orbit-id-list",
        "catalog-id-list", "b-function-bool", "b-function-exponent", "b-function-decimal",
        "name-list", "duplicate-orbit-id", "irrep-dim-zero", "duplicate-irrep-label",
        "provenance-guessed", "kl-target-not-pair", "b-function-zero-denominator"])
def test_malformed_shape_is_a_schema_error(bundled_doc, tmp_path, capsys, path, value):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(_edited(bundled_doc, path, value)))
    with pytest.raises(SchemaError):
        load_dataset(str(p))
    assert main(["validate", "--dataset", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot load dataset: ") and err.count("\n") == 1


def test_empty_b_function_is_a_violation(bundled_doc, tmp_path, capsys):
    # it loads, and check_halfinteger_roots has nothing to decide on
    doc = copy.deepcopy(bundled_doc)
    doc["b_function"] = []
    p = tmp_path / "empty-b.json"
    p.write_text(json.dumps(doc))
    violation = "[b-function-empty] b_function lists no roots"
    assert [str(v) for v in validate_dataset(load_dataset(str(p)))] == [violation]
    for command in ("validate", "verify", "report"):
        assert main([command, "--dataset", str(p)]) == 1, command
        out, err = capsys.readouterr()
        assert violation in out + err, command
        assert "Traceback" not in err, command


@pytest.mark.parametrize("path, value, message", [
    (("kl", 0, "target", 1), "(9)", "kl target irrep '(9)' unknown on S9"),
    (("kl", 0, "target", 1), ["(1)"], "kl target irrep ['(1)'] unknown on S9"),
    (("kl", 0, "target", 1), 3, "kl target irrep 3 unknown on S9"),
    (("kl", 0, "source", 1), "(9)", "kl source: unknown irrep '(9)' on orbit S10"),
    (("catalog", 0, "param", 1), "(9)", "catalog: unknown irrep '(9)' on orbit S11"),
    (("duality", "fourier", 0, 1, 1), "(9)", "fourier: unknown irrep '(9)' on orbit S0"),
], ids=["kl-target", "kl-target-list", "kl-target-int", "kl-source", "catalog", "fourier"])
def test_unknown_irrep_messages(bundled_doc, path, value, message):
    assert _fault_text(bundled_doc, path, value) == message


# one fault per section, each with the exact text it raises; an unhashable
# value where an orbit id goes must meet a type test before any set lookup
@pytest.mark.parametrize("path, value, message", [
    (("covers", 0), [["S0"], "S1"], "cover references unknown orbit ['S0']"),
    (("covers", 0), ["S0", {"a": 1}], "cover references unknown orbit {'a': 1}"),
    (("orbits", 0, "id"), {"x": 1}, "orbit id must be a string, got {'x': 1}"),
    (("orbits", 0, "dim"), True, "orbit S0: dim must be an integer, got True"),
    (("orbits", 0, "group", "irreps", 0, 1), 0, "bad irrep entry ['(1)', 0] on orbit S0"),
    (("orbits", 0, "group", "irreps", 0, 1), True,
     "bad irrep entry ['(1)', True] on orbit S0"),
    (("catalog", 0, "unitary"), 1, "catalog unitary must be true or false, got 1"),
    (("catalog", 0, "param", 0), ["S11"],
     "catalog: local system must be [orbit, irrep], got [['S11'], '(4)']"),
    (("kl", 0, "target", 0), ["S9"], "kl target references unknown orbit ['S9']"),
    (("kl", 0, "source", 0), ["S10"],
     "kl source: local system must be [orbit, irrep], got [['S10'], '(1)']"),
    (("kl", 0, "target", 1), {}, "kl target irrep {} unknown on S9"),
    (("kl", 0, "value"), True, "kl value must be a nonnegative integer, got True"),
    (("kl", 0, "value"), -1, "kl value must be a nonnegative integer, got -1"),
    (("kl", 0, "provenance"), ["transcribed"], "unknown provenance ['transcribed']"),
    (("kl", 0, "note"), 3, "kl record note must be a string, got 3"),
], ids=["cover-list-id", "cover-dict-id", "orbit-dict-id", "dim-bool", "irrep-dim-zero",
        "irrep-dim-bool", "unitary-one", "catalog-param-list-id", "kl-target-list-id",
        "kl-source-list-id", "kl-target-irrep-dict", "kl-value-bool", "kl-value-negative",
        "kl-provenance-list", "kl-note-int"])
def test_loader_fault_texts(bundled_doc, path, value, message):
    assert _fault_text(bundled_doc, path, value) == message


def _as_tuples(x):
    """x with every list turned into a tuple, at any depth."""
    if isinstance(x, dict):
        return {k: _as_tuples(v) for k, v in x.items()}
    if isinstance(x, list):
        return tuple(_as_tuples(v) for v in x)
    return x


@pytest.mark.parametrize("doc", ["f4a3", "chain6"])
def test_tuple_valued_document_loads_equal_to_its_list_form(bundled_doc, doc):
    doc = bundled_doc if doc == "f4a3" else chain_doc(6)
    ds = loads_dataset(_as_tuples(doc))
    assert ds == loads_dataset(doc)
    assert ds.kl.repeats == [] and validate_dataset(ds) == []


# the top-level fields of a dataset document, optional ones included
TOP_LEVEL = ["schema_version", "name", "ambient_dim", "orbits", "covers", "duality", "kl",
             "catalog", "special_piece", "arthur_type", "conormal_dense_exceptions",
             "b_function", "notes", "diagonal_rule"]
# words of the bundled document, so that generated values get past the
# first shape check now and then
WORDS = ["S0", "S4", "S7", "S11", "(1)", "(1^2)", "(4)", "X1", "X20", "-1", "-3/4",
         "transcribed", "id", "dim", "group", "name", "irreps", "target", "source", "value",
         "provenance", "param", "az", "iwahori_spherical", "unitary", "label", "langlands",
         "hat", "fourier"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(TOP_LEVEL), value=JSON, data=st.data())
def test_any_top_level_field_loads_or_is_a_schema_error(
        bundled_doc, tmp_path, capsys, field, value, data):
    doc = copy.deepcopy(bundled_doc)
    old = doc.get(field)
    if isinstance(old, list) and old and data.draw(st.booleans(), label="one element"):
        # replace one element instead, to reach the checks inside the field
        old[data.draw(st.integers(0, len(old) - 1), label="index")] = value
    else:
        doc[field] = value
    try:
        loads_dataset(doc)
        loaded = True
    except SchemaError:
        loaded = False
    p = tmp_path / "generated.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--dataset", str(p)]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
    if loaded:
        assert main(["verify", "--dataset", str(p)]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err


def test_diagonal_rule_switch(bundled_doc, load_doc):
    doc = copy.deepcopy(bundled_doc)
    doc["diagonal_rule"] = False
    assert load_doc(doc).diagonal_rule is False


# -- the three documented mutations ---------------------------------------

def test_reversed_cover_flagged(mutate):
    def rev(doc):
        i = doc["covers"].index(["S10", "S11"])
        doc["covers"][i] = ["S11", "S10"]
    ds = mutate(rev)
    vs = validate_dataset(ds)
    dim = [v for v in vs if v.code == "cover-dim"]
    assert len(dim) == 1
    assert "(S11,S10)" in dim[0].detail and "12 >= 11" in dim[0].detail


def test_broken_hat_involution_flagged(mutate):
    def brk(doc):
        i = doc["duality"]["hat"].index(["S5", "S6"])
        doc["duality"]["hat"][i] = ["S6", "S6"]
    ds = mutate(brk)
    vs = validate_dataset(ds)
    assert [f"{v.code}: {v.detail}" for v in vs] == \
        ["hat-not-total: not involutive (S5 unmatched)"]


def test_swapped_az_pair_flagged(mutate):
    def swap(doc):
        by_id = {r["id"]: r for r in doc["catalog"]}
        by_id["X1"]["az"] = "X19"
    ds = mutate(swap)
    vs = validate_dataset(ds)
    bad = [v for v in vs if v.code == "az-not-involutive"]
    assert {v.subject[0] for v in bad} == {"X1", "X20"}
    assert all(v.code == "az-not-involutive" for v in vs)


# -- further validator probes ---------------------------------------------

def test_duplicate_param_flagged(mutate):
    def dup(doc):
        doc["catalog"][1]["param"] = doc["catalog"][0]["param"]
    vs = validate_dataset(mutate(dup))
    codes = {v.code for v in vs}
    assert "param-not-injective" in codes
    assert "param-not-onto" in codes  # the orphaned local system


def test_duplicate_catalog_id_flagged(mutate):
    # X8 is its own az partner, so renaming it X5 (az X5) keeps az
    # involutive and every parameter taken once: only the id repeats
    def dup(doc):
        by_id = {r["id"]: r for r in doc["catalog"]}
        by_id["X8"]["id"] = by_id["X8"]["az"] = "X5"
    vs = validate_dataset(mutate(dup))
    assert [(v.code, v.detail, v.subject) for v in vs] == \
        [("catalog-duplicate-id", "catalog id X5 repeated", ("X5",))]


def _kl_copy(target, source, at_front=False, **change):
    """A mutation adding a copy of the KL record target <- source."""
    def add(doc):
        (rec,) = [r for r in doc["kl"] if r["target"] == target and r["source"] == source]
        doc["kl"].insert(0 if at_front else len(doc["kl"]), dict(rec, **change))
    return add


def _set(field, value):
    return lambda doc: doc.__setitem__(field, value)


@pytest.mark.parametrize("fn, want", [
    # KLTable keeps the last of two records with one key: appended, the
    # value 2 made solve exit 1 (inconsistent); inserted first, exit 0
    (_kl_copy(["S9", "(1)"], ["S10", "(1)"], value=2),
     ("kl-duplicate", "kl record (S9,(1)) <- ('S10', '(1)') repeated",
      ("S9", "(1)", "S10", "(1)"))),
    (_kl_copy(["S9", "(1)"], ["S10", "(1)"], at_front=True, value=2),
     ("kl-duplicate", "kl record (S9,(1)) <- ('S10', '(1)') repeated",
      ("S9", "(1)", "S10", "(1)"))),
    (_kl_copy(["S8", None], ["S10", "(1)"]),
     ("kl-duplicate", "kl record (S8,None) <- ('S10', '(1)') repeated",
      ("S8", None, "S10", "(1)"))),
    # the repeat renamed c to p_S4_S11 and passed verify and report
    (_set("conormal_dense_exceptions", ["S4", "S4"]),
     ("exception-duplicate", "exception orbit S4 repeated", ("S4",))),
    (_set("conormal_dense_exceptions", ["S11"]),
     ("exception-top", "exception orbit S11 is the top orbit, whose conormal "
      "(the zero section) has a dense orbit", ("S11",))),
    (lambda doc: doc["arthur_type"].append({"label": "psi_0", "langlands": "S1"}),
     ("arthur-duplicate-label", "arthur_type label psi_0 repeated", ("psi_0",))),
], ids=["kl-appended", "kl-first", "kl-sum", "exception-duplicate", "exception-top",
        "arthur-duplicate-label"])
def test_repeated_entry_flagged(mutate, fn, want):
    vs = validate_dataset(mutate(fn))
    assert [(v.code, v.detail, v.subject) for v in vs] == [want]


@pytest.mark.parametrize("command", ["validate", "verify", "report", "solve"])
def test_repeated_entries_fail_every_command(bundled_doc, tmp_path, capsys, command):
    doc = copy.deepcopy(bundled_doc)
    doc["conormal_dense_exceptions"] = ["S4", "S4"]
    p = tmp_path / "ds.json"
    p.write_text(json.dumps(doc))
    assert main([command, "--dataset", str(p)]) == 1
    out = capsys.readouterr()
    assert "exception-duplicate" in out.out + out.err
    assert "p_S4_S11" not in out.out


def test_kl_record_outside_support_flagged(mutate):
    def off(doc):
        # S6 is not below S9, so an (S6,*) <- (S9,*) record has empty support
        doc["kl"].append({"target": ["S6", "(1)"], "source": ["S9", "(1)"],
                          "value": 1, "provenance": "transcribed"})
    vs = validate_dataset(mutate(off))
    assert any(v.code == "kl-support" for v in vs)


def test_kl_same_orbit_record_flagged(mutate):
    def same(doc):
        doc["kl"].append({"target": ["S9", "(1)"], "source": ["S9", "(1^2)"],
                          "value": 1, "provenance": "transcribed"})
    vs = validate_dataset(mutate(same))
    assert any(v.code == "kl-same-orbit" for v in vs)


def test_arthur_orbit_without_hat_flagged(mutate):
    def orphan(doc):
        doc["arthur_type"].append({"label": "psi_x", "langlands": "S5"})
        i = doc["duality"]["hat"].index(["S5", "S6"])
        del doc["duality"]["hat"][i]
    vs = validate_dataset(mutate(orphan))
    assert any(v.code == "arthur-no-hat" for v in vs)


def test_chain_toy_fails_order_reversal_only(chain):
    msgs = [f"{v.code}: {v.detail}" for v in validate_dataset(chain)]
    assert msgs == ["hat-not-order-reversing: order-reversal broken at (A,B)"]


# -- one case per violation code no other test names ----------------------

def _rebuilt(ds, **fields):
    """ds with some fields replaced, for inputs the loader would reject."""
    return Dataset(**dict({f: getattr(ds, f) for f in Dataset._fields}, **fields))


def _kl_add(*records):
    """A mutation appending KL records (target, source, value), transcribed."""
    def add(doc):
        doc["kl"].extend({"target": t, "source": s, "value": v, "provenance": "transcribed"}
                         for t, s, v in records)
    return add


def _hat_pair_s5_s7(doc):
    # S5 is paired with S6 already, and S7 with itself
    doc["duality"]["hat"].append(["S5", "S7"])


# each mutation of the bundled document, or rebuild of the loaded dataset,
# and every violation of the code it is named after
VIOLATIONS = {
    "az-unknown-id": (
        lambda doc: doc["catalog"][0].__setitem__("az", "X99"),
        [("az partner X99 of X1 not in catalog", ("X1",))]),
    "fourier-not-involutive": (
        # (S11,(4)) -- (S0,(1)) stands, and (S11,(4)) -- (S1,(1)) is added
        lambda doc: doc["duality"]["fourier"].append([["S11", "(4)"], ["S1", "(1)"]]),
        [("fourier(fourier(('S0', '(1)'))) = ('S1', '(1)')", ("S0", "(1)")),
         ("fourier(fourier(('S11', '(31)'))) = ('S11', '(4)')", ("S11", "(31)"))]),
    "fourier-not-total": (
        lambda doc: doc["duality"]["fourier"].pop(0),
        [("local systems without a fourier partner: [('S0', '(1)'), ('S11', '(4)')]", ())]),
    "hat-conflict": (
        _hat_pair_s5_s7,
        [("orbit S5 paired with both S6 and S7", ("S5",)),
         ("orbit S7 paired with both S7 and S5", ("S7",))]),
    "hat-not-involutive": (
        _hat_pair_s5_s7,
        [("hat(hat(S6)) = S7 != S6", ("S6",))]),
    "kl-exceeds-sum": (
        # the stored sum at S9 <- (S11,(31)) is 1
        _kl_add((["S9", "(1)"], ["S11", "(31)"], 2)),
        [("per-irrep value 2 at (S9,(1)) <- ('S11', '(31)') exceeds the stored orbit sum 1",
          ("S9", "(1)", "S11", "(31)"))]),
    "kl-sum-mismatch": (
        _kl_add((["S9", "(1)"], ["S11", "(31)"], 0), (["S9", "(1^2)"], ["S11", "(31)"], 0)),
        [("stored sum 1 at (S9 <- ('S11', '(31)')) disagrees with per-irrep total 0",
          ("S9", "S11", "(31)"))]),
    "duplicate-orbit": (
        lambda ds: _rebuilt(ds, poset=OrbitPoset(ds.poset.ids + ["S0"], ds.poset.dim,
                                                 ds.poset.covers, ds.poset.ambient_dim)),
        [("orbit id S0 repeated", ("S0",))]),
    "special-unknown": (
        lambda ds: _rebuilt(ds, special_piece=["S11", "S99"]),
        [("unknown orbit S99 in special_piece", ())]),
    "fourier-unknown": (
        lambda ds: _rebuilt(ds, duality=DualityData(
            ds.duality.hat_pairs,
            ds.duality.fourier_pairs + [(("S3", "(1)"), ("S3", "(9)"))])),
        [("fourier(('S3', '(1)')) = ('S3', '(9)') is not a local system", ("S3", "(1)"))]),
}
# the loader checks every orbit id, special-piece orbit and fourier local
# system, so these three datasets are rebuilt from the loaded one
REBUILT = {"duplicate-orbit", "special-unknown", "fourier-unknown"}


@pytest.mark.parametrize("code", VIOLATIONS)
def test_violation_code_flagged(dataset, mutate, code):
    fn, want = VIOLATIONS[code]
    ds = fn(dataset) if code in REBUILT else mutate(fn)
    assert [(v.detail, v.subject) for v in validate_dataset(ds) if v.code == code] == want


def _kl(target, source, value):
    return {"target": target, "source": source, "value": value, "provenance": "transcribed"}


# chain6 with hat fixing A1 to A4, and KL records appended out of source
# order: three outside the closure, one on its own orbit, one repeated key,
# and three orbit sums that disagree with the per-irrep values
FROZEN_ORDER_EDITS = {
    "hat": [["A0", "A5"], ["A1", "A1"], ["A4", "A4"], ["A2", "A2"], ["A3", "A3"]],
    "kl": [_kl(["A4", "(1)"], ["A2", "(1)"], 1), _kl(["A1", None], ["A4", "(1)"], 0),
           _kl(["A2", "(1)"], ["A2", "(1)"], 1), _kl(["A0", None], ["A3", "(1)"], 2),
           _kl(["A5", "(1)"], ["A0", "(1)"], 1), _kl(["A0", None], ["A4", "(1)"], 5),
           _kl(["A3", "(1)"], ["A1", "(1)"], 1), _kl(["A0", "(1)"], ["A3", "(1)"], 1)],
}
FROZEN_VIOLATIONS = [
    ("kl-duplicate", "kl record (A0,(1)) <- ('A3', '(1)') repeated", ("A0", "(1)", "A3", "(1)")),
    ("kl-support", "kl record at target A4 outside the closure of source orbit A2", ("A4", "A2")),
    ("kl-same-orbit", "kl record with target orbit equal to source orbit A2; same-orbit "
     "values are fixed by normalization and must not be stored", ("A2",)),
    ("kl-support", "kl record at target A5 outside the closure of source orbit A0", ("A5", "A0")),
    ("kl-support", "kl record at target A3 outside the closure of source orbit A1", ("A3", "A1")),
    ("kl-exceeds-sum", "per-irrep value 1 at (A1,(1)) <- ('A4', '(1)') exceeds the stored "
     "orbit sum 0", ("A1", "(1)", "A4", "(1)")),
    ("kl-sum-mismatch", "stored sum 0 at (A1 <- ('A4', '(1)')) disagrees with per-irrep "
     "total 1", ("A1", "A4", "(1)")),
    ("kl-sum-mismatch", "stored sum 2 at (A0 <- ('A3', '(1)')) disagrees with per-irrep "
     "total 1", ("A0", "A3", "(1)")),
    ("kl-sum-mismatch", "stored sum 5 at (A0 <- ('A4', '(1)')) disagrees with per-irrep "
     "total 1", ("A0", "A4", "(1)")),
    ("hat-not-order-reversing", "order-reversal broken at (A1,A2) and 5 more pairs",
     ("A1", "A2")),
]


def test_violation_order_is_frozen():
    # the orbit sums are checked in the order their keys first occur among
    # the records, which is not the order of their sources; the broken hat
    # pairs are counted in special-piece order
    doc = chain_doc(6)
    doc["duality"]["hat"] = FROZEN_ORDER_EDITS["hat"]
    doc["kl"] += FROZEN_ORDER_EDITS["kl"]
    vs = validate_dataset(loads_dataset(doc))
    assert [(v.code, v.detail, v.subject) for v in vs] == FROZEN_VIOLATIONS
