"""The CLI's machine JSON writer against json.dumps(v, sort_keys=True, indent=2)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microloc import cli
from microloc.affine import AffineInt
from microloc.cli import _machine_json
from chains import chain_doc

# characters json escapes, or must leave alone, drawn more often than by chance
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f",
                           "\x7f", "é", "\u2028", "\ud800", "\U0001f600"])
_TEXT = st.text(alphabet=st.characters() | _TRICKY, max_size=12)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(),
    st.integers(-2 ** 200, 2 ** 200), _TEXT)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)

# records: dicts drawn over a small key pool, so that a list holds runs of
# one key set (a shape) in varying insertion order, as the documents do
_POOL = ("col", "row", "value", 'é "k"\n')
_FIELD = st.one_of(
    _SCALAR, st.lists(_TEXT, min_size=2, max_size=2),
    st.lists(_SCALAR, max_size=3), st.just({}), st.just([]), st.just(()),
    st.dictionaries(st.sampled_from(_POOL), _SCALAR, max_size=2))


@st.composite
def _records(draw):
    shapes = draw(st.lists(st.lists(st.sampled_from(_POOL), max_size=4, unique=True),
                           min_size=1, max_size=3))
    items = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)):
            keys = draw(st.permutations(draw(st.sampled_from(shapes))))
            items.append({k: draw(_FIELD) for k in keys})
        else:
            items.append(draw(_VALUE))
    return items


_RECORD_LISTS = st.one_of(
    _records(), _records().map(tuple), _records().map(lambda r: {"records": r, "n": len(r)}),
    st.lists(_records(), max_size=3))


@settings(max_examples=300, deadline=None)
@given(_VALUE)
def test_writer_equals_json_dumps(value):
    assert _machine_json(value) == json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None)
@given(_RECORD_LISTS)
def test_writer_equals_json_dumps_on_record_lists(value):
    assert _machine_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -1, 2 ** 100, True, False, None,
    {"b": [], "a": {}, "c": ()}, [[[]]], {"gamma": (1, ("x", None))},
    {'"quoted"': "back\\slash", "é": "\x01\n"},
    # shape changes to as many keys and to fewer, then a return to the first
    [{"row": "a", "col": "b"}, {"col": "d", "row": "c"}, {"col": 0, "value": 1},
     {"value": 2}, {"row": "e", "col": "f"}],
    # records holding empty containers and literals
    [{"a": {}, "b": []}, {"b": True, "a": None}, {}, {"a": (), "b": False}],
    # records between non-dict items, and nested record lists
    [{"a": 1}, 2, {"a": "x"}, ["p", "q"], {"a": [{"a": 1}, {"a": 2}]}],
], ids=repr)
def test_writer_edge_values(value):
    assert _machine_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, 2.0, Fraction(1, 2), Fraction(3), AffineInt(1), AffineInt(0, {"c": 1}),
    {1: "x"}, {"a": [Fraction(1)]}, [1, {"k": 0.0}], {None: 1}, {"a": 1, 2: 3},
    {1, 2}, b"bytes",
    # a later record of a new shape with a non-str key, or of the same
    # shape with a value of another type
    [{"a": 1}, {"a": 2}, {"a": 3, 4: 5}], [{"a": 1}, {"a": 1.5}],
    [{"a": "x", "b": "y"}, {"b": "y", "a": Fraction(1, 2)}], [{"a": ["x", b"y"]}],
], ids=repr)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _machine_json(value)


# ------------------------------------------------- the documents themselves

def _no_diagonal_chain(n):
    doc = chain_doc(n)
    doc["diagonal_rule"] = False
    return doc


# input name -> dataset document; None is the bundled case
INPUTS = {"f4": None, "chain6": chain_doc(6), "chain12": chain_doc(12),
          "chain30": chain_doc(30), "chain12-no-diagonal": _no_diagonal_chain(12)}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    d = tmp_path_factory.mktemp("machine-json-inputs")
    out = {}
    for name, doc in INPUTS.items():
        if doc is None:
            out[name] = None
        else:
            out[name] = str(d / f"{name}.json")
            (d / f"{name}.json").write_text(json.dumps(doc))
    return out


def _document(argv):
    cfg = cli._parser().parse_args(argv)
    command, _ = cli.COMMANDS[cfg.command]
    return command(cli._load(cfg), cfg)[1]


# (input, argv): every command on every input, and a specialized report
DOCUMENT_CASES = [(src, [c]) for src in INPUTS for c in cli.COMMANDS]
DOCUMENT_CASES.append(("f4", ["report", "--set", "c=2"]))


@pytest.mark.parametrize("source, argv", DOCUMENT_CASES,
                         ids=[f"{src}-{'-'.join(argv)}" for src, argv in DOCUMENT_CASES])
def test_documents_equal_json_dumps(source, argv, datasets):
    path = datasets[source]
    doc = _document(argv + ["--dataset", path] if path else argv)
    assert _machine_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("source", ["f4", "chain12", "chain30"])
def test_cmatrix_records_in_sorted_order(source, datasets):
    path = datasets[source]
    cfg = cli._parser().parse_args(["solve"] + (["--dataset", path] if path else []))
    sr = cli._solution(cli._load(cfg), cfg)
    records = cli._solve_doc(sr)["cmatrix"]
    keys = [(r["row"], r["col"]) for r in records]
    assert keys == sorted(sr.cmatrix.entries)
    assert [r["value"] for r in records] == [cli._jvalue(sr.cmatrix.entries[k]) for k in keys]
    if source == "chain12":
        # string order puts A10 and A11 before A2, unlike the orbit order
        rows = list(dict.fromkeys(a for a, _ in keys))
        assert rows[:4] == ["A0", "A1", "A10", "A11"]
