"""The CLI's machine JSON writer against json.dumps(v, sort_keys=True, indent=2)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microloc.affine import AffineInt
from microloc.cli import _machine_json

# characters json escapes, or must leave alone, drawn more often than by chance
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f",
                           "\x7f", "é", " ", "\ud800", "\U0001f600"])
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


@settings(max_examples=300, deadline=None)
@given(_VALUE)
def test_writer_equals_json_dumps(value):
    assert _machine_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -1, 2 ** 100, True, False, None,
    {"b": [], "a": {}, "c": ()}, [[[]]], {"gamma": (1, ("x", None))},
    {'"quoted"': "back\\slash", "é": "\x01\n"},
], ids=repr)
def test_writer_edge_values(value):
    assert _machine_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, 2.0, Fraction(1, 2), Fraction(3), AffineInt(1), AffineInt(0, {"c": 1}),
    {1: "x"}, {"a": [Fraction(1)]}, [1, {"k": 0.0}], {None: 1}, {"a": 1, 2: 3},
    {1, 2}, b"bytes",
], ids=repr)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _machine_json(value)
