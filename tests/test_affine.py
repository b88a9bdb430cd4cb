"""Exact affine expressions in the free parameters."""

import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from microloc import affine
from microloc.affine import AffineInt, ZERO

parameter = AffineInt.parameter


def test_constant_arithmetic():
    three = AffineInt(3)
    assert three.is_constant()
    assert three.constant_value() == 3
    assert (three + 4).constant_value() == 7
    assert (2 * three - 10).constant_value() == -4
    assert (three / 3).constant_value() == 1


def test_parameter_arithmetic():
    c = parameter("c")
    e = 2 * c - 3
    assert not e.is_constant()
    assert e.parameters() == {"c"}
    assert e.substitute({"c": 5}) == Fraction(7)
    assert (e - e) == ZERO
    assert (-e).substitute({"c": 1}) == Fraction(1)


def test_two_parameters_combine():
    c, p = parameter("c"), parameter("p_1")
    e = c + p - 1
    assert e.parameters() == {"c", "p_1"}
    partial = e.substitute({"c": 2})
    assert isinstance(partial, AffineInt)
    assert partial.parameters() == {"p_1"}
    assert partial.substitute({"p_1": 0}) == Fraction(1)


def test_product_of_parameters_rejected():
    c = parameter("c")
    with pytest.raises(ValueError):
        c * c
    # scalar multiples stay fine either side
    assert (3 * c) == (c * 3)


def test_zero_coefficients_canonicalized():
    c = parameter("c")
    e = c - c + 5
    assert e.is_constant()
    assert e == AffineInt(5)
    assert hash(e) == hash(AffineInt(5))


def test_str_forms():
    c = parameter("c")
    assert str(c - 2) == "c-2"
    assert str(-3 * c) == "-3c"
    assert str(AffineInt(3)) == "3"
    assert str(ZERO) == "0"


def test_truthiness():
    assert not ZERO
    assert AffineInt(2)
    assert parameter("c")


def test_module_doctests_hold():
    failed, tried = doctest.testmod(affine)
    assert tried and not failed


# -- canonical form under every operation -----------------------------------

NAMES = ["c", "p", "q"]
SCALARS = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3]))
FORMS = st.builds(AffineInt, SCALARS, st.dictionaries(st.sampled_from(NAMES), SCALARS))
POINT = {"c": Fraction(7, 5), "p": Fraction(-2), "q": Fraction(3, 11)}


def _value(x):
    """x at POINT as a Fraction, computed apart from AffineInt's own methods."""
    if isinstance(x, AffineInt):
        return Fraction(x.constant) + sum(co * POINT[n] for n, co in x.coeffs.items())
    return Fraction(x)


def _canonical(x):
    """One representation per value: an int, or a Fraction that is not integral."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def _check_canonical(r):
    assert _canonical(r.constant)
    assert all(_canonical(co) and co for co in r.coeffs.values())
    rebuilt = AffineInt(r.constant, r.coeffs)
    assert r == rebuilt and hash(r) == hash(rebuilt)


@settings(max_examples=300, deadline=None)
@given(a=FORMS, b=FORMS | SCALARS, k=SCALARS,
       assignment=st.dictionaries(st.sampled_from(NAMES), st.integers(-3, 3)))
def test_operations_keep_canonical_form(a, b, k, assignment):
    results = [(a + b, _value(a) + _value(b)), (b + a, _value(a) + _value(b)),
               (a - b, _value(a) - _value(b)), (b - a, _value(b) - _value(a)),
               (-a, -_value(a)), (a * k, _value(a) * k), (k * a, _value(a) * k)]
    if k:
        results.append((a / k, _value(a) / k))
    for r, expected in results:
        _check_canonical(r)
        assert _value(r) == expected
    out = a.substitute(assignment)
    if isinstance(out, AffineInt):
        _check_canonical(out)
        assert out.parameters() == a.parameters() - set(assignment)
    else:
        assert _canonical(out)
    point = {**POINT, **assignment}
    assert _value(out) == a.constant + sum(co * point[n] for n, co in a.coeffs.items())
