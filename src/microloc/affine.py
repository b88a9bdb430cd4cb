"""Integers (and rationals) affine in named free parameters.

The solver leaves some unknowns undetermined; every quantity downstream is
an affine combination like ``c - 2`` or ``3`` and must stay exact.  AffineInt
stores a rational constant plus a sparse map of parameter coefficients and
keeps itself in canonical form, so equality is plain structural equality.
The constructor normalizes its arguments; the arithmetic builds its results
already canonical (Fraction values, no zero coefficient) and skips that.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def _coerce(value):
    if isinstance(value, AffineInt):
        return value
    if isinstance(value, (int, Fraction)):
        return AffineInt(value)
    raise TypeError(f"cannot interpret {value!r} as an affine form")


class AffineInt:
    """An exact affine form  constant + sum(coeff_p * p).

    >>> c = AffineInt.parameter("c")
    >>> print(c - 2)
    c-2
    >>> (c - 2).substitute({"c": 2})
    Fraction(0, 1)
    >>> (2 * c).coeffs
    {'c': Fraction(2, 1)}
    """

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant=0, coeffs=None):
        self.constant = Fraction(constant)
        clean = {}
        for name, co in (coeffs or {}).items():
            co = Fraction(co)
            if co:
                clean[name] = co
        self.coeffs = clean

    @classmethod
    def parameter(cls, name, coeff=1):
        return cls(0, {name: Fraction(coeff)})

    @classmethod
    def _make(cls, constant, coeffs):
        """A form from a Fraction constant and nonzero Fraction coefficients, as is."""
        out = object.__new__(cls)
        out.constant = constant
        out.coeffs = coeffs
        return out

    # ---- arithmetic ----

    def _combine(self, other, sign):
        """self + sign * other for sign 1 or -1, zero coefficients dropped."""
        if not isinstance(other, AffineInt):
            if isinstance(other, (int, Fraction)):
                constant = self.constant + other if sign == 1 else self.constant - other
                return AffineInt._make(constant, dict(self.coeffs))
            other = _coerce(other)
        coeffs = dict(self.coeffs)
        for name, co in other.coeffs.items():
            old = coeffs.get(name)
            if old is None:
                coeffs[name] = co if sign == 1 else -co
                continue
            new = old + co if sign == 1 else old - co
            if new:
                coeffs[name] = new
            else:
                del coeffs[name]
        constant = self.constant + other.constant if sign == 1 else self.constant - other.constant
        return AffineInt._make(constant, coeffs)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return AffineInt._make(-self.constant, {n: -co for n, co in self.coeffs.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other
        else:
            other = _coerce(other)
            # products of two genuinely affine forms leave the affine world
            if self.coeffs and other.coeffs:
                raise ValueError(f"product of {self} and {other} is not affine")
            if other.coeffs:
                self, other = other, self
            k = other.constant
        if not k:
            return AffineInt._make(_ZERO, {})
        if k == 1:
            return AffineInt._make(self.constant, dict(self.coeffs))
        if k == -1:
            return -self
        return AffineInt._make(self.constant * k, {n: co * k for n, co in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * (1 / Fraction(k))

    # ---- structure ----

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.constant == other.constant and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.constant, tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.constant) or bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs

    def constant_value(self):
        if self.coeffs:
            raise ValueError(f"{self} depends on {sorted(self.coeffs)}")
        return self.constant

    def parameters(self):
        return set(self.coeffs)

    def substitute(self, assignment):
        """Replace parameters by exact values; unmentioned ones survive."""
        constant = self.constant
        coeffs = {}
        for name, co in self.coeffs.items():
            if name in assignment:
                constant += co * Fraction(assignment[name])
            else:
                coeffs[name] = co
        if coeffs:
            return AffineInt._make(constant, coeffs)
        return constant

    # ---- rendering ----

    def __str__(self):
        parts = []
        for name in sorted(self.coeffs):
            co = self.coeffs[name]
            if co == 1:
                term = name
            elif co == -1:
                term = "-" + name
            else:
                term = f"{co}{name}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        if self.constant or not parts:
            term = str(self.constant)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"AffineInt({self})"


ZERO = AffineInt(0)
