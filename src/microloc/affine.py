"""Integers (and rationals) affine in named free parameters.

The solver leaves some unknowns undetermined; every quantity downstream is
an affine combination like ``c - 2`` or ``3`` and must stay exact.  AffineInt
stores a rational constant plus a sparse map of parameter coefficients and
keeps itself in canonical form, so equality is plain structural equality.

Every exact value of the package, here and in the solver, has one canonical
representation, which exact produces: an int when the value is integral, a
Fraction otherwise.  Every value of the bundled case and of the chain family
is an integer, so the arithmetic stays on ints.  Divisions go through div,
since / on two ints would give a float.  The constructor normalizes its
arguments; the arithmetic builds its results already canonical (no zero
coefficient either) and skips that.
"""

from fractions import Fraction


def exact(x):
    """The canonical value of x: an int when integral, a Fraction otherwise.

    x is anything Fraction() accepts; an int comes back as it is.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """a / b for exact a and b, as a canonical value."""
    if b == 1:
        return a
    if b == -1:
        return -a
    return exact(Fraction(a, b))


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
    0
    >>> (2 * c).coeffs
    {'c': 2}
    >>> (c / 2).coeffs
    {'c': Fraction(1, 2)}
    """

    __slots__ = ("constant", "coeffs")

    def __init__(self, constant=0, coeffs=None):
        self.constant = exact(constant)
        clean = {}
        for name, co in (coeffs or {}).items():
            co = exact(co)
            if co:
                clean[name] = co
        self.coeffs = clean

    @classmethod
    def parameter(cls, name, coeff=1):
        return cls(0, {name: coeff})

    @classmethod
    def _make(cls, constant, coeffs):
        """A form from a canonical constant and nonzero canonical coefficients, as is."""
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
                return AffineInt._make(exact(constant), dict(self.coeffs))
            other = _coerce(other)
        coeffs = dict(self.coeffs)
        for name, co in other.coeffs.items():
            old = coeffs.get(name)
            if old is None:
                coeffs[name] = co if sign == 1 else -co
                continue
            new = old + co if sign == 1 else old - co
            if new:
                coeffs[name] = exact(new)
            else:
                del coeffs[name]
        constant = self.constant + other.constant if sign == 1 else self.constant - other.constant
        return AffineInt._make(exact(constant), coeffs)

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
            k = exact(other)
        else:
            other = _coerce(other)
            # products of two genuinely affine forms leave the affine world
            if self.coeffs and other.coeffs:
                raise ValueError(f"product of {self} and {other} is not affine")
            if other.coeffs:
                self, other = other, self
            k = other.constant
        if not k:
            return AffineInt._make(0, {})
        if k == 1:
            return AffineInt._make(self.constant, dict(self.coeffs))
        if k == -1:
            return -self
        return AffineInt._make(exact(self.constant * k),
                               {n: exact(co * k) for n, co in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * div(1, exact(k))

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
                constant += co * exact(assignment[name])
            else:
                coeffs[name] = co
        constant = exact(constant)
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
