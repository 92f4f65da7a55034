"""Gaussian-rational scalars: complex numbers with exact rational parts.

All amplitudes, operator entries and polynomial coefficients in this package
are instances of :class:`GaussianRational` at the API boundary; matrices,
polynomials and states keep them inside as Gaussian integers over a common
denominator (:func:`_int_row`, :func:`_scalar`).  Arithmetic is exact; there is no
rounding anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# the exact rational type; perfbench records its name with each run
Rational = Fraction


class GaussianRational:
    """An exact complex number ``re + im*i`` with rational ``re`` and ``im``.

    Immutable and hashable.  Supports field arithmetic with other
    GaussianRationals and with plain ints / Fractions.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _make(re, im) -> "GaussianRational":
        # internal fast constructor: both arguments must already be rationals
        x = object.__new__(GaussianRational)
        object.__setattr__(x, "re", re)
        object.__setattr__(x, "im", im)
        return x

    # -- constructors -------------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        return GaussianRational._make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        return GaussianRational._make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not self.im and not o.im:
            return GaussianRational._make(self.re * o.re, self.im)
        return GaussianRational._make(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion ---------------------------------------------------------

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


# -- Gaussian-integer form ----------------------------------------------------


def _int_row(values):
    """(pairs, d): Gaussian-rational values as Gaussian integers times 1/d,
    with d the least positive integer that clears every denominator."""
    d = lcm(*[f.denominator for x in values for f in (x.re, x.im)])
    if d == 1:
        return [(x.re.numerator, x.im.numerator) for x in values], 1
    return [
        (x.re.numerator * (d // x.re.denominator), x.im.numerator * (d // x.im.denominator))
        for x in values
    ], d


def _scalar(re, im, den=1) -> GaussianRational:
    """The Gaussian rational (re + im*i) / den."""
    if den == 1:
        return GaussianRational._make(Fraction(re), Fraction(im))
    return GaussianRational._make(Fraction(re, den), Fraction(im, den))


def format_scalar(z: GaussianRational) -> str:
    """Render as ``p/q``, ``r/si`` or ``p/q+r/si`` (lowest terms)."""
    if not z.im:
        return str(z.re)
    imag = f"{str(z.im)}i"
    if not z.re:
        return imag
    if z.im > 0:
        return f"{str(z.re)}+{imag}"
    return f"{str(z.re)}{imag}"
