"""Univariate polynomials over the Gaussian rationals.

A :class:`Poly` has two forms, like a ``Matrix``: Gaussian-integer
coefficients, stored as ``(re, im)`` pairs of Python ints over one positive
denominator, and :class:`GaussianRational` coefficients.  Arithmetic runs on
the integer form; the rational coefficients are built on first read, unless
the polynomial was made from them.

:func:`poly_gcd` is one subresultant remainder sequence over Z[i] (Collins,
*J. ACM* 14, 1967; Brown & Traub, *J. ACM* 18, 1971): each pseudo-remainder
is divided exactly by a factor the theory predicts, so coefficients stay
minors of the Sylvester matrix, as Bareiss elimination keeps them for
matrices.  On it rest the square-free part and exact root extraction.  The
one floating-point routine of the package, an Aberth-Ehrlich root finder in
Python complex arithmetic, only proposes candidate roots, each checked
exactly before it is used; it decides no answer.  Root *counting* is always
exact.  Irrational roots are never located: they are kept as the roots of
one residual polynomial (:func:`residual_factor`), on which ranks are
computed exactly (:meth:`.matrices.Pencil.ranks_over`).
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import gcd, lcm

from .scalars import GaussianRational, ONE, gaussian_sqrt, _int_row, _scalar


# -- Gaussian-integer coefficient lists (constant first) ----------------------


def _poly_mul(p, q):
    """Product of Gaussian-integer polynomials (lists of pairs, constant first)."""
    out = [[0, 0] for _ in range(len(p) + len(q) - 1)] if p and q else []
    for i, (a, b) in enumerate(p):
        if a or b:
            for j, (c, d) in enumerate(q):
                o = out[i + j]
                o[0] += a * c - b * d
                o[1] += a * d + b * c
    return [(re, im) for re, im in out]


def _poly_sub(p, q):
    """Difference of Gaussian-integer polynomials (lists of pairs, constant first)."""
    return [(a - c, b - d) for (a, b), (c, d) in itertools.zip_longest(p, q, fillvalue=(0, 0))]


def _gpow(x, n: int):
    """The Gaussian integer x to the power n >= 0."""
    out = (1, 0)
    for _ in range(n):
        out = (out[0] * x[0] - out[1] * x[1], out[0] * x[1] + out[1] * x[0])
    return out


def _gdiv(x, y):
    """x / y for Gaussian integers, when y divides x exactly."""
    a, b = x
    c, d = y
    if not d:
        return (a // c, b // c)
    n = c * c + d * d
    return ((a * c + b * d) // n, (b * c - a * d) // n)


def _pseudo_divmod(a, b):
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r and deg r < deg b,
    on Gaussian-integer coefficient lists; requires len(a) >= len(b) >= 1."""
    lr, li = b[-1]
    nb = len(b) - 1
    lower = b[:-1]
    r = list(a)
    q = [(0, 0)] * (len(a) - nb)
    for k in range(len(a) - 1 - nb, -1, -1):
        cr, ci = r.pop()  # the coefficient of t^(k + nb)
        # q <- lc(b) q + c t^k and r <- lc(b) r - c t^k b
        q = [(lr * x - li * y, lr * y + li * x) for x, y in q]
        q[k] = (cr, ci)
        r = [(lr * x - li * y, lr * y + li * x) for x, y in r]
        for j, (x, y) in enumerate(lower):
            u, v = r[k + j]
            r[k + j] = (u - (cr * x - ci * y), v - (cr * y + ci * x))
    while r and r[-1] == (0, 0):
        r.pop()
    return q, r


def _primitive(a):
    """a divided by the integer gcd of all its parts."""
    g = gcd(*[x for pair in a for x in pair])
    return a if g == 1 else [(x // g, y // g) for x, y in a]


class Poly:
    """Polynomial over the Gaussian rationals, constant coefficient first.

    Stored as Gaussian-integer coefficients over one positive denominator,
    the least that clears every coefficient, so equal polynomials have equal
    integer forms; :attr:`coeffs` holds the same coefficients as
    :class:`GaussianRational` values, built on first read.  The zero
    polynomial has no coefficients; otherwise the leading one is nonzero.
    """

    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        ints, den = _int_row(cs)
        object.__setattr__(self, "_coeffs", tuple(cs))
        object.__setattr__(self, "_ints", (tuple(ints), den))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _from_ints(ints, den: int = 1) -> "Poly":
        """The polynomial with coefficients ``ints[k] / den`` (``den > 0``)."""
        ints = list(ints)
        while ints and ints[-1] == (0, 0):
            ints.pop()
        if den != 1:
            g = gcd(den, *[x for pair in ints for x in pair])
            if g != 1:
                ints = [(a // g, b // g) for a, b in ints]
                den //= g
        p = object.__new__(Poly)
        object.__setattr__(p, "_coeffs", None)
        object.__setattr__(p, "_ints", (tuple(ints), den))
        return p

    def _int_form(self):
        """(Gaussian-integer coefficient pairs, denominator)."""
        return self._ints

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            ints, den = self._ints
            object.__setattr__(self, "_coeffs", tuple(_scalar(a, b, den) for a, b in ints))
        return self._coeffs

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def linear(c0, c1) -> "Poly":
        """c0 + c1*t."""
        return Poly([c0, c1])

    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._ints[0]) - 1

    def leading(self) -> GaussianRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self._int_form() == other._int_form()

    def __hash__(self):
        return hash(self._int_form())

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        a, da = self._int_form()
        b, db = other._int_form()
        d = lcm(da, db)
        sa, sb = d // da, d // db
        return Poly._from_ints(
            [
                (x * sa + u * sb, y * sa + v * sb)
                for (x, y), (u, v) in itertools.zip_longest(a, b, fillvalue=(0, 0))
            ],
            d,
        )

    def __neg__(self):
        a, d = self._int_form()
        return Poly._from_ints([(-x, -y) for x, y in a], d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, da = self._int_form()
        if isinstance(other, Poly):
            b, db = other._int_form()
        else:
            b, db = _int_row([GaussianRational.coerce(other)])
        return Poly._from_ints(_poly_mul(a, b), da * db)

    __rmul__ = __mul__

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        ints, _ = self._int_form()
        return _over(ints, ints[-1], 1)

    def divmod(self, other: "Poly"):
        """Exact Euclidean division over the Gaussian rationals, by one
        pseudo-division of the integer forms."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        a, da = self._int_form()
        b, db = other._int_form()
        if len(a) < len(b):
            return Poly(), self
        q, r = _pseudo_divmod(a, b)
        # lc(b)^e a = q b + r turns self = a/da, other = b/db into
        # self = q db / (lc(b)^e da) * other + r / (lc(b)^e da)
        scale = _gpow(b[-1], len(a) - len(b) + 1)
        return _over([(x * db, y * db) for x, y in q], scale, da), _over(r, scale, da)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        a, d = self._int_form()
        return Poly._from_ints([(x * k, y * k) for k, (x, y) in enumerate(a) if k], d)

    def eval(self, x: GaussianRational) -> GaussianRational:
        """p(x), by Horner's rule on the integer forms of p and x."""
        a, den = self._int_form()
        ((xr, xi),), xd = _int_row([GaussianRational.coerce(x)])
        # sum a_k (X/xd)^k = (sum a_k X^k xd^(n-k)) / xd^n
        re = im = 0
        power = 1
        for cr, ci in reversed(a):
            re, im = re * xr - im * xi + cr * power, re * xi + im * xr + ci * power
            power *= xd
        return _scalar(re, im, den * power // xd if a else 1)

    def __str__(self):
        terms = [f"({c})*t^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(terms) or "0"

    def __repr__(self):
        return f"Poly({self})"


def _over(ints, g, den: int) -> Poly:
    """The polynomial ints / (g * den), for a Gaussian integer g != 0."""
    gr, gi = g
    if not gi:
        s = 1 if gr > 0 else -1
        return Poly._from_ints([(s * x, s * y) for x, y in ints], abs(gr) * den)
    # divide by g as conj(g) / |g|^2
    return Poly._from_ints(
        [(x * gr + y * gi, y * gr - x * gi) for x, y in ints], (gr * gr + gi * gi) * den
    )


_UNIT = Poly._from_ints([(1, 0)])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd, from one subresultant remainder sequence over Z[i].

    With g and h starting at 1, each step takes the pseudo-remainder r of
    a by b, with delta = deg a - deg b, and continues with b and
    r / (g h^delta), then g = lc(b) and h = g^delta / h^(delta - 1); every
    division is exact (the subresultant theorem), and the last nonzero
    remainder is a multiple of the gcd.  Denominators are irrelevant to a
    gcd, so only the integer numerators enter.
    """
    a, _ = p._int_form()
    b, _ = q._int_form()
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _over(a, a[-1], 1)
    a, b = _primitive(a), _primitive(b)
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        _, r = _pseudo_divmod(a, b)
        if not r:
            return _over(b, b[-1], 1)
        beta = _gpow(h, delta)
        beta = (g[0] * beta[0] - g[1] * beta[1], g[0] * beta[1] + g[1] * beta[0])
        a, b = b, [_gdiv(x, beta) for x in r]
        g = a[-1]
        if delta:
            h = _gdiv(_gpow(g, delta), _gpow(h, delta - 1))
    return _UNIT


def poly_gcd_many(ps) -> Poly:
    """Monic gcd of an iterable of polynomials, zero members ignored; the
    zero polynomial if every member is zero.  Stops reading at a unit."""
    acc = Poly()
    for p in ps:
        if p.is_zero():
            continue
        acc = p.monic() if acc.is_zero() else poly_gcd(acc, p)
        if acc.degree == 0:
            return acc  # gcd is a unit; no need to look further
    return acc


def square_free_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic; carries each distinct root exactly once."""
    if p.is_zero():
        raise ValueError("square-free part of zero polynomial")
    if p.degree == 0:
        return _UNIT
    g = poly_gcd(p, p.derivative())
    return p.monic() if g.degree == 0 else (p // g).monic()


def companion_eigenvalues(p: Poly) -> list[complex]:
    """Roots of p, the eigenvalues of its companion matrix, in floating point.

    Aberth-Ehrlich simultaneous iteration in Python complex arithmetic,
    started on a circle that encloses every root (twice Fujiwara's bound);
    it converges cubically to simple roots.  Callers verify every root they
    rely on exactly, so the floats only propose candidates.
    """
    q = p.monic()
    n = q.degree
    if n <= 0:
        return []
    ints, d = q._int_form()
    c = [complex(a / d, b / d) for a, b in ints]
    bound = 2 * max(abs(c[n - k]) ** (1 / k) for k in range(1, n + 1))
    if not bound:
        return [0j] * n  # p = t^n
    z = [bound * cmath.exp(1j * (2 * cmath.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(200):
        moved = False
        for k in range(n):
            zk = z[k]
            f = df = 0j
            for a in reversed(c):  # Horner for p and p'
                df = df * zk + f
                f = f * zk + a
            if not f:
                continue
            s = sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k and zj != zk)
            den = df - f * s
            if not den:
                continue
            w = f / den
            z[k] = zk - w
            if abs(w) > 1e-14 * abs(z[k]):
                moved = True
        if not moved:
            break
    return z


_DENOM_LADDER = (10, 100, 10**4, 10**6, 10**9, 10**12)


def _rationalize(x: float):
    for d in _DENOM_LADDER:
        f = Fraction(x).limit_denominator(d)
        yield f


def exact_roots_of(p: Poly) -> tuple[list[GaussianRational], list[complex]]:
    """Split the distinct roots of ``p`` into exact Gaussian-rational roots and
    numeric leftovers.

    Degree 1 and 2 are solved in closed form.  At higher degree each
    companion eigenvalue proposes rational approximations; the first one
    verified as an exact root is divided out, and the quotient is solved
    afresh (closed form or new eigenvalues), so a coarse approximation of
    one eigenvalue cannot take the root another eigenvalue belongs to.  The
    eigenvalues of a quotient that yields no exact root are the numeric
    leftovers.
    """
    return _split_roots(square_free_part(p))


def residual_factor(p: Poly, roots) -> Poly:
    """The square-free part of ``p`` with the linear factors of the exact
    ``roots`` divided out: given the exact roots of :func:`exact_roots_of`,
    the monic polynomial whose roots are its numeric leftovers."""
    out = square_free_part(p)
    for r in roots:
        out = out // Poly.linear(-r, ONE)
    return out


def _split_roots(sf: Poly):
    """exact_roots_of for a square-free polynomial."""
    if sf.degree <= 0:
        return [], []
    if sf.degree == 1:
        c0, c1 = sf.coeffs
        return [-c0 / c1], []
    if sf.degree == 2:
        c0, c1, c2 = sf.coeffs
        disc = c1 * c1 - GaussianRational(4) * c0 * c2
        sq = gaussian_sqrt(disc)
        if sq is not None:
            two_a = GaussianRational(2) * c2
            r1 = (-c1 + sq) / two_a
            r2 = (-c1 - sq) / two_a
            return ([r1] if r1 == r2 else [r1, r2]), []
    eigenvalues = companion_eigenvalues(sf)
    for ev in eigenvalues:
        for fr in _rationalize(ev.real):
            for fi in _rationalize(ev.imag):
                cand = GaussianRational(fr, fi)
                if sf.eval(cand).is_zero():
                    exact, numeric = _split_roots(sf // Poly.linear(-cand, ONE))
                    return [cand] + exact, numeric
    return [], eigenvalues
