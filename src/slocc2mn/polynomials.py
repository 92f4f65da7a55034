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
matrices.  The sequence runs on integer coefficient lists
(:func:`_gcd_ints`), and :func:`poly_gcd_many` folds its members' lists
through it, building one :class:`Poly` for the result.  On it rest the
square-free part and :func:`exact_roots_of`, which finds every
Gaussian-rational root by p-adic lifting, with no floating point.
Irrational roots are never located: they are kept as the roots of the one
residual polynomial :func:`exact_roots_of` hands back, on which ranks are
computed exactly (:meth:`.matrices.Pencil.ranks_over`).
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, lcm

from .scalars import GaussianRational, ONE, _int_row, _scalar


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


def _gmul(x, y):
    """The product of the Gaussian integers x and y."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gpow(x, n: int):
    """The Gaussian integer x to the power n >= 0."""
    out = (1, 0)
    for _ in range(n):
        out = _gmul(out, x)
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


def _gcd_ints(a, b):
    """A Gaussian-integer multiple of the gcd of the nonzero coefficient
    lists a and b (constant first), from one subresultant remainder sequence
    over Z[i]; ``[(1, 0)]`` when the gcd is a unit.

    With g and h starting at 1, each step takes the pseudo-remainder r of
    a by b, with delta = deg a - deg b, and continues with b and
    r / (g h^delta), then g = lc(b) and h = g^delta / h^(delta - 1); every
    division is exact (the subresultant theorem), and the last nonzero
    remainder is a multiple of the gcd.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        _, r = _pseudo_divmod(a, b)
        if not r:
            return b
        beta = _gmul(g, _gpow(h, delta))
        a, b = b, [_gdiv(x, beta) for x in r]
        g = a[-1]
        if delta:
            h = _gdiv(_gpow(g, delta), _gpow(h, delta - 1))
    return [(1, 0)]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd, by :func:`_gcd_ints` on the integer numerators:
    denominators are irrelevant to a gcd."""
    a, _ = p._int_form()
    b, _ = q._int_form()
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    c = _gcd_ints(a, b) if a and b else a or b
    return _over(c, c[-1], 1)


def poly_gcd_many(ps) -> Poly:
    """Monic gcd of an iterable of polynomials, zero members ignored; the
    zero polynomial if every member is zero.

    The members' integer numerators are folded through :func:`_gcd_ints`,
    and one monic :class:`Poly` is built at the end; reading stops at the
    first member that brings the gcd down to a unit.
    """
    acc = None
    for p in ps:
        a = p._int_form()[0]
        if a:
            acc = a if acc is None else _gcd_ints(acc, a)
            if len(acc) == 1:
                return _UNIT  # gcd is a unit; no need to look further
    return Poly() if acc is None else _over(acc, acc[-1], 1)


def square_free_part(p: Poly) -> Poly:
    """p / gcd(p, p'), monic; carries each distinct root exactly once."""
    if p.is_zero():
        raise ValueError("square-free part of zero polynomial")
    if p.degree == 0:
        return _UNIT
    g = poly_gcd(p, p.derivative())
    return p.monic() if g.degree == 0 else (p // g).monic()


def _imaginary_unit_mod(p: int) -> int:
    """A square root of -1 modulo the prime p (requires p = 1 mod 4)."""
    a = 2
    while True:
        x = pow(a, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x
        a += 1


def _primes_1_mod_4():
    """The primes p = 1 (mod 4), in increasing order."""
    p = 5
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def _ground(x, y):
    """The Gaussian integer nearest x / y, for Gaussian integers x and y != 0."""
    n = y[0] * y[0] + y[1] * y[1]
    re, im = _gmul(x, (y[0], -y[1]))
    return ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))


def _horner_mod(coeffs, x: int, m: int) -> int:
    """The integer polynomial ``coeffs`` (constant first) at x, modulo m."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % m
    return v


def exact_roots_of(p: Poly) -> tuple[list[GaussianRational], list[Poly]]:
    """``(roots, rest)``: the distinct Gaussian-rational roots of ``p``, sorted
    by real and then imaginary part, and ``[sf / prod(t - r)]``, the monic
    square-free part sf of ``p`` with their linear factors divided out, when
    that quotient has positive degree (``[]`` otherwise).  The roots of
    ``rest`` are the irrational roots of ``p``.

    Roots are found p-adically (Loos, *SIAM J. Comput.* 12, 1983), over Z[i].
    With f the primitive integer form of sf, of degree n and positive integer
    leading coefficient l, F(y) = l^(n-1) f(y/l) is monic, so every root x
    of f in Q(i) gives a root y = l*x of F in Z[i].  Send i to a square root
    s of -1 modulo the first prime p = 1 (mod 4) at which every root of F is
    simple; find the roots there by evaluation, and Newton-lift s and each
    root to p^k for k = 2, 4, 8, ...  The kernel of Z[i] -> Z/p^k, i -> s,
    is the ideal (pi^k), pi = gcd(p, i - s), a square lattice of norm p^k,
    so one Gaussian rounding gives the only candidate y with
    |y| < p^(k/2)/2, and an exact check keeps it.  Every root of F lies
    within Cauchy's bound B, so the lifting stops once p^k > 4 B^2, or
    earlier when every lifted root has been found.
    """
    sf = square_free_part(p)
    n = sf.degree
    if n <= 0:
        return [], []
    f = _primitive(sf._int_form()[0])
    lc = f[-1][0]  # a positive integer, as sf is monic
    big_f = [(a * lc ** (n - 1 - k), b * lc ** (n - 1 - k)) for k, (a, b) in enumerate(f[:-1])]
    big_f.append((1, 0))
    bound = 1 + max(abs(a) + abs(b) for a, b in big_f[:-1])  # Cauchy's, as |a + bi| <= |a| + |b|
    for prime in _primes_1_mod_4():
        s = _imaginary_unit_mod(prime)
        fm = [(a + b * s) % prime for a, b in big_f]
        dm = [k * c for k, c in enumerate(fm) if k]
        lifts = [c for c in range(prime) if not _horner_mod(fm, c, prime)]
        slopes = [_horner_mod(dm, c, prime) for c in lifts]
        if all(slopes):
            break
    # each root c is lifted with u = 1/F'(c), and s with w = 1/(2s): Newton
    # steps for the inverses too, so every step only multiplies
    lifts = [(c, pow(d, -1, prime)) for c, d in zip(lifts, slopes)]
    w = pow(2 * s, -1, prime)
    pi, b = (prime, 0), (-s, 1)  # pi = gcd(p, i - s), by Euclid in Z[i]
    while b != (0, 0):
        q = _gmul(_ground(pi, b), b)
        pi, b = b, (pi[0] - q[0], pi[1] - q[1])
    monic = Poly._from_ints(big_f)
    roots = []
    m, pik = prime, pi
    while True:
        pending = []
        for c, u in lifts:
            q = _gmul(_ground((c, 0), pik), pik)
            y = (c - q[0], -q[1])
            if monic.eval(_scalar(*y)).is_zero():
                roots.append(_scalar(*y, lc))
            else:
                pending.append((c, u))
        if not pending or m > 4 * bound * bound:
            break
        m, pik = m * m, _gmul(pik, pik)
        s = (s - (s * s + 1) * w) % m
        w = w * (2 - 2 * s * w) % m
        fm = [(a + b * s) % m for a, b in big_f]
        dm = [k * c for k, c in enumerate(fm) if k]
        lifts = []
        for c, u in pending:
            c = (c - _horner_mod(fm, c, m) * u) % m
            lifts.append((c, u * (2 - _horner_mod(dm, c, m) * u) % m))
    roots.sort(key=lambda r: (r.re, r.im))
    if len(roots) == n:
        return roots, []
    div = _UNIT
    for r in roots:
        div = div * Poly.linear(-r, ONE)
    return roots, [sf // div]
