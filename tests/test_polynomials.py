"""Univariate polynomials over the Gaussian rationals, with a Fraction oracle,
and the pencil minor gcd the range criterion counts with."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from slocc2mn import polynomials
from slocc2mn.scalars import GaussianRational, ZERO, ONE
from slocc2mn.polynomials import (
    Poly,
    poly_gcd,
    poly_gcd_many,
    square_free_part,
    exact_roots_of,
)
from slocc2mn.matrices import Matrix, Pencil
from slocc2mn.ranges import MatrixSubspace, _count_pencil_span


def random_poly(rng, max_deg=4):
    deg = rng.randint(0, max_deg)
    coeffs = [GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(deg)]
    coeffs.append(GaussianRational(rng.randint(1, 5)))  # nonzero leading term
    return Poly(coeffs)


def linear_root(r) -> Poly:
    """x - r as a Poly."""
    return Poly([-GaussianRational.coerce(r), ONE])


def test_degree_and_zero():
    assert Poly().is_zero() and Poly().degree == -1
    assert Poly.constant(GaussianRational(5)).degree == 0
    assert Poly.linear(ZERO, ONE).degree == 1
    assert Poly([ONE, ZERO]).degree == 0  # trailing zeros stripped


def test_arithmetic_matches_eval_oracle():
    rng = random.Random(10)
    points = [GaussianRational(t) for t in (-3, -1, 0, 1, 2, 5, 7)]
    for _ in range(80):
        p, q = random_poly(rng), random_poly(rng)
        for x in points:
            assert (p + q).eval(x) == p.eval(x) + q.eval(x)
            assert (p - q).eval(x) == p.eval(x) - q.eval(x)
            assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_divmod_identity():
    rng = random.Random(11)
    for _ in range(60):
        p, q = random_poly(rng, 6), random_poly(rng, 3)
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


def test_derivative_product_rule():
    rng = random.Random(12)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_monic():
    p = Poly([GaussianRational(2), GaussianRational(4)])
    assert p.monic() == Poly([GaussianRational(1) / GaussianRational(2), ONE])
    assert p.monic().coeffs[-1] == ONE


def test_gcd_of_constructed_common_factor():
    rng = random.Random(13)
    for _ in range(40):
        g = linear_root(rng.randint(-4, 4)) * linear_root(rng.randint(-4, 4))
        a, b = random_poly(rng, 2), random_poly(rng, 2)
        d = poly_gcd(g * a, g * b)
        # the true gcd contains g, so g divides the computed gcd's multiple
        assert (g * a) % d == Poly()
        assert (g * b) % d == Poly()
        assert d % poly_gcd(g, d) == Poly()
        assert d.degree >= poly_gcd(g, a * b).degree


_coeffs = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
)
_polys = st.lists(_coeffs, max_size=5).map(Poly)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_gcd_of_common_multiples(f, g, h):
    assume(not f.is_zero() and not (g.is_zero() and h.is_zero()))
    a, b = f * g, f * h
    d = poly_gcd(a, b)
    assert d.coeffs[-1] == ONE
    assert a % d == Poly() and b % d == Poly()
    assert d % f == Poly()


def test_gcd_many():
    g = linear_root(3)
    ps = [g * linear_root(k) for k in (0, 1, 2)]
    d = poly_gcd_many(ps)
    assert d == g.monic()


def _fold_gcd(ps):
    """The monic left fold of poly_gcd over the nonzero members."""
    acc = Poly()
    for p in ps:
        if not p.is_zero():
            acc = p.monic() if acc.is_zero() else poly_gcd(acc, p)
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(_polys, max_size=5), _polys)
def test_gcd_many_matches_folded_poly_gcd(ps, f):
    # with and without a common factor planted in every member
    assert poly_gcd_many(ps) == _fold_gcd(ps)
    planted = [f * p for p in ps]
    assert poly_gcd_many(planted) == _fold_gcd(planted)
    assert poly_gcd_many(iter(planted)) == _fold_gcd(planted)


def test_gcd_many_edge_cases():
    assert poly_gcd_many([]) == Poly()
    assert poly_gcd_many([Poly(), Poly()]) == Poly()
    assert poly_gcd_many([Poly(), linear_root(2) * 3]) == linear_root(2)

    def coprime_then_raise():
        yield Poly()
        yield linear_root(0)
        yield linear_root(1)  # t and t - 1 are coprime: the gcd is a unit
        raise AssertionError("read past the first unit")

    assert poly_gcd_many(coprime_then_raise()) == Poly([ONE])


def test_square_free_part_counts_distinct_roots():
    p = linear_root(1) * linear_root(1) * linear_root(2)
    sf = square_free_part(p)
    assert sf.degree == 2
    assert sf.eval(ONE).is_zero() and sf.eval(GaussianRational(2)).is_zero()


def test_exact_roots_closed_forms():
    # (x - 2)(x + 1/2): rational roots
    p = linear_root(2) * linear_root(GaussianRational(-1, 0) / 2)
    roots, rest = exact_roots_of(p)
    assert not rest
    assert {complex(r) for r in roots} == {2 + 0j, -0.5 + 0j}
    # x^2 + 1: Gaussian-rational roots +-i
    q = Poly([ONE, ZERO, ONE])
    roots, rest = exact_roots_of(q)
    assert not rest
    assert {complex(r) for r in roots} == {1j, -1j}
    # x^2 - 2: irrational, so the whole polynomial is the rest
    r = Poly([GaussianRational(-2), ZERO, ONE])
    assert exact_roots_of(r) == ([], [r])
    assert exact_roots_of(r * GaussianRational(3)) == ([], [r])


def test_exact_roots_mixed_multiplicity():
    p = linear_root(0) * linear_root(0) * linear_root(5)
    assert square_free_part(p).degree == 2
    roots, rest = exact_roots_of(p)
    assert not rest
    assert {complex(r) for r in roots} == {0j, 5 + 0j}


def test_common_roots_of_family():
    shared = linear_root(7)
    ps = [shared * linear_root(1), shared * linear_root(2)]
    g = poly_gcd_many(ps)
    assert square_free_part(g).degree == 1
    roots, rest = exact_roots_of(g)
    assert not rest
    assert [complex(r) for r in roots] == [7 + 0j]


def test_exact_roots_keep_every_rational_root():
    t = Poly.linear(ZERO, ONE)
    two = Poly.constant(GaussianRational(2))
    surds = (t * t - two, t * t * t - two)

    def check(planted, lead=ONE, cofactor=Poly([ONE])):
        # roots: the planted set in canonical order; rest: the square-free
        # part with their linear factors divided out
        p = cofactor * lead
        for r in planted:
            p = p * linear_root(r)
        roots, rest = exact_roots_of(p)
        assert roots == sorted(set(planted), key=lambda z: (z.re, z.im))
        assert len(rest) == (cofactor.degree > 0)
        q = rest[0] if rest else Poly([ONE])
        for r in roots:
            q = q * linear_root(r)
        assert q == square_free_part(p)

    # products of 3-5 distinct linear factors with small rational roots: one
    # root must not take another's (t (t + 3/64)(t + 3/25)(t + 3/14)(t - 3/37),
    # draw 24, was once lost -3/64 by a float root proposer)
    rng = random.Random(1)
    for _ in range(2000):
        roots = []
        while len(roots) < rng.randint(3, 5):
            r = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 64)))
            if r not in roots:
                roots.append(r)
        check(roots)
    # non-real roots with parts up to 2^200, a zero root, a non-real leading
    # coefficient and the irrational cofactors t^2 - 2 and t^3 - 2
    for bits in (10, 30, 60, 200):
        for k in range(6):
            def part():
                return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

            roots = [GaussianRational(part(), part()) for _ in range(rng.randint(1, 4))]
            if k % 2:
                roots.append(ZERO)
            lead = GaussianRational(rng.randint(1, 9), rng.randint(-9, 9))
            check(roots, lead, ([Poly([ONE])] + list(surds))[k % 3])


# -- poly_gcd against a Fraction oracle ----------------------------------------


def _fmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _finv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _fstrip(a):
    while a and a[-1] == (0, 0):
        a.pop()
    return a


def _fmonic(a):
    inv = _finv(a[-1])
    return [_fmul(c, inv) for c in a]


def _fmod(a, b):
    r = list(a)
    inv = _finv(b[-1])
    while len(r) >= len(b):
        c = _fmul(r[-1], inv)
        shift = len(r) - len(b)
        for j, y in enumerate(b):
            u = _fmul(c, y)
            r[shift + j] = (r[shift + j][0] - u[0], r[shift + j][1] - u[1])
        r.pop()  # the leading term cancels exactly
        _fstrip(r)
    return r


def fraction_gcd(polys):
    """Monic gcd of Polys by the Euclidean algorithm on (Fraction, Fraction)
    coefficient pairs; [] when every member is zero."""
    acc = []
    for p in polys:
        b = [(Fraction(c.re), Fraction(c.im)) for c in p.coeffs]
        a = acc
        while b:
            a, b = b, _fmod(a, b)
        acc = _fmonic(a) if a else []
    return acc


def _pairs(p):
    return [(Fraction(c.re), Fraction(c.im)) for c in p.coeffs]


_BIG = 10**30
_big_coeffs = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 10**24)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 10**24)),
)
_small_coeffs = st.builds(GaussianRational, st.integers(-9, 9), st.integers(-9, 9))
_planted = st.sampled_from([
    Poly([GaussianRational(-3), GaussianRational(1, 1)]),  # (1+i)t - 3
    Poly([GaussianRational(0, 2), ONE]),  # t + 2i
    Poly([GaussianRational(5, -1), GaussianRational(0, 3), GaussianRational(2)]),
    Poly([ONE]),
])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_big_coeffs, _small_coeffs), max_size=7).map(Poly),
    st.lists(st.one_of(_big_coeffs, _small_coeffs), max_size=7).map(Poly),
    _planted,
    st.booleans(),
)
def test_gcd_matches_fraction_euclid(g, h, f, plant):
    # degrees up to 8 with a planted Gaussian common factor, zero and
    # constant operands; every remainder the subresultant sequence divides
    # stays within Hadamard's bound on the Sylvester minors, which a sequence
    # of undivided pseudo-remainders would outgrow
    a, b = (f * g, f * h) if plant else (g, h)
    assume(not (a.is_zero() and b.is_zero()))
    seen = []
    original = polynomials._pseudo_divmod

    def recording(x, y):
        seen.extend(c for pair in [*x, *y] for c in pair)
        return original(x, y)

    polynomials._pseudo_divmod = recording
    try:
        d = poly_gcd(a, b)
    finally:
        polynomials._pseudo_divmod = original
    assert _pairs(d) == fraction_gcd([a, b])
    assert d == poly_gcd(b, a)
    if seen:
        (ia, _), (ib, _) = a._int_form(), b._int_form()
        norm_bits = [sum(x * x + y * y for x, y in ints).bit_length() / 2 for ints in (ia, ib)]
        bound = (len(ib) - 1) * norm_bits[0] + (len(ia) - 1) * norm_bits[1] + 1
        assert max(abs(c).bit_length() for c in seen) <= bound


def _fdistinct_roots(g):
    """Number of distinct roots of a monic Fraction-pair polynomial."""
    deriv = [(k * x, k * y) for k, (x, y) in enumerate(g) if k]
    common = fraction_gcd([Poly([GaussianRational(x, y) for x, y in c]) for c in (g, deriv)])
    return len(g) - len(common)


def _gmat(rng, rows, cols, span=3):
    return Matrix([
        [GaussianRational(rng.randint(-span, span), rng.randint(-1, 1)) for _ in range(cols)]
        for _ in range(rows)
    ])


def test_pencil_span_count_matches_full_minor_gcd():
    # _count_pencil_span reads the 2x2 minors only up to the first unit gcd;
    # its count must equal the distinct roots of the gcd of every minor
    rng = random.Random(31)
    cases = 0
    while cases < 80:
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        kind = rng.choice(["random", "planted", "planted", "rank one"])
        if kind == "random":
            m0, m1 = _gmat(rng, rows, cols), _gmat(rng, rows, cols)
        elif kind == "planted":
            # P diag(d0 + t d1) Q: the minors share the factors of the diagonal
            p, q = _gmat(rng, rows, rows), _gmat(rng, cols, cols)
            k = rng.randint(2, min(rows, cols))
            d0 = [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(k)]
            d1 = [GaussianRational(rng.choice([0, 1, 1, 2])) for _ in range(k)]
            m0, m1 = (
                p @ Matrix([[d[i] if i == j < k else ZERO for j in range(cols)] for i in range(rows)]) @ q
                for d in (d0, d1)
            )
        else:
            u = [GaussianRational(rng.randint(-3, 3)) for _ in range(rows)]
            m0, m1 = (
                Matrix([[a * b for b in v] for a in u])
                for v in [[GaussianRational(rng.randint(-3, 3), 1) for _ in range(cols)]
                          for _ in range(2)]
            )
        try:
            sub = MatrixSubspace(rows=rows, cols=cols, basis=(m0, m1))
        except ValueError:
            continue  # dependent draw
        cases += 1
        pc = _count_pencil_span(sub)
        minors = list(Pencil(m0, m1).minor_polynomials(2))
        g = fraction_gcd(minors)
        if not g:
            assert pc.is_infinite
            continue
        at_infinity = 1 if m1.rank() <= 1 else 0
        assert pc.kind == "finite"
        assert pc.count == _fdistinct_roots(g) + at_infinity
        for w in pc.witnesses:
            if w.coeffs[0] == ONE:
                t = w.coeffs[1]
                assert all(p.eval(t).is_zero() for p in minors)
            alpha, beta = w.coeffs
            assert Matrix([
                [alpha * x + beta * y for x, y in zip(r0, r1)] for r0, r1 in zip(m0.entries, m1.entries)
            ]) == Matrix([[a * b for b in w.v] for a in w.u])
