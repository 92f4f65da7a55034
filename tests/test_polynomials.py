"""Univariate polynomials over the Gaussian rationals, with numpy oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slocc2mn.scalars import GaussianRational, ZERO, ONE
from slocc2mn.polynomials import (
    Poly,
    poly_gcd,
    poly_gcd_many,
    square_free_part,
    companion_eigenvalues,
    exact_roots_of,
    distinct_roots,
    common_root_summary,
)


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
    assert p.monic().leading() == ONE


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
    assert d.leading() == ONE
    assert a % d == Poly() and b % d == Poly()
    assert d % f == Poly()


def test_gcd_many():
    g = linear_root(3)
    ps = [g * linear_root(k) for k in (0, 1, 2)]
    d = poly_gcd_many(ps)
    assert d == g.monic()


def test_square_free_part_counts_distinct_roots():
    p = linear_root(1) * linear_root(1) * linear_root(2)
    sf = square_free_part(p)
    assert sf.degree == 2
    assert sf.eval(ONE).is_zero() and sf.eval(GaussianRational(2)).is_zero()


def test_exact_roots_closed_forms():
    # (x - 2)(x + 1/2): rational roots
    p = linear_root(2) * linear_root(GaussianRational(-1, 0) / 2)
    roots, numeric = exact_roots_of(p)
    assert not numeric
    assert {complex(r) for r in roots} == {2 + 0j, -0.5 + 0j}
    # x^2 + 1: Gaussian-rational roots +-i
    q = Poly([ONE, ZERO, ONE])
    roots, numeric = exact_roots_of(q)
    assert not numeric
    assert {complex(r) for r in roots} == {1j, -1j}
    # x^2 - 2: irrational, must fall back to numeric roots
    r = Poly([GaussianRational(-2), ZERO, ONE])
    roots, numeric = exact_roots_of(r)
    assert not roots
    assert sorted(round(z.real, 6) for z in numeric) == pytest.approx(
        [-1.414214, 1.414214]
    )


def test_companion_eigenvalues_match_numpy_roots():
    rng = random.Random(14)
    for _ in range(20):
        p = random_poly(rng, 5)
        if p.degree < 1:
            continue
        eig = sorted(companion_eigenvalues(p), key=lambda z: (z.real, z.imag))
        np_coeffs = [complex(c) for c in reversed(p.coeffs)]
        ref = sorted(np.roots(np_coeffs), key=lambda z: (z.real, z.imag))
        for a, b in zip(eig, ref):
            assert abs(a - b) < 1e-6


def test_distinct_roots_mixed_multiplicity():
    p = linear_root(0) * linear_root(0) * linear_root(5)
    summary = distinct_roots(p, want_numeric=True)
    assert summary.all_roots_exact
    assert summary.distinct_root_count == 2
    assert {complex(r) for r in summary.exact_roots} == {0j, 5 + 0j}


def test_common_root_summary():
    shared = linear_root(7)
    ps = [shared * linear_root(1), shared * linear_root(2)]
    summary = common_root_summary(ps, want_numeric=True)
    assert summary.distinct_root_count == 1
    assert [complex(r) for r in summary.exact_roots] == [7 + 0j]
