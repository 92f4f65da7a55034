"""Exact scalar arithmetic, checked against Python's complex numbers."""

import random
from fractions import Fraction

import pytest

from slocc2mn.scalars import GaussianRational, ZERO, ONE

I = GaussianRational(0, 1)


def random_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_arithmetic_matches_complex_oracle():
    rng = random.Random(1)
    for _ in range(200):
        a, b = random_gr(rng), random_gr(rng)
        assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-9
        assert abs(complex(a - b) - (complex(a) - complex(b))) < 1e-9
        prod = a * b
        assert abs(complex(prod) - complex(a) * complex(b)) < 1e-9
        if not b.is_zero():
            q = a / b
            assert abs(complex(q) - complex(a) / complex(b)) < 1e-9
            assert q * b == a  # exact round trip, no rounding


def test_field_axioms_exact():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = random_gr(rng), random_gr(rng), random_gr(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_imaginary_unit():
    assert I * I == GaussianRational(-1)
    assert (ONE + I) * (ONE - I) == GaussianRational(2)


def test_power():
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert z ** 0 == ONE
    assert z ** 3 == z * z * z
    assert z ** -2 == (z * z).inverse()


def test_coercion_and_equality():
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(2, 1) != 2
    with pytest.raises(TypeError):
        GaussianRational.coerce("nope")


def test_hash_consistent_with_equality():
    assert hash(GaussianRational(Fraction(3, 4))) == hash(Fraction(3, 4))
    a = GaussianRational(Fraction(1, 2), Fraction(-5, 7))
    b = GaussianRational(Fraction(1, 2), Fraction(-5, 7))
    assert a == b and hash(a) == hash(b)


def test_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)


def test_format_scalar_text():
    # the text of the state files' and reports' scalars, in lowest terms
    cases = [
        (ZERO, "0"),
        (ONE, "1"),
        (I, "1i"),
        (-I, "-1i"),
        (GaussianRational(-2, 0), "-2"),
        (GaussianRational(0, -3), "-3i"),
        (GaussianRational(Fraction(6, 4), Fraction(-10, 14)), "3/2-5/7i"),
        (GaussianRational(Fraction(-1, 3), Fraction(2, 9)), "-1/3+2/9i"),
        (GaussianRational(Fraction(10**20 + 1, 7), 1), "100000000000000000001/7+1i"),
    ]
    for z, text in cases:
        assert str(z) == text
