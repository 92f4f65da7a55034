"""Exact linear algebra, checked against numpy and brute-force oracles."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from slocc2mn.scalars import GaussianRational, ZERO, ONE, _scalar
from slocc2mn.polynomials import Poly, exact_roots_of, poly_gcd, square_free_part
from slocc2mn.matrices import (
    Matrix,
    Pencil,
    certified_nullspace,
    poly_matrix_det,
    stack_vectorized,
    _poly_det_ints,
    _primitive_ints,
    _CERT_PRIME,
    _IMROOT,
)


def random_matrix(rng, rows, cols, imag=True, span=6):
    return Matrix([
        [GaussianRational(rng.randint(-span, span), rng.randint(-2, 2) if imag else 0)
         for _ in range(cols)]
        for _ in range(rows)
    ])


ONE_POLY = Poly.constant(ONE)


def certified_vectors(m):
    """certified_nullspace(m) as scalar tuples, checking its integer form:
    each vector is (pairs, den) with den > 0 and no content left."""
    out = []
    for ints, den in certified_nullspace(m):
        assert den > 0 and gcd(den, *[x for pair in ints for x in pair]) == 1
        out.append(tuple(_scalar(a, b, den) for a, b in ints))
    return out


def to_complex(m):
    """The entries of a Matrix as a numpy complex array."""
    return np.array([[complex(e) for e in row] for row in m.entries], dtype=complex)


def laplace_det(rows):
    """Independent cofactor-expansion oracle for polynomial determinants."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Poly()
    sign = 1
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return acc


def test_rank_matches_numpy():
    rng = random.Random(20)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() == np.linalg.matrix_rank(to_complex(m), tol=1e-9)


def test_rank_of_constructed_low_rank():
    rng = random.Random(21)
    for _ in range(30):
        a = random_matrix(rng, 4, 2)
        b = random_matrix(rng, 2, 5)
        assert (a @ b).rank() <= 2


def test_rref_contract():
    rng = random.Random(22)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        r, pivots, t = m.rref()
        assert t @ m == r
        assert not t.det().is_zero()
        assert len(pivots) == m.rank()
        for i, pc in enumerate(pivots):
            assert r[i, pc] == ONE
            for other in range(m.rows):
                if other != i:
                    assert r[other, pc].is_zero()


def test_nullspace_annihilates_and_spans():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = m.nullspace()
        assert len(basis) == m.cols - m.rank()
        for v in basis:
            assert (m @ Matrix([[x] for x in v])).is_zero()
        if basis:
            assert Matrix(basis).rank() == len(basis)


def test_certified_nullspace_equals_plain_nullspace():
    rng = random.Random(24)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
        fast = certified_vectors(m)
        slow = m.nullspace()
        assert len(fast) == len(slow)
        for v in fast:
            assert (m @ Matrix([[x] for x in v])).is_zero()
        if fast:
            # same span: stacking both bases does not increase the rank
            assert stack_vectorized(
                [Matrix([list(v)]) for v in fast + slow]
            ).rank() == len(slow)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, _CERT_PRIME, 0]],
    [[1, 0], [0, GaussianRational(_IMROOT, -1)]],
])
def test_certified_nullspace_adds_a_row_the_prefilter_drops(rows):
    # the second row is nonzero but vanishes modulo the prefilter's prime
    # (p, and s - i with s^2 = -1 mod p), so only the exact check of the
    # remaining rows against the null vectors brings it into the subset
    m = Matrix([[GaussianRational.coerce(x) for x in row] for row in rows])
    row = m._int_form()[0][1]
    assert any(a or b for a, b in row)
    assert all((a + b * _IMROOT) % _CERT_PRIME == 0 for a, b in row)
    assert certified_nullspace(m) == m._null_ints()


def test_det_matches_numpy_and_multiplicativity():
    rng = random.Random(25)
    for _ in range(40):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        assert abs(complex(a.det()) - np.linalg.det(to_complex(a))) < 1e-6
        assert (a @ b).det() == a.det() * b.det()


def test_inverse():
    rng = random.Random(26)
    found = 0
    while found < 20:
        m = random_matrix(rng, 3, 3)
        if m.det().is_zero():
            continue
        found += 1
        assert m.inverse() @ m == Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix([[ZERO, ZERO], [ZERO, ZERO]]).inverse()


def test_primitive_ints_scales_to_coprime_integers():
    assert _primitive_ints([(2, 0), (6, 0), (0, 0)]) == [(1, 0), (3, 0), (0, 0)]
    # the sign makes the first nonzero pair's real part positive, or its
    # imaginary part when the real part is zero
    assert _primitive_ints([(0, 0), (-4, 2), (6, 8)]) == [(0, 0), (2, -1), (-3, -4)]
    assert _primitive_ints([(0, -4), (2, 2)]) == [(0, 2), (-1, -1)]
    assert _primitive_ints([(0, 0)]) == [(0, 0)]


def test_poly_matrix_det_matches_laplace():
    rng = random.Random(28)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [
            [[(rng.randint(-3, 3), 0), (rng.randint(-3, 3), 0)] for _ in range(n)]
            for _ in range(n)
        ]
        want = laplace_det([[Poly._from_ints(e) for e in row] for row in rows])
        assert poly_matrix_det(rows, 1) == want


_big_parts = st.one_of(st.just(0), st.integers(-10, 10), st.integers(-10**12, 10**12))
_pairs = st.tuples(_big_parts, _big_parts)


@st.composite
def poly_det_inputs(draw):
    """(rows, bound): a 3 x 3 matrix of Gaussian-integer polynomials as
    ``_poly_det_ints`` takes them, with the degree bound its callers pass.

    "pencil" rows are [constant, t-coefficient] pairs, the entries of a
    pencil A + t*B, bounded by the number of rows with a t term (the bound
    poly_matrix_det reaches on a pencil minor's entries); "poly" rows carry
    degree 0..2 entries (trailing zeros allowed), bounded by the sum of the
    rows' degrees, as poly_matrix_det does.
    """
    form = draw(st.sampled_from(["pencil", "poly"]))
    if form == "pencil":
        entry = st.one_of(st.just([(0, 0), (0, 0)]), st.lists(_pairs, min_size=2, max_size=2))
    else:
        entry = st.one_of(st.just([]), st.just([(0, 0)]), st.lists(_pairs, max_size=3))
    zero_row = [[(0, 0)] * 2 if form == "pencil" else [] for _ in range(3)]
    rows = [draw(st.one_of(st.just(zero_row), st.lists(entry, min_size=3, max_size=3)))
            for _ in range(3)]
    if form == "pencil":
        bound = sum(any(e[1] != (0, 0) for e in row) for row in rows)
    else:
        # a zero row adds nothing (poly_matrix_det returns before the call)
        bound = sum(max(0, *(len(Poly._from_ints(e)._int_form()[0]) - 1 for e in row))
                    for row in rows)
    return rows, bound


@settings(max_examples=300, deadline=None)
@given(poly_det_inputs())
def test_poly_det_ints_three_by_three_matches_laplace(case):
    rows, bound = case
    want = laplace_det([[Poly._from_ints(e) for e in row] for row in rows])
    assert Poly._from_ints(_poly_det_ints(rows, bound)) == want


def test_poly_matrix_det_zero_row():
    rows = [[[], [(0, 0)]], [[(1, 0)], [(1, 0)]]]
    assert poly_matrix_det(rows, 1).is_zero()


@st.composite
def integer_pencil_rows(draw):
    """(rows, dens): a square matrix of side 1..5 of pencil entries
    [constant, t coefficient] as Gaussian-integer pairs, row i over dens[i];
    rows may be zero or free of t."""
    n = draw(st.integers(1, 5))
    part = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**9, 10**9))
    pair = st.tuples(part, part)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "t-free", "pencil", "pencil"]))
        if kind == "zero":
            rows.append([[(0, 0), (0, 0)]] * n)
        else:
            rows.append([[draw(pair), (0, 0) if kind == "t-free" else draw(pair)]
                         for _ in range(n)])
    return rows, draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(integer_pencil_rows())
def test_poly_matrix_det_on_integer_rows_matches_laplace(case):
    rows, dens = case
    want = laplace_det([[Poly._from_ints(e, d) for e in row] for row, d in zip(rows, dens)])
    assert poly_matrix_det(rows, prod(dens)) == want


def test_side_four_minor_evaluates_at_its_bound(monkeypatch):
    # two of the four rows carry a t term, so the degree bound is 2 and the
    # determinant is evaluated at t = 0, 1, 2 only, not at 0..4
    calls = []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(1) or det(self))
    rng = random.Random(4)
    rows = [[[(rng.randint(-5, 5), rng.randint(-5, 5)), (rng.randint(-5, 5), 0) if i < 2 else (0, 0)]
             for _ in range(4)] for i in range(4)]
    want = laplace_det([[Poly._from_ints(e) for e in row] for row in rows])
    assert poly_matrix_det(rows, 1) == want
    assert len(calls) == 3


_minor_entries = st.one_of(
    st.just(ZERO),
    st.builds(
        GaussianRational,
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6])),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 5])),
    ),
)


@st.composite
def two_by_two_minor_pencils(draw):
    """Pencils A + tB of shape 2 x N, N x 2 or up to 4 x 4 with sparse
    Gaussian-rational entries: zero entries, rows zero in A, in B or in both,
    and a different denominator on every row."""
    rows, cols = draw(st.sampled_from(
        [(2, n) for n in range(2, 6)] + [(n, 2) for n in range(3, 6)] + [(3, 3), (3, 4), (4, 4)]
    ))
    members = []
    for _ in range(2):
        members.append([draw(st.lists(_minor_entries, min_size=cols, max_size=cols))
                        for _ in range(rows)])
    for i in range(rows):
        for member in draw(st.sampled_from([[], [0], [1], [0, 1]])):
            members[member][i] = [ZERO] * cols
    return Pencil(Matrix(members[0]), Matrix(members[1]))


@settings(max_examples=300, deadline=None)
@given(two_by_two_minor_pencils())
def test_two_by_two_minors_match_poly_matrix_det(pen):
    # the closed-form 2 x 2 minors, in order, against the determinant of the
    # entry polynomials
    rows, cols = pen.shape()
    a_rows, b_rows, dens = pen._int_form()
    want = [
        poly_matrix_det([[(a_rows[i][j], b_rows[i][j]) for j in csel] for i in rsel],
                        dens[rsel[0]] * dens[rsel[1]])
        for rsel in itertools.combinations(range(rows), 2)
        for csel in itertools.combinations(range(cols), 2)
    ]
    assert list(pen.minor_polynomials(2)) == want


def test_pencil_generic_rank_matches_numeric_sampling():
    rng = random.Random(29)
    for _ in range(20):
        a = random_matrix(rng, 3, 4, imag=False)
        b = random_matrix(rng, 3, 4, imag=False)
        pen = Pencil(a, b)
        g = pen.generic_rank()
        numeric = max(
            np.linalg.matrix_rank(
                to_complex(a) + t * to_complex(b), tol=1e-9
            )
            for t in (0.7238411, -1.912303, 3.51431)
        )
        assert g == numeric


def test_pencil_generic_rank_needs_min_plus_one_points():
    # diag(t, t-1, t-2) drops to rank 2 at t = 0, 1 and 2; only the fourth
    # point t = 3 shows the generic rank 3
    a = Matrix([[-i if i == j else 0 for j in range(3)] for i in range(3)])
    pen = Pencil(a, Matrix.identity(3))
    assert [pen.at(GaussianRational(t)).rank() for t in range(4)] == [2, 2, 2, 3]
    assert pen.generic_rank() == 3
    # a pencil that never reaches full rank reads all min(rows, cols) + 1 points
    b = Matrix([[ONE, ZERO, ZERO], [ZERO, ZERO, ZERO]])
    assert Pencil(b, Matrix([[2 * x for x in row] for row in b.entries])).generic_rank() == 1


def _gaussian(re, im=0, den=1):
    return GaussianRational(Fraction(re, den), im)


def _unimodular(draw, n):
    """A lower times an upper unitriangular matrix: invertible, det 1."""
    entry = st.builds(_gaussian, st.integers(-2, 2), st.sampled_from([0, 0, 1, -1]))
    low = Matrix([[ONE if i == j else draw(entry) if i > j else ZERO for j in range(n)]
                  for i in range(n)])
    up = Matrix([[ONE if i == j else draw(entry) if i < j else ZERO for j in range(n)]
                 for i in range(n)])
    return low @ up


def _block(kind, x):
    """(A, B) of one diagonal block of A + t*B; each comment says where its
    rank drops."""
    if kind == "rational":  # t - x: rank 0 at x
        return [[-x]], [[ONE]]
    if kind == "quadratic":  # [[t, x], [1, t]]: rank 1 at the roots of t^2 - x
        return [[ZERO, x], [ONE, ZERO]], [[ONE, ZERO], [ZERO, ONE]]
    if kind == "jordan":  # [[t - x, 1], [0, t - x]]: rank 1 at x, twice a root
        return [[-x, ONE], [ZERO, -x]], [[ONE, ZERO], [ZERO, ONE]]
    if kind == "constant":  # 1: B loses rank, so the point at infinity drops
        return [[ONE]], [[ZERO]]
    if kind == "row":  # [t, 1]: rank 1 everywhere
        return [[ZERO, ONE]], [[ONE, ZERO]]
    return [[ZERO], [ONE]], [[ONE], [ZERO]]  # the column [t, 1]^T


@st.composite
def planted_pencils(draw):
    """Pencils up to 5 x 7 with planted rank drops at Gaussian-rational
    points and at surds (roots of t^2 - x for x = 2, 3, 5, ...), zero rows and
    columns, A or B made zero, all mixed by invertible integer L and R."""
    points = st.builds(_gaussian, st.integers(-3, 3), st.integers(-1, 1), st.integers(1, 2))
    squares = st.sampled_from([2, 3, 5, -2, -1, 1, GaussianRational(0, 2), GaussianRational(1, 1)])
    kinds = st.sampled_from(["rational", "quadratic", "jordan", "constant", "row", "column"])
    blocks = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        x = draw(squares if kind == "quadratic" else points)
        blocks.append(_block(kind, GaussianRational.coerce(x)))
    rows = sum(len(a) for a, _ in blocks)
    cols = sum(len(a[0]) for a, _ in blocks)
    assume(rows <= 5 and cols <= 7)
    rows += draw(st.integers(0, 5 - rows))  # zero rows
    cols += draw(st.integers(0, 7 - cols))  # zero columns
    pair = []
    for half in (0, 1):
        grid = [[ZERO] * cols for _ in range(rows)]
        i = j = 0
        for blk in blocks:
            for di, row in enumerate(blk[half]):
                grid[i + di][j:j + len(row)] = row
            i, j = i + len(blk[half]), j + len(blk[half][0])
        pair.append(Matrix(grid))
    dropped = draw(st.sampled_from([None, None, None, 0, 1]))
    if dropped is not None and not pair[1 - dropped].is_zero():
        pair[dropped] = Matrix([[ZERO] * cols for _ in range(rows)])
    assume(not (pair[0].is_zero() and pair[1].is_zero()))
    left, right = _unimodular(draw, rows), _unimodular(draw, cols)
    return Pencil(*(left @ m @ right for m in pair))


def _profile_form(prof):
    """(key, sorted (rank, parameter) of the Gaussian-rational and infinite
    points, {rank: product of the distinct irrational factors})."""
    exact = sorted((p.rank, str(p.parameter)) for p in prof.exceptional
                   if not isinstance(p.parameter, Poly))
    factors = {}
    for p in prof.exceptional:
        if isinstance(p.parameter, Poly):
            factors.setdefault(p.rank, set()).add(p.parameter)
    surds = {}
    for rank, fs in factors.items():
        surds[rank] = ONE_POLY
        for f in fs:
            surds[rank] = surds[rank] * f
    return prof.key(), exact, surds


def _oracle_profile_form(pen, gcds):
    """:func:`_profile_form` of the rank profile, from the full minor gcds:
    the generic rank g is the largest k with a nonzero k x k minor, the finite
    exceptional points are the roots of gcds[g - 1], and at a root the rank is
    below j exactly where gcds[j - 1] vanishes."""
    g = max((k for k, d in enumerate(gcds, 1) if not d.is_zero()), default=0)
    exact, surds = [], {}
    if g and gcds[g - 1].degree > 0:
        roots, rest = exact_roots_of(gcds[g - 1])
        exact = [(pen.at(r).rank(), str(r)) for r in roots]
        for f in rest:
            below = [ONE_POLY] + [poly_gcd(f, gcds[j - 1]) for j in range(1, g)] + [f]
            for rank in range(g):
                part = below[rank + 1] // below[rank]
                if part.degree > 0:
                    surds[rank] = part.monic()
    rb = pen.b.rank()
    if rb < g:
        exact.append((rb, "None"))
    ranks = [rk for rk, _ in exact] + [rk for rk, f in surds.items() for _ in range(f.degree)]
    return (g, tuple(sorted(ranks))), sorted(exact), surds


# no shrink phase: each shrink step would enumerate every minor of a pencil
# up to 5 x 7 again for the oracle, minutes and hundreds of MB on a failure;
# the failing example is reported as generated
@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(planted_pencils(), st.data())
def test_pencil_minor_gcd_divides_root_multiple(pen, data):
    rows, cols = pen.shape()
    gcds = [pen.minor_gcd(k) for k in range(1, min(rows, cols) + 1)]
    for k, g in enumerate(gcds, 1):
        cand = pen.minor_root_multiple(k)
        # zero exactly when every k x k minor vanishes identically; otherwise
        # a multiple of the true minor gcd, so no rank-drop point is lost
        assert cand.is_zero() == g.is_zero()
        if not g.is_zero():
            assert (cand % g).is_zero()
    form = _profile_form(pen.rank_profile())
    assert form == _oracle_profile_form(pen, gcds)
    # the profile is a property of the pencil's equivalence class
    row_order = data.draw(st.permutations(range(rows)))
    col_order = data.draw(st.permutations(range(cols)))
    left, right = _unimodular(data.draw, rows), _unimodular(data.draw, cols)
    moved = [
        Matrix([[m[row_order[i], col_order[j]] for j in range(cols)] for i in range(rows)])
        for m in (pen.a, pen.b)
    ]
    assert _profile_form(Pencil(*moved).rank_profile()) == form
    assert _profile_form(Pencil(*(left @ m @ right for m in moved)).rank_profile()) == form


def test_pencil_rank_profile_diagonal_example():
    # diag(1 + t, 2 + t): rank drops to 1 at t = -1 and t = -2
    a = Matrix([[ONE, ZERO], [ZERO, GaussianRational(2)]])
    b = Matrix.identity(2)
    prof = Pencil(a, b).rank_profile()
    assert prof.generic_rank == 2
    assert prof.rank_multiset() == (1, 1)
    params = sorted(complex(p.parameter).real for p in prof.exceptional)
    assert params == [-2.0, -1.0]


def test_pencil_rank_profile_with_infinity_drop():
    # a invertible, b rank one: rank drops at the infinite parameter
    a = Matrix.identity(2)
    b = Matrix([[ONE, ZERO], [ZERO, ZERO]])
    prof = Pencil(a, b).rank_profile()
    assert prof.generic_rank == 2
    assert any(p.location == "infinity" and p.rank == 1 for p in prof.exceptional)


def test_rank_profile_exact_at_large_irrational_roots():
    # random 4x4 pencils with parts up to 10^12: det(A + tB) has four simple,
    # irrational roots, and the rank is 3 at each of them, though the
    # smallest singular value there is only about 1e-17 of the largest, too
    # small for any float tolerance to tell from rounding
    rng = random.Random(1)
    big = 10**12

    def draw():
        return Matrix([[GaussianRational(rng.randint(-big, big), rng.randint(-big, big))
                        for _ in range(4)] for _ in range(4)])

    for _ in range(20):
        prof = Pencil(draw(), draw()).rank_profile()
        assert prof.key() == (4, (3, 3, 3, 3))
        assert all(p.location == "finite" for p in prof.exceptional)


def test_rank_profile_at_surd_roots():
    # diag([[t, 2], [1, t]], 1): rank 1 + 1 at both roots of t^2 - 2, which
    # share one exceptional parameter, the factor itself
    a = Matrix([[0, 2, 0], [1, 0, 0], [0, 0, 1]])
    b = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    prof = Pencil(a, b).rank_profile()
    assert prof.key() == (3, (2, 2, 2))
    t = Poly.linear(ZERO, ONE)
    surd = t * t - Poly.constant(GaussianRational(2))
    assert [p.parameter for p in prof.exceptional] == [surd, surd, None]


def _companion(f):
    """The companion matrix of a monic polynomial: its eigenvalues are f's roots."""
    c = f.coeffs
    d = f.degree
    return Matrix([[-c[i] if j == d - 1 else ONE if i == j + 1 else ZERO for j in range(d)]
                   for i in range(d)])


def _kron(x, y):
    return Matrix([
        [x[i // y.rows, j // y.cols] * y[i % y.rows, j % y.cols] for j in range(x.cols * y.cols)]
        for i in range(x.rows * y.rows)
    ])


def _direct_sum(mats):
    n = sum(m.rows for m in mats)
    out = [[ZERO] * n for _ in range(n)]
    k = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[k + i][k + j] = m[i, j]
        k += m.rows
    return Matrix(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_ranks_over_matches_companion_oracle(seed):
    # For square-free f with companion matrix C, A (x) I + B (x) C is similar
    # to the direct sum of A + alpha B over the roots alpha of f, so its rank
    # is the sum of deg(factor) * rank over the pairs ranks_over returns.
    # Pencils get planted blocks t I - C_g for factors g of f, so the ranks
    # drop at roots that are mostly irrational.
    rng = random.Random(seed)

    def gauss():
        return GaussianRational(rng.randint(-3, 3), rng.choice([0, 0, rng.randint(-2, 2)]))

    factors = [
        Poly([gauss() for _ in range(rng.randint(1, 3))] + [ONE])
        for _ in range(rng.randint(1, 3))
    ]
    f = ONE_POLY
    for g in factors:
        f = f * g
    f = square_free_part(f)
    planted = rng.sample(factors, rng.randint(0, min(2, len(factors))))
    blocks = [(Matrix([[-x for x in row] for row in _companion(g).entries]), Matrix.identity(g.degree))
              for g in planted]
    if rng.random() < 0.5 or not blocks:
        n = rng.randint(1, 2)
        blocks.append((random_matrix(rng, n, n, span=2), random_matrix(rng, n, n, span=2)))
    a0, b0 = (_direct_sum([blk[i] for blk in blocks]) for i in (0, 1))
    rows, cols = a0.rows + rng.randint(0, 1), a0.cols
    p = random_matrix(rng, rows, a0.rows, span=2)
    q = random_matrix(rng, cols, cols, span=2)
    pen = Pencil(p @ a0 @ q, p @ b0 @ q)
    pairs = pen.ranks_over(f)
    product = ONE_POLY
    for g, _ in pairs:
        assert g.degree > 0 and g == g.monic()
        product = product * g
    assert product == f.monic()
    left, right = _kron(pen.a, Matrix.identity(f.degree)), _kron(pen.b, _companion(f.monic()))
    oracle = Matrix([[x + y for x, y in zip(r0, r1)] for r0, r1 in zip(left.entries, right.entries)])
    assert oracle.rank() == sum(g.degree * rk for g, rk in pairs)


# -- the elimination kernel against a slow Fraction oracle --------------------


def _c(x):
    return (Fraction(x.re), Fraction(x.im))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _cinv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _oracle(m):
    """Textbook Gauss-Jordan on pairs of Fractions: (R rows, pivots, det)."""
    a = [[_c(x) for x in row] for row in m.entries]
    pivots = []
    det = (Fraction(1), Fraction(0))
    pr = 0
    for pc in range(m.cols):
        r = next((r for r in range(pr, m.rows) if a[r][pc] != (0, 0)), None)
        if r is None:
            continue
        if r != pr:
            a[pr], a[r] = a[r], a[pr]
            det = (-det[0], -det[1])
        det = _cmul(det, a[pr][pc])
        inv = _cinv(a[pr][pc])
        a[pr] = [_cmul(inv, x) for x in a[pr]]
        for r in range(m.rows):
            if r != pr and a[r][pc] != (0, 0):
                f = a[r][pc]
                a[r] = [_csub(x, _cmul(f, y)) for x, y in zip(a[r], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    if len(pivots) < m.rows:
        det = (Fraction(0), Fraction(0))
    return a, tuple(pivots), det


def _oracle_nullspace(r_rows, pivots, cols):
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [ZERO] * cols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            re, im = r_rows[i][fc]
            v[pc] = GaussianRational(-re, -im)
        basis.append(tuple(v))
    return basis


_parts = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**24)),
)
_scalars = st.one_of(
    st.just(ZERO),
    st.builds(GaussianRational, _parts),
    st.builds(GaussianRational, _parts, _parts),
)
_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.just(1)),
    st.tuples(st.integers(1, 8), st.integers(1, 6)),
)


_real_scalars = st.one_of(st.just(ZERO), st.builds(GaussianRational, _parts))


@st.composite
def gaussian_matrices(draw):
    """Dense, rank-deficient (a product through a narrow middle), zero-row
    and purely real Gaussian-rational matrices of many shapes.  A real one
    sends every elimination step down the kernel's real branches, with zero
    and nonzero factors and unit and non-unit divisors."""
    rows, cols = draw(_shapes)
    kind = draw(st.sampled_from(["dense", "low_rank", "zero_rows", "real"]))
    if kind == "real":
        return Matrix([[draw(_real_scalars) for _ in range(cols)] for _ in range(rows)])
    if kind == "low_rank":
        k = draw(st.integers(0, min(rows, cols) - 1))
        if k == 0:
            return Matrix([[ZERO] * cols for _ in range(rows)])
        left = Matrix([[draw(_scalars) for _ in range(k)] for _ in range(rows)])
        right = Matrix([[draw(_scalars) for _ in range(cols)] for _ in range(k)])
        return left @ right
    grid = [[draw(_scalars) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_rows":
        for i in draw(st.sets(st.integers(0, rows - 1))):
            grid[i] = [ZERO] * cols
    return Matrix(grid)


@settings(max_examples=300, deadline=None)
@given(gaussian_matrices())
def test_kernel_matches_fraction_oracle(m):
    r_rows, pivots, det = _oracle(m)
    assert m.rank() == len(pivots)
    if m.rows == m.cols:
        assert m.det() == GaussianRational(*det)
    expected_null = _oracle_nullspace(r_rows, pivots, m.cols)
    assert m.nullspace() == expected_null
    assert certified_vectors(m) == expected_null
    r, got_pivots, t = m.rref()
    assert got_pivots == pivots
    assert r == Matrix([[GaussianRational(*x) for x in row] for row in r_rows])
    assert t @ m == r
    assert len(_oracle(t)[1]) == m.rows  # T is invertible
    # the transform-free reduction gives the same R, stored form and pivots
    bare, bare_pivots, none = m.rref(transform=False)
    assert none is None and bare_pivots == pivots
    assert bare == r and bare._int_form() == r._int_form()


def test_stack_vectorized_matches_rational_stack():
    # the stack of integer rows equals the stack built from the entries, also
    # when rows of one matrix, and the matrices, carry different denominators
    rng = random.Random(32)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        mats = [
            Matrix([
                [GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 10**20])),
                    Fraction(rng.randint(-3, 3), rng.choice([1, 4, 7])),
                ) for _ in range(cols)]
                for _ in range(rows)
            ])
            for _ in range(rng.randint(1, 4))
        ]
        ref = Matrix([[e for row in m.entries for e in row] for m in mats])
        stacked = stack_vectorized(mats)
        assert stacked == ref
        assert stacked._int_form() == ref._int_form()
        assert stacked.rank() == ref.rank()
        # matrices held in integer form (pencil points) stack the same way
        pen = Pencil(mats[0], mats[-1])
        points = [pen.at(GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))) for _ in range(3)]
        assert stack_vectorized(points) == Matrix([[e for row in m.entries for e in row] for m in points])
