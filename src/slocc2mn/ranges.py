"""Counting product states in the ranges of adjoint reduced density matrices.

For a tripartite state and an absent party X, the range of the reduced state
of the other two parties is a subspace of bipartite vectors, viewed here as a
subspace of matrices; product states are its rank-one elements.  Counting is
exact throughout: finite counts come from gcd degree drops, infinities from
exact degeneracy tests, and ranks at irrational pencil slopes from
:meth:`.matrices.Pencil.ranks_over`.  Counting builds no witness: a count
keeps its exact points (roots, slopes), and its ``points()`` yields their
exact witnesses one at a time when read; a point at an irrational slope has
none.  That is the one route from a range to its rank-one elements: the
partner tier reads them all, the reduction's pivot
(:func:`exact_rank_one_in_span`) only the first.

Counts run on the normal form only: a 2 x M x N state, M <= N, whose dims
are its local ranks (:func:`slocc_signature`), which is how the classifier
compresses and orders every state with a qubit.  Its A range is a pencil and
its B and C ranges are spans of two-row matrices, the two shapes
:func:`count_product_states` takes; any other raises
:class:`UnsupportedSubspaceError`.

For two-row ranges :meth:`.matrices.Pencil.rank_profile` is the one search
for rank drops of the pencil B - t*A: its exceptional points are the rank-one
slopes, read by :func:`exact_points` (the one reader of a rank profile), and
:func:`partner_rank` is decided by exact rank comparisons there and at
t = 0..g, g the generic rank.  No sampled slope decides either.  It runs
once for a normal form with M >= 3: its C-range pencil T1 - t*T0 (T0, T1
the qubit's slices) is the B-range one transposed and holds the A range's
rank-one points, so the profile of :func:`qubit_pencil`, read straight off
the integer amplitudes, serves all three counts and the partner and quadric
tiers.  Those counts read each range's dimension and shape only; its slices
are taken when a count's points are read.  A 2 x 2 x N normal form counts its
A range once, by the gcd of its 2 x 2 minors, which stops at its first unit;
its B range has the same rank-one points, through the left null vectors of
the A points' first factors (:func:`_shared_count`), and its C range is
counted on its own.

:func:`quadric_profile` is the one sampled quantity here: exact and seeded,
but read off a sample that depends on the basis, so it is not ILO-invariant
in general.  The classifier reads it only as its last tier, where it has to
tell Theta4(m) from Theta5(m), the only canonical pairs that tie on every
other tier (checked up to m = 5); on those two it is stable, (1, 4) and
(1, 3), under every ILO tried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterator
from math import lcm

from .scalars import GaussianRational, ZERO, ONE, _int_row, _scalar
from .polynomials import Poly, poly_gcd_many, exact_roots_of
from .matrices import (
    Matrix,
    Pencil,
    PencilRankProfile,
    stack_vectorized,
    certified_nullspace,
    _eliminate,
    _int_matmul,
    _primitive_ints,
)
from .states import PureState, PARTIES, LocalRankProfile

RANGE_PAIR = {"A": ("B", "C"), "B": ("A", "C"), "C": ("A", "B")}


class UnsupportedSubspaceError(ValueError):
    """Raised for a subspace, or a state, that the counters do not take: not
    a range of a normal form with a qubit, or not such a normal form."""


@dataclass(frozen=True)
class MatrixSubspace:
    """A subspace of rows x cols matrices given by an independent basis."""

    rows: int
    cols: int
    basis: tuple[Matrix, ...]

    def __post_init__(self):
        if not self.basis:
            raise ValueError("subspace needs a nonempty basis")
        for m in self.basis:
            if m.shape() != (self.rows, self.cols):
                raise ValueError("basis matrix shape mismatch")
        if stack_vectorized(self.basis).rank() != len(self.basis):
            raise ValueError("basis matrices are linearly dependent")

    @staticmethod
    def _of_independent(basis) -> "MatrixSubspace":
        """The span of a basis known to be independent, built without the
        constructor's elimination."""
        sub = object.__new__(MatrixSubspace)
        object.__setattr__(sub, "rows", basis[0].rows)
        object.__setattr__(sub, "cols", basis[0].cols)
        object.__setattr__(sub, "basis", tuple(basis))
        return sub

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ProductWitness:
    """A rank-one element of a subspace: GaussianRational coefficients and
    factors u (x) v."""

    coeffs: tuple
    u: tuple
    v: tuple


@dataclass(frozen=True)
class ProductCount:
    """Finite(n) or Infinite count of product states in a subspace.

    ``exact`` says every counted point has a Gaussian-rational witness; the
    count is exact either way.  ``points()`` yields exact rank-one elements
    one at a time, built from what the count kept: one per Gaussian-rational
    point of a finite count; of an infinite count only a sample, first the
    element :func:`exact_rank_one_in_span` pivots on.  ``witnesses`` is
    ``tuple(points())``, cached.
    """

    kind: str  # 'finite' | 'infinite'
    count: int = 0
    exact: bool = True
    points: Callable[[], Iterator] = field(default=lambda: iter(()), repr=False, compare=False)

    @cached_property
    def witnesses(self) -> tuple[ProductWitness, ...]:
        return tuple(self.points())

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def key(self):
        return ("inf",) if self.is_infinite else ("fin", self.count)

    def render(self) -> str:
        return "inf" if self.is_infinite else str(self.count)


def rank_one_factor(m: Matrix):
    """Split an exact rank-one matrix into (u, v) with m = u v^T."""
    for i in range(m.rows):
        for j in range(m.cols):
            if not m[i, j].is_zero():
                pivot = m[i, j]
                u = tuple(m[r, j] for r in range(m.rows))
                v = tuple(m[i, c] * pivot.inverse() for c in range(m.cols))
                return u, v
    raise ValueError("zero matrix has no rank-one factorization")


def _pencil_witnesses(sub, points):
    """The witness at each projective point (alpha, beta) of the span
    ``sub`` of M0, M1, its basis read on the first point: the factors of its
    member alpha*M0 + beta*M1 (alpha is 1 or 0)."""
    m0, m1 = sub.basis
    pen = Pencil(m0, m1)
    for alpha, beta in points:
        yield ProductWitness((alpha, beta), *rank_one_factor(pen.at(beta) if alpha else m1))


def _count_pencil_span(sub: MatrixSubspace, pen: Pencil | None = None) -> ProductCount:
    """Product states in span{M0, M1}: rank-one points of the projective line,
    read off the rank profile of ``pen`` = M1 - t*M0 when given, else off the
    2 x 2 minors.  An irrational root is counted without a witness.  An
    infinite count yields M0 first.  With ``pen``, the qubit pencil of a
    normal form with M >= 3, the count is finite: generic rank <= 1 would
    force rank T0, rank T1 <= 1 and so a B rank <= 2.  The basis is then
    read only by the count's points()."""
    if pen is not None:
        profile = pen.rank_profile()
        low = tuple(p for p in profile.exceptional if p.rank <= 1)
        slopes, exact = exact_points(replace(profile, exceptional=low))
        # the slope t is the point s = -1/t of M0 + s*M1: t = infinity is
        # s = 0, and t = 0 is s = infinity, last
        roots = sorted((-b.inverse() if a else ZERO for (a, b), _ in slopes if b or not a),
                       key=lambda r: (r.re, r.im))
        points = [(ONE, r) for r in roots] + [(ZERO, ONE)] * any(not b for (_, b), _ in slopes)
        return ProductCount(kind="finite", count=len(low), exact=exact,
                            points=partial(_pencil_witnesses, sub, points))
    m0, m1 = sub.basis
    # the minors are computed as the gcd reads them, up to the first unit;
    # one-row or one-column matrices have none
    g = poly_gcd_many(Pencil(m0, m1).minor_polynomials(2)) if min(m0.shape()) > 1 else Poly()
    if g.is_zero():
        # every pencil element has rank <= 1
        return ProductCount(kind="infinite", points=partial(_pencil_witnesses, sub, [(ONE, ZERO)]))
    # the distinct roots, Gaussian-rational and irrational: deg of the
    # square-free part
    roots, rest = exact_roots_of(g) if g.degree > 0 else ([], [])
    # the roots, then infinity; the closure keeps the span, not the pencil
    points = [(ONE, t) for t in roots] + [(ZERO, ONE)] * (m1.rank() <= 1)
    count = len(points) + sum(f.degree for f in rest)
    return ProductCount(
        kind="finite", count=count, exact=not rest,
        points=partial(_pencil_witnesses, sub, points),
    )


def _left_null_points(count: ProductCount):
    """The projective point (c0, c1), c0 1 or 0, of the left null vector
    c = (u1, -u0) of the first factor u of each element ``count`` yields."""
    for w in count.points():
        u0, u1 = w.u
        yield (ONE, -u0 / u1) if u1 else (ZERO, ONE)


def _shared_count(a_count: ProductCount, s: PureState) -> ProductCount:
    """The B-range count of the 2 x 2 x N state ``s`` whose dims are its
    local ranks, read off ``a_count``, the count of its A range.

    With A-slices T0, T1 and B-slices S0, S1 (row j of T_i is row i of S_j),
    a rank-one alpha*T0 + beta*T1 = u v^T has the left null vector
    c = (u1, -u0), and c0*S0 + c1*S1 is rank one, its rows in the ratio
    (beta, -alpha).  A c null at two points would annihilate T0 and T1 both,
    so c0*S0 + c1*S1 = 0, against B-rank 2: the map is a bijection, and the
    count carries over in kind, number and exactness, irrational points
    without a witness.  The witnesses are built as read, one per A point;
    the B-slices, independent as the B rank is 2, are taken only then."""

    def points():
        return _pencil_witnesses(range_subspace(s, "B", 2), _left_null_points(a_count))

    return ProductCount(kind=a_count.kind, count=a_count.count, exact=a_count.exact, points=points)


def _two_row_pencil(sub: MatrixSubspace):
    """(A, B, B - t*A) for span{B_1..B_k} with each B_i a 2 x K matrix.

    Writing row pairs (a_i, b_i), coefficient vectors c with a rank-one element
    at slope t are the nullvectors of B - t A where A = [a_i], B = [b_i] as
    K x k matrices; slope infinity corresponds to nullvectors of A.  Raises
    UnsupportedSubspaceError unless the matrices have two rows.
    """
    if sub.rows != 2:
        raise UnsupportedSubspaceError(f"needs two-row matrices, got {sub.rows} rows")
    k = sub.dimension
    kk = sub.cols
    forms = [m._int_form() for m in sub.basis]

    def rows_of(half):
        # column i of A (of B) is row 0 (row 1) of basis element i, its
        # Gaussian-integer form brought to the one denominator of all k
        den = lcm(*[dens[half] for _, dens in forms])
        cols = [
            [(x * (den // dens[half]), y * (den // dens[half])) for x, y in rows[half]]
            for rows, dens in forms
        ]
        return [list(row) for row in zip(*cols)], [den] * kk

    a_rows, a_dens = rows_of(0)
    a_mat = Matrix._from_ints(a_rows, a_dens, k)
    b_mat = Matrix._from_ints(*rows_of(1), k)
    neg_a = Matrix._from_ints([[(-x, -y) for x, y in row] for row in a_rows], a_dens, k)
    return a_mat, b_mat, Pencil(b_mat, neg_a)


def exact_points(profile: PencilRankProfile):
    """(points, all_exact): the exceptional points of a pencil's rank
    profile as ((alpha, beta), rank), the member alpha*M0 + beta*M1 of the
    pencil M0 + t*M1, in the profile's order.  Irrational points are left
    out, and all_exact is then False."""
    points = []
    for p in profile.exceptional:
        if p.location == "infinity":
            points.append(((ZERO, ONE), p.rank))
        elif not isinstance(p.parameter, Poly):
            points.append(((ONE, GaussianRational.coerce(p.parameter)), p.rank))
    return points, len(points) == len(profile.exceptional)


def _slope_witness(a_mat: Matrix, b_mat: Matrix, pen: Pencil, point) -> ProductWitness:
    """The witness at the projective slope (alpha, beta) of B - t*A, from
    the first null vector c there (of A at infinity): its second factor is
    A c (B c at infinity), taken on the integer rows."""
    alpha, beta = point
    kernel, image = (pen.at(beta), a_mat) if alpha else (a_mat, b_mat)
    c = kernel.nullspace()[0]
    ints, den = _int_row(c)
    rows, dens = image._int_form()
    v = tuple(_scalar(re, im, den * d)
              for ((re, im),), d in zip(_int_matmul(rows, [[x] for x in ints]), dens))
    return ProductWitness(coeffs=c, u=(ONE, beta) if alpha else (ZERO, ONE), v=v)


def _slope_witnesses(sub: MatrixSubspace, points, built=None):
    """The witness at each slope, off ``built``, the (A, B, B - t*A) of
    :func:`_two_row_pencil` when the count built it, else built here from
    the basis."""
    a_mat, b_mat, pen = built or _two_row_pencil(sub)
    for point in points:
        yield _slope_witness(a_mat, b_mat, pen, point)


def _rank_one_profile(sub: MatrixSubspace, pen: Pencil | None):
    """The rank profile of ``pen``, B - t*A of a two-row range or a pencil of
    the same profile, whose exceptional points are its rank-one slopes; None
    when B - t*A has a null vector at every slope: more basis elements than
    columns (``pen`` is then not read), or a generic rank below k."""
    k = sub.dimension
    if k > sub.cols:
        return None
    return pen.rank_profile() if pen.generic_rank() == k else None


def _count_two_row(sub: MatrixSubspace, pen: Pencil | None = None) -> ProductCount:
    """One point per rank-one slope, so per exceptional point of B - t*A (or
    of ``pen``, of the same profile), irrational ones without a witness;
    infinite when a slope has nullity >= 2.  When B - t*A has a null vector
    at every slope the count is infinite and yields the one at t = 0.  A
    pencil built here for the profile is handed to the witness walk."""
    k = sub.dimension
    built = None
    if pen is None and k <= sub.cols:
        built = _two_row_pencil(sub)
        pen = built[2]
    profile = _rank_one_profile(sub, pen)
    if profile is None:
        walk = partial(_slope_witnesses, sub, [(ONE, ZERO)], built)
        return ProductCount(kind="infinite", points=walk)
    points, exact = exact_points(profile)
    walk = partial(_slope_witnesses, sub, [p for p, _ in points], built)
    if any(p.rank <= k - 2 for p in profile.exceptional):
        # a degenerate slope carries a multi-dimensional product family
        return ProductCount(kind="infinite", points=walk)
    return ProductCount(kind="finite", count=len(profile.exceptional), exact=exact, points=walk)


def count_product_states(sub: MatrixSubspace) -> ProductCount:
    """Count the rank-one elements (up to scale of each factor) of a subspace.

    Two shapes are counted, those of the ranges of a normal form with a
    qubit: a pencil (dimension 2), by its 2 x 2 minors, and a subspace of
    two-row matrices, by the rank profile of B - t*A.  Any other subspace
    raises UnsupportedSubspaceError.
    """
    if sub.dimension == 2:
        return _count_pencil_span(sub)
    if sub.rows == 2:
        return _count_two_row(sub)
    raise UnsupportedSubspaceError(
        f"counting not supported for a {sub.dimension}-dimensional subspace of "
        f"{sub.rows}x{sub.cols} matrices"
    )


def exact_rank_one_in_span(sub: MatrixSubspace) -> ProductWitness | None:
    """Some exact rank-one element of the subspace, or None: the first point
    its count yields, an arbitrary exact one when there are infinitely
    many."""
    return next(count_product_states(sub).points(), None)


# -- ranges of a tripartite state --------------------------------------------


def range_subspace(s: PureState, absent_party: str, rank: int | None = None) -> MatrixSubspace:
    """Range of the reduced state of the two parties other than absent_party,
    as a subspace of (first party) x (second party) matrices.  When ``rank``,
    that party's local rank, is its dimension, its slices are independent and
    form the basis as they stand, without an elimination."""
    slices = s.slices(absent_party)
    if len(slices) != rank:
        _, slices = _independent_slices(slices)
    return MatrixSubspace._of_independent(slices)


@dataclass(frozen=True)
class Signature:
    """Local ranks plus the three product counts [a_A, a_B, a_C].

    a_X counts product states in the range of the reduced density matrix of
    the two parties other than X.
    """

    ranks: LocalRankProfile
    counts: tuple[ProductCount, ProductCount, ProductCount]

    def key(self):
        return tuple(c.key() for c in self.counts)

    def render(self) -> str:
        return "[" + ",".join(c.render() for c in self.counts) + "]"


class _Range:
    """The range of a normal form ``s`` without ``party`` as a count reads
    it: its dimension and shape off the dims, its basis sliced when read."""

    def __init__(self, s: PureState, party: str):
        p = PARTIES.index(party)
        self.s, self.party, self.dimension = s, party, s.dims[p]
        self.rows, self.cols = [d for q, d in enumerate(s.dims) if q != p]

    @cached_property
    def basis(self):
        return range_subspace(self.s, self.party, self.dimension).basis


def qubit_pencil(s: PureState, ranks: LocalRankProfile) -> Pencil | None:
    """The qubit's slice pencil as T1 - t*T0, the C-range pencil of
    :func:`_two_row_pencil`, for a 2 x M x N state with M, N >= 3 whose dims
    are its local ranks; None for any other state.  T0 and T1 are the
    A-slices, entry (j, k) of T_i the amplitude (i, j, k) over the state's
    denominator, so the pencil's integer rows are the amplitudes."""
    dims = s.dims
    if dims[0] != 2 or min(dims[1:]) < 3 or ranks.as_tuple() != dims:
        return None
    t0, t1 = s.slices("A")
    rows, dens = t0._int_form()
    return Pencil(t1, Matrix._from_ints([[(-a, -b) for a, b in row] for row in rows], dens, dims[2]))


def slocc_signature(s: PureState, ranks: LocalRankProfile | None = None, qubit=None) -> Signature:
    """Local ranks (computed unless given) and the three product counts of a
    normal form with a qubit: a 2 x M x N state, M <= N, whose dims are its
    local ranks.  For M >= 3 all three are read off the rank profile of the
    state's :func:`qubit_pencil` (``qubit``, when given, with its profile
    cached); for M = 2 the A count is taken by 2 x 2 minors and shared with
    the B range (:func:`_shared_count`), and the C range is counted on its
    own, infinite from its shape alone when N >= 3.  The counts read each
    range's dimension and shape only: its slices and :class:`MatrixSubspace`
    are built when a count's ``points()`` is read.  Any other state raises
    UnsupportedSubspaceError."""
    ranks = ranks or s.local_ranks()
    dims = s.dims
    if ranks.as_tuple() != dims or dims[0] != 2 or dims[1] > dims[2]:
        raise UnsupportedSubspaceError(
            f"counting not supported for a state of dims {dims} and local ranks "
            f"{ranks.as_tuple()}: it is not a normal form with a qubit"
        )
    qubit = qubit or qubit_pencil(s, ranks)
    if qubit is not None:
        counts = (_count_pencil_span(_Range(s, "A"), qubit),
                  _count_two_row(_Range(s, "B"), qubit), _count_two_row(_Range(s, "C"), qubit))
    else:
        a_count = count_product_states(range_subspace(s, "A", 2))
        counts = (a_count, _shared_count(a_count, s), _count_two_row(_Range(s, "C"))
                  if dims[2] > 2 else count_product_states(range_subspace(s, "C", 2)))
    return Signature(ranks=ranks, counts=counts)


def bc_pencil(s: PureState) -> Pencil:
    """The pencil spanned by the two A-slices (requires A-rank 2)."""
    sub = range_subspace(s, "A")
    if sub.dimension != 2:
        raise ValueError("BC pencil needs an A-rank of exactly 2")
    return Pencil(sub.basis[0], sub.basis[1])


# -- partner ranks -----------------------------------------------------------


def _independent_slices(slices):
    """(indices, slices) of the first linearly independent slices, in order:
    the pivot columns of one elimination of the matrix whose columns are the
    vectorized slices (zero slices are never pivots)."""
    rows, _ = stack_vectorized(slices)._int_form()
    pivots, _ = _eliminate([list(col) for col in zip(*rows)], len(slices))
    return pivots, [slices[j] for j in pivots]


def partner_rank(s: PureState, absent_party: str, witness: ProductWitness, qubit=None):
    """Schmidt rank of the witness's conjugate adjoint state.

    The witness u (x) v lies in the range over the party pair (Y, Z); the
    partner is the adjoint state of the Z-factor v with respect to party Z,
    which is defined up to adding adjoint states of directions annihilating v.
    We report the minimum Schmidt rank over that family, an SLOCC invariant.
    The partner matrices have two rows (the A party), so the result is 1 or 2.

    Partner rank 1 needs a nullvector c of B - t*A (a rank-one element of
    the slice span), t in P^1, on which the functional phi(c) = sum_i c_i v_i
    does not vanish: that is, appending phi as a row raises the rank of
    B - t*A (of A at infinity).  Away from the exceptional points of the
    pencil's rank profile the rank is the generic rank g, and phi raises it
    there iff it raises it generically; then some (g+1)-minor holding the
    phi row is a nonzero polynomial of degree <= g, so one of t = 0..g shows
    it.  The exceptional points are compared one by one, exactly, the
    irrational ones by :meth:`.matrices.Pencil.ranks_over`.  ``qubit``, the
    state's :func:`qubit_pencil`, is B - t*A or its transpose, profile cached.
    The Z-slices must be independent, as a normal form's are; dependent ones
    raise UnsupportedSubspaceError.
    """
    y_party, z_party = RANGE_PAIR[absent_party]
    v = witness.v
    slices = s.slices(z_party)
    k = len(slices)
    if len(v) != k:
        raise ValueError("witness factor length does not match party dimension")
    if len(_independent_slices(slices)[0]) != k:
        raise UnsupportedSubspaceError(
            f"partner ranks need independent {z_party}-slices, as a normal form has"
        )
    sub = MatrixSubspace._of_independent(slices)
    phi, v_den = _int_row(v)
    _, _, pen = _two_row_pencil(sub)
    a_rows, b_rows, dens = pen._int_form()
    # B - t*A with the constant row phi appended
    with_phi = Pencil(
        Matrix._from_ints(a_rows + [phi], dens + [v_den], k),
        Matrix._from_ints(b_rows + [[(0, 0)] * k], dens + [v_den], k),
    )
    prof = (qubit or pen).rank_profile()
    g = prof.generic_rank
    if g < k and any(with_phi.at(t).rank() > g for t in range(g + 1)):
        return 1
    # the points at the roots of one irrational factor are one entry
    for p in dict.fromkeys(prof.exceptional):
        if p.location == "infinity":
            # the rows of -A, then phi
            raised = Matrix._from_ints(b_rows + [phi], dens + [v_den], k).rank() > p.rank
        elif isinstance(p.parameter, Poly):
            raised = any(rk > p.rank for _, rk in with_phi.ranks_over(p.parameter))
        else:
            raised = with_phi.at(p.parameter).rank() > p.rank
        if raised:
            return 1
    return 2


# -- quadric profile of the product-direction locus --------------------------


def _int_combination(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i] for integer coeffs and Gaussian-integer
    vectors."""
    return [
        (sum(k * v[r][0] for k, v in zip(coeffs, vectors)),
         sum(k * v[r][1] for k, v in zip(coeffs, vectors)))
        for r in range(len(vectors[0]))
    ]


def quadric_profile(s: PureState, qubit: Pencil | None = None):
    """Projective invariant of the closure of product directions in the AB
    range (party C absent), as sampled.

    Samples the second factors (column-space vectors) of rank-one elements of
    the range subspace over sixteen fixed pencil slopes, slope infinity and
    the exceptional Gaussian-rational ones, computes the exact linear space
    of quadratic forms vanishing on all samples, and returns (dimension of
    that space, maximal rank among random members).  Exact and seeded, but
    the samples depend on the basis, so the pair is not ILO-invariant in
    general (the module docstring says where it is read).  All arithmetic is
    on Gaussian integers: the rows of A and B share one denominator
    (:func:`_two_row_pencil`), which a sample's primitive form drops.
    ``qubit``, the state's :func:`qubit_pencil`, is B - t*A, profile cached.
    """
    sub = range_subspace(s, "C")
    a_mat, b_mat, pen = _two_row_pencil(sub)
    a_rows = a_mat._int_form()[0]
    b_rows = b_mat._int_form()[0]
    rng = random.Random(4099)
    n = sub.cols
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    cap = 4 * len(pairs)
    samples: list[tuple] = []
    seen: set = set()

    def add_samples(basis, rows):
        # the basis vectors, their pairwise sums and two random combinations
        combos = list(basis)
        combos += [
            _int_combination((1, 1), (u, w)) for i, u in enumerate(basis) for w in basis[i + 1:]
        ]
        combos += [_int_combination([rng.randint(1, 5) for _ in basis], basis) for _ in range(2)]
        # their images under the rows, one per column
        for vec in zip(*_int_matmul(rows, list(zip(*combos)))):
            if len(samples) >= cap:
                return
            if any(a or b for a, b in vec):
                key = tuple(_primitive_ints(vec))
                if key not in seen:
                    seen.add(key)
                    samples.append(key)

    slopes = [0, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2),
              Fraction(3, 2), 5, -5, 7, Fraction(2, 3), -7, 11]
    # (null basis, rows mapping it to second factors): B - tA at each slope,
    # then A (slope infinity), then the exceptional Gaussian-rational slopes
    sources = [(pen.at(t), a_rows) for t in slopes]
    sources.append((a_mat, b_rows))
    profile = _rank_one_profile(sub, qubit or pen)
    if profile is not None:
        points, _ = exact_points(profile)
        sources += [(pen.at(beta), a_rows) for (alpha, beta), _ in points if alpha]
    for m, rows in sources:
        basis = [_primitive_ints(ints) for ints, _ in m._null_ints()]
        if basis:
            add_samples(basis, rows)
    if not samples:
        return (len(pairs), n)
    # one row per sample x: the coefficients x_p x_q of the quadric's
    # entries, doubled off the diagonal
    system = []
    for vec in samples:
        row = []
        for p, q in pairs:
            (a, b), (c, d) = vec[p], vec[q]
            k = 1 if p == q else 2
            row.append((k * (a * c - b * d), k * (a * d + b * c)))
        system.append(row)
    quadrics = certified_nullspace(Matrix._from_ints(system, [1] * len(system), len(pairs)))
    qdim = len(quadrics)
    if qdim == 0:
        return (0, 0)
    # the quadrics over one denominator; a member's rank ignores the scale
    den = lcm(*[d for _, d in quadrics])
    quadrics = [[(a * (den // d), b * (den // d)) for a, b in ints] for ints, d in quadrics]
    best = 0
    for _ in range(3):
        entries = _int_combination([rng.randint(1, 7) for _ in quadrics], quadrics)
        q_mat = [[(0, 0)] * n for _ in range(n)]
        for (p, q), val in zip(pairs, entries):
            q_mat[p][q] = val
            q_mat[q][p] = val
        best = max(best, Matrix._from_ints(q_mat, [1] * n, n).rank())
    return (qdim, best)
