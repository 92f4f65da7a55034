"""Range subspaces, product-state counting, and derived invariants."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from slocc2mn.scalars import GaussianRational, ZERO, ONE
from slocc2mn.matrices import Matrix
from slocc2mn.polynomials import Poly, exact_roots_of, square_free_part
from slocc2mn.states import PureState, LocalRankProfile
from slocc2mn.operators import random_ilo
from slocc2mn import ranges
from slocc2mn.ranges import (
    MatrixSubspace,
    UnsupportedSubspaceError,
    rank_one_factor,
    count_product_states,
    exact_rank_one_in_span,
    range_subspace,
    slocc_signature,
    bc_pencil,
    partner_rank,
    quadric_profile,
    ProductWitness,
    qubit_pencil,
    _independent_slices,
)
from slocc2mn.classify import StateInvariants, canonical_invariants, _normal_form
from slocc2mn.families import (
    ClassLabel, make_canonical, all_labels_for_shape, SMALL_FAMILIES, PARAMETRIC_FAMILIES,
)
from slocc2mn.verify import random_full_rank_state, verify_theorem


def mat(rows):
    return Matrix(
        [[GaussianRational(e) for e in row] for row in rows]
    )


def subspace(*mats):
    r, c = mats[0].shape()
    return MatrixSubspace(rows=r, cols=c, basis=tuple(mats))


def member(sub, coeffs):
    """The element sum_i coeffs[i] * basis[i] of a subspace."""
    return Matrix([
        [sum((c * m[i, j] for c, m in zip(coeffs, sub.basis)), ZERO) for j in range(sub.cols)]
        for i in range(sub.rows)
    ])


def test_rank_one_factor():
    m = mat([[2, 4], [3, 6]])
    u, v = rank_one_factor(m)
    outer = Matrix([[a * b for b in v] for a in u])
    assert outer == m
    with pytest.raises(ValueError):
        rank_one_factor(Matrix([[ZERO, ZERO], [ZERO, ZERO]]))


def test_count_two_product_points_in_diagonal_span():
    # span{E00, E11}: exactly the two coordinate directions are rank one
    count = count_product_states(subspace(mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]])))
    assert count.kind == "finite" and count.count == 2
    assert count.exact
    assert len(count.witnesses) == 2


def test_pencil_count_is_square_free_degree():
    # the count is the number of distinct roots exact_roots_of accounts for,
    # Gaussian-rational and in the rest, which is the degree of the
    # square-free part
    t = Poly.linear(ZERO, ONE)
    one = Poly.constant(ONE)
    for g in (
        (t - one) * (t - one) * (t * t + one),  # repeated, Gaussian roots
        (t * t - Poly.constant(GaussianRational(2))) * (t + one),  # irrational
        (t * t * t - Poly.constant(GaussianRational(2))) * (t * t * t - Poly.constant(GaussianRational(2))),
    ):
        roots, rest = exact_roots_of(g)
        assert len(roots) + sum(f.degree for f in rest) == square_free_part(g).degree
    # 2x2 pencils: a Jordan block (det t^2) and det t^2 - 2
    jordan = count_product_states(subspace(mat([[0, 1], [0, 0]]), mat([[1, 0], [0, 1]])))
    assert jordan.count == 1 and jordan.exact
    surd = count_product_states(subspace(mat([[0, 2], [1, 0]]), mat([[1, 0], [0, 1]])))
    assert surd.count == 2 and not surd.exact


def test_count_infinite_in_shared_row_span():
    # span{E00, E01}: every element lives in one row, so all are rank <= 1
    count = count_product_states(subspace(mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]])))
    assert count.is_infinite


def test_count_single_product_point():
    # span{E00 + E11, E01}: det(a(E00+E11) + b E01) = a^2, one double point
    count = count_product_states(subspace(mat([[1, 0], [0, 1]]), mat([[0, 1], [0, 0]])))
    assert count.kind == "finite" and count.count == 1


def test_count_zero_product_points():
    # span{I, antidiag}: det = a^2 - b^2 ... has roots; use a rotation-like
    # span with irreducible determinant a^2 + b^2 over the reals but split
    # over the Gaussian rationals -> still two points; instead use 2x3 rows
    # where no combination is rank one
    s = make_canonical(ClassLabel("Psi1"))
    count = count_product_states(range_subspace(s, "A"))
    assert count.kind == "finite" and count.count == 0


def _library_labels_m2():
    labels = [ClassLabel(n) for n in SMALL_FAMILIES if not n.startswith("Phi")]
    for name in PARAMETRIC_FAMILIES:
        lo = 2 if name in ("Upsilon0", "Theta4") else 1
        labels += [ClassLabel(name, m) for m in (1, 2) if m >= lo]
    return labels


def test_witnesses_are_rank_one_members():
    # every library label with m <= 2, canonical and under two ILOs, and the
    # surd state (two irrational points each in its B and C ranges); the
    # witnesses are built when first read, from the points the count kept
    inputs = [(_surd_state(), {"B": 2, "C": 2})]
    for label in _library_labels_m2():
        s = make_canonical(label)
        inputs += [(s, {})] + [(random_ilo(s.dims, seed).apply(s), {}) for seed in (1, 2)]
    for s, irrational in inputs:
        for party in "ABC":
            sub = range_subspace(s, party)
            count = count_product_states(sub)
            if count.is_infinite:
                continue
            w = count.witnesses
            assert len(w) == count.count - irrational.get(party, 0)
            assert count.exact == (party not in irrational)
            assert count.witnesses is w
            assert count_product_states(sub).witnesses == w
            for x in w:
                elem = member(sub, x.coeffs)
                assert elem.rank() == 1
                assert Matrix([[a * b for b in x.v] for a in x.u]) == elem


def test_exact_rank_one_in_span():
    # the C range of every library label with m <= 2, canonical and under two
    # ILOs, plus a saturated one (Upsilon0(2): four slices of 2 x 2 matrices):
    # the pivot is the first point the count yields, a rank-one member
    inputs = [range_subspace(make_canonical(ClassLabel("Upsilon0", 2)), "C")]
    for label in _library_labels_m2():
        s = make_canonical(label)
        inputs += [range_subspace(s, "C")]
        inputs += [range_subspace(random_ilo(s.dims, seed).apply(s), "C") for seed in (1, 2)]
    assert inputs[0].dimension > inputs[0].cols
    assert count_product_states(inputs[0]).witnesses
    assert exact_rank_one_in_span(inputs[0]) is not None
    found = 0
    for sub in inputs:
        w = exact_rank_one_in_span(sub)
        count = count_product_states(sub)
        if count.witnesses:
            assert w == count.witnesses[0]
        if w is None:
            assert not count.witnesses
            continue
        found += 1
        elem = member(sub, w.coeffs)
        assert elem.rank() == 1
        assert Matrix([[a * b for b in w.v] for a in w.u]) == elem
    assert found > len(inputs) // 2
    # a saturated subspace with no side of length 2 (seven of the 3 x 3 unit
    # matrices) is no range of a normal form with a qubit: neither its count
    # nor a point of it is built
    units = [mat([[int((r, c) == (i, j)) for c in range(3)] for r in range(3)])
             for i in range(3) for j in range(3)]
    saturated = subspace(*units[:7])
    for read in (count_product_states, exact_rank_one_in_span):
        with pytest.raises(UnsupportedSubspaceError, match="counting not supported"):
            read(saturated)


def test_exact_rank_one_in_span_factors_one_point(monkeypatch):
    # the GHZ A range holds two product states; the pivot factors only the
    # first of them
    calls = []
    original = ranges.rank_one_factor
    monkeypatch.setattr(ranges, "rank_one_factor", lambda m: calls.append(m) or original(m))
    sub = range_subspace(make_canonical(ClassLabel("GHZ")), "A")
    assert count_product_states(sub).count == 2
    assert calls == []
    w = exact_rank_one_in_span(sub)
    assert len(calls) == 1
    assert member(sub, w.coeffs).rank() == 1


def test_signature_ghz_w():
    assert slocc_signature(make_canonical(ClassLabel("GHZ"))).render() == "[2,2,2]"
    assert slocc_signature(make_canonical(ClassLabel("W"))).render() == "[1,1,1]"


def test_signature_invariant_under_ilo():
    for label in (ClassLabel("Psi3"), ClassLabel("Upsilon1", 1)):
        s = make_canonical(label)
        ref = slocc_signature(s).key()
        for seed in (1, 2):
            g = random_ilo(s.dims, seed)
            assert slocc_signature(g.apply(s)).key() == ref
    # every label of 2x2x2 to 2x4x4 under an ILO and all six party orders:
    # the counts run on the normal form and map back to the input's party
    # order; slocc_signature takes the input itself only when it is the
    # normal form (its dims sorted), and raises for every other order
    labels = [
        label for m in (2, 3, 4) for n in range(m, 5) for label in all_labels_for_shape((2, m, n))
    ]
    assert len(labels) == 16
    mismatches = []
    for label in labels:
        s = make_canonical(label)
        s = random_ilo(s.dims, 3).apply(s)
        ref = slocc_signature(s).key()
        for order in map("".join, itertools.permutations("ABC")):
            t = s.permute_parties(order)
            inv, norm_order = _normal_form(t)
            key = inv.signature.key()
            # party q of the normal form is the input's norm_order[q]
            if tuple(key[norm_order.index(p)] for p in "ABC") != tuple(
                ref["ABC".index(p)] for p in order
            ):
                mismatches.append((label.render(), order))
            if norm_order == "ABC":
                assert slocc_signature(t).key() == key
            else:
                with pytest.raises(UnsupportedSubspaceError, match="counting not supported"):
                    slocc_signature(t)
            for party, count in zip("ABC", inv.signature.counts):
                sub = range_subspace(inv.state, party)
                for w in count.witnesses:
                    elem = member(sub, w.coeffs)
                    assert elem.rank() == 1
                    assert Matrix([[a * b for b in w.v] for a in w.u]) == elem
    assert mismatches == []


@st.composite
def qubit_states(draw):
    """2 x M x N states, 3 <= M <= N <= 2M and M <= 4, with small and often
    zero Gaussian-integer amplitudes, so that rank drops of every depth,
    irrational ones and infinite counts all occur."""
    m = draw(st.integers(3, 4))
    n = draw(st.integers(m, 2 * m))
    zeros = [0] * draw(st.integers(1, 6))
    re, im = st.sampled_from(zeros + [1, -1, 2]), st.sampled_from(zeros * 2 + [1, -1])
    amps = {}
    for idx in itertools.product(range(2), range(m), range(n)):
        z = GaussianRational(draw(re), draw(im))
        if not z.is_zero():
            amps[idx] = z
    assume(amps)
    return PureState((2, m, n), amps)


@settings(max_examples=60, deadline=None)
@given(qubit_states(), st.integers(0, 2**32 - 1))
def test_shared_profile_matches_counting_each_range(s, seed):
    # the signature read off the qubit pencil's one rank profile against each
    # range counted on its own, on the state and an ILO image: the same
    # counts, exact flags and witnesses; the pencil tiers read the profile too,
    # and their keys match those computed without it
    assume(s.local_ranks().as_tuple() == s.dims)
    for t in (s, random_ilo(s.dims, seed).apply(s)):
        inv = StateInvariants(t, LocalRankProfile(*t.dims))
        assert inv.qubit is not None
        for party, count in zip("ABC", inv.signature.counts):
            sub = range_subspace(t, party)
            oracle = count_product_states(sub)
            assert (count.key(), count.exact) == (oracle.key(), oracle.exact)
            assert count.witnesses == oracle.witnesses
            for w in count.witnesses:
                elem = member(sub, w.coeffs)
                assert elem.rank() == 1
                assert Matrix([[a * b for b in w.v] for a in w.u]) == elem
        plain = StateInvariants(t, LocalRankProfile(*t.dims))
        plain._cache["qubit"] = None  # every tier builds its own pencil
        assert inv.bc_profile_key() == plain.bc_profile_key()
        assert inv.partner_key() == plain.partner_key()
        assert inv.quadric_key() == plain.quadric_key()


@st.composite
def two_qubit_states(draw):
    """(2 x 2 x N state, planted rank-one points of its A range), N = 2, 3, 4.

    The A-slices are two rank-one matrices (points 0 and infinity), one
    rank-one matrix and a random one, two random ones, or, for N = 2, the
    pencil [[t, x], [1, t]], rank one at the roots of t^2 - x (irrational for
    x = 2, 3, 5, -2); then an ILO moves the points."""
    n = draw(st.integers(2, 4))
    entry = st.integers(-2, 2)

    def vector(size):
        return draw(st.lists(entry, min_size=size, max_size=size))

    def rank_one():
        u, v = vector(2), vector(n)
        return [[a * b for b in v] for a in u]

    def random_slice():
        return [vector(n) for _ in range(2)]

    planted = draw(st.sampled_from([0, 1, 2] + ["surd"] * (n == 2)))
    if planted == "surd":
        x = draw(st.sampled_from([2, 3, 5, -2, -1, 1]))
        slices = [[[0, x], [1, 0]], [[1, 0], [0, 1]]]
        planted = 2
    else:
        slices = [rank_one() for _ in range(planted)] + [random_slice() for _ in range(2 - planted)]
    amps = {
        (i, j, k): GaussianRational(x)
        for i, sl in enumerate(slices) for j, row in enumerate(sl) for k, x in enumerate(row) if x
    }
    assume(amps)
    s = PureState((2, 2, n), amps)
    assume(s.local_ranks().as_tuple() == s.dims)
    return random_ilo(s.dims, draw(st.integers(0, 2**32 - 1))).apply(s), planted


@settings(max_examples=100, deadline=None)
@given(two_qubit_states())
def test_shared_b_count_matches_counting_the_b_range(planted_state):
    # the B count of a full-rank 2 x 2 x N state is read off its A count; it
    # equals the B range counted on its own, point for point
    s, planted = planted_state
    a_count, b_count, _ = slocc_signature(s).counts
    sub = range_subspace(s, "B")
    oracle = count_product_states(sub)
    assert (b_count.kind, b_count.count, b_count.exact) == (oracle.kind, oracle.count, oracle.exact)
    assert (a_count.kind, a_count.count, a_count.exact) == (oracle.kind, oracle.count, oracle.exact)
    assert a_count.count >= planted
    # the same projective points, (1, t) or (0, 1), each a rank-one member
    assert {w.coeffs for w in b_count.witnesses} == {w.coeffs for w in oracle.witnesses}
    assert len(b_count.witnesses) == len(oracle.witnesses)
    for w in b_count.witnesses:
        elem = member(sub, w.coeffs)
        assert elem.rank() == 1
        assert Matrix([[a * b for b in w.v] for a in w.u]) == elem


_SATURATED_C_SHAPES = ((2, 2, 3), (2, 2, 4), (2, 3, 4), (2, 3, 5), (2, 3, 6))


@st.composite
def saturated_c_states(draw):
    """A full-rank 2 x M x N state, N > M, of the shapes above: a canonical
    library state or a random one, then possibly moved by an ILO."""
    dims = draw(st.sampled_from(_SATURATED_C_SHAPES))
    labels = all_labels_for_shape(dims)
    pick = draw(st.sampled_from(labels + ["random"]))
    if pick == "random":
        s = random_full_rank_state(dims, random.Random(draw(st.integers(0, 2**32 - 1))))
    else:
        s = make_canonical(pick)
    assume(s.local_ranks().as_tuple() == dims)
    if draw(st.booleans()):
        s = random_ilo(dims, draw(st.integers(0, 2**32 - 1))).apply(s)
    return s


@settings(max_examples=60, deadline=None)
@given(saturated_c_states())
def test_saturated_c_count_matches_counting_the_c_range(s):
    # more C slices than columns: the signature's C count is infinite, as
    # counting the range on its own says
    c_count = slocc_signature(s).counts[2]
    oracle = count_product_states(range_subspace(s, "C"))
    assert c_count.kind == oracle.kind == "infinite"
    # its first point is a rank-one member of the range its slices span
    sub = range_subspace(s, "C", s.dims[2])
    w = next(c_count.points())
    elem = member(sub, w.coeffs)
    assert elem.rank() == 1
    assert Matrix([[a * b for b in w.v] for a in w.u]) == elem


def test_bc_pencil_shape():
    s = make_canonical(ClassLabel("Theta2", 2))  # 2 x 4 x 6
    pen = bc_pencil(s)
    assert pen.shape() == (4, 6)


def test_partner_rank_multiset_separates_psi3_psi5():
    p3 = make_canonical(ClassLabel("Psi3"))
    p5 = make_canonical(ClassLabel("Psi5"))
    assert slocc_signature(p3).key() == slocc_signature(p5).key()
    # the A-range partner ranks
    assert StateInvariants(p3).partner_key()[0] != StateInvariants(p5).partner_key()[0]


def _state_from_slices(party_slices, dims):
    """The 2 x M x N state whose slice i of the first party is party_slices[i]."""
    amps = {}
    for i, m in enumerate(party_slices):
        for r, row in enumerate(m):
            for c, x in enumerate(row):
                if x:
                    amps[(i, r, c)] = GaussianRational(x)
    return PureState(dims, amps)


def _surd_state():
    # A-slices T0 = [[0,2,0],[1,0,0],[0,0,1]], T1 = diag(1,1,0):
    # det(T0 + t T1) = t^2 - 2, so two rank drops sit at irrational roots
    return _state_from_slices([[[0, 2, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]], (2, 3, 3))


def test_surd_state_signature_and_profile_are_exact():
    s = _surd_state()
    assert bc_pencil(s).rank_profile().key() == (3, (2, 2, 2))
    sig = slocc_signature(s)
    assert sig.render() == "[0,3,3]"
    # a_B and a_C each count two irrational points, which have no witness
    assert [c.exact for c in sig.counts] == [True, False, False]
    assert [len(c.witnesses) for c in sig.counts] == [0, 1, 1]


class _WitnessBuilt(Exception):
    pass


def test_counting_builds_no_witness(monkeypatch):
    # a count keeps its points and builds no witness until one is read: the
    # signatures and theorem 2's sweep succeed with both witness builders
    # raising, and the partner tier still reaches them.  The canonical
    # table's own witnesses are read first, as its fill reads them.
    for inv in canonical_invariants((2, 3, 3)).values():
        inv.partner_key()

    def built(*args):
        raise _WitnessBuilt

    monkeypatch.setattr(ranges, "rank_one_factor", built)
    monkeypatch.setattr(ranges, "_slope_witness", built)
    states = [make_canonical(ClassLabel(f"Psi{i}")) for i in range(1, 7)] + [_surd_state()]
    assert [slocc_signature(s).render() for s in states] == [
        "[0,3,3]", "[0,inf,inf]", "[1,inf,inf]", "[0,1,1]", "[1,inf,inf]", "[0,2,2]", "[0,3,3]"
    ]
    assert verify_theorem("2", trials=3, seed=0)["ok"] is True
    with pytest.raises(_WitnessBuilt):
        StateInvariants(make_canonical(ClassLabel("Upsilon1", 1))).partner_key()


def _two_row_basis(m0, m1):
    """Basis 2 x K matrices whose two-row pencil B - t*A is m0 + t*m1 (K x k):
    row 0 of element i is column i of A = -m1, row 1 is column i of B = m0."""
    k = len(m0[0])
    return [mat([[-row[i] for row in m1], [row[i] for row in m0]]) for i in range(k)]


def test_irrational_slope_of_nullity_two_counts_infinite():
    # two blocks [[t, 2], [1, t]]: both drop to rank 1 at t = +-sqrt 2, so
    # each of those slopes carries a two-dimensional rank-one family
    m0 = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    m1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    count = count_product_states(subspace(*_two_row_basis(m0, m1)))
    assert count.is_infinite
    # one block, and a column that never vanishes: one null direction at
    # each root, so two points, neither with a Gaussian-rational witness
    count = count_product_states(subspace(*_two_row_basis(*SURD_4X3)))
    assert count.kind == "finite" and count.count == 2 and not count.exact


# the pencil [[t,2,0],[1,t,0],[0,0,1],[0,0,t]] as (constant part, t part):
# rank 3 except at t = +-sqrt 2, where its null vector is (2, -t, 0)
SURD_4X3 = (
    [[0, 2, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 1]],
)


def test_partner_rank_decided_at_irrational_slope():
    # C-slices whose two-row pencil is SURD_4X3: rank-one elements only at
    # t = +-sqrt 2.  The functional phi(c) = c . v is nonzero on the null
    # vector (2, -t, 0) there iff (v0, v1) != 0.
    slices = _two_row_basis(*SURD_4X3)  # 2 x 4 matrices over (A, B), one per C index
    s = PureState((2, 4, 3), {
        (a, b, c): slices[c][a, b]
        for a in range(2) for b in range(4) for c in range(3) if not slices[c][a, b].is_zero()
    })
    sub = range_subspace(s, "B")  # witnesses there carry a C-factor v
    assert sub.rows == 2

    def rank_for(v):
        w = ProductWitness(coeffs=(), u=(), v=tuple(GaussianRational(x) for x in v))
        return partner_rank(s, "B", w)

    assert rank_for((1, 0, 0)) == 1
    assert rank_for((0, 1, 0)) == 1
    assert rank_for((0, 0, 1)) == 2


def _partner_rank_of_pencil(m0, m1, phi):
    """partner_rank for the state whose C-slices have the two-row pencil
    m0 + t*m1 (K x k, generic rank below k), with C-factor phi."""
    slices = _two_row_basis(m0, m1)
    k = len(slices)
    kk = slices[0].cols
    s = PureState((2, kk, k), {
        (a, b, c): slices[c][a, b]
        for a in range(2) for b in range(kk) for c in range(k) if not slices[c][a, b].is_zero()
    })
    w = ProductWitness(coeffs=(), u=(), v=tuple(GaussianRational(x) for x in phi))
    return partner_rank(s, "B", w)


def test_partner_rank_on_pencils_singular_at_every_slope():
    # Each pencil has a nullvector at every slope; phi raises the rank of
    # B - t*A (appended as a row) where it is nonzero on the nullspace.
    # [[5 - t, 0, 0], [0, 5 - t, t]]: generic kernel (0, t, t - 5); at t = 5
    # the kernel gains e0, so phi = e0 raises the rank there only
    jump_at_5 = ([[5, 0, 0], [0, 5, 0]], [[-1, 0, 0], [0, -1, 1]])
    assert _partner_rank_of_pencil(*jump_at_5, (1, 0, 0)) == 1
    # [[1, t, 0, 0], [0, 0, t, 2], [0, 0, 1, t]]: generic kernel (t, -1, 0, 0);
    # at t = +-sqrt 2 it gains (0, 0, 2, -t), on which phi = e2 is 2
    jump_at_surds = (
        [[1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    assert _partner_rank_of_pencil(*jump_at_surds, (0, 0, 1, 0)) == 1
    # [[1, 0, 0], [0, 1, t]]: generic kernel (0, -t, 1); at infinity (A) the
    # kernel is span{e0, e1}.  phi = e0 is nonzero there only; phi = e1 is
    # nonzero on the generic kernel except at t = 0
    jump_at_infinity = ([[1, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 1]])
    assert _partner_rank_of_pencil(*jump_at_infinity, (1, 0, 0)) == 1
    assert _partner_rank_of_pencil(*jump_at_infinity, (0, 1, 0)) == 1
    # adding the row [t, 0, 0] removes the jump at infinity: the rank is 2 at
    # every slope, the kernel (0, -t, 1) or e1 at infinity, and phi = e0 is
    # zero on all of them
    no_jump = ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert _partner_rank_of_pencil(*no_jump, (1, 0, 0)) == 2
    assert _partner_rank_of_pencil(*no_jump, (0, 1, 0)) == 1


def test_partner_rank_needs_independent_slices():
    # a C party padded by one unused index has a zero C-slice, so the slices
    # are dependent, which no normal form's are
    base = make_canonical(ClassLabel("Psi1"))
    padded = PureState((2, 3, 4), dict(base.amps))
    w = ProductWitness(coeffs=(), u=(), v=(ONE, ZERO, ZERO, ZERO))
    for party in ("A", "B"):
        with pytest.raises(UnsupportedSubspaceError, match="independent C-slices"):
            partner_rank(padded, party, w)


def test_quadric_profile_deterministic_and_invariant():
    # invariant on Theta4 and Theta5, the pair the classifier reads it for;
    # not on every label (see QUADRIC_VALUES)
    s = make_canonical(ClassLabel("Theta4", 2))
    ref = quadric_profile(s)
    assert quadric_profile(s) == ref
    g = random_ilo(s.dims, 3)
    assert quadric_profile(g.apply(s)) == ref


def test_subspace_element_and_dimension():
    sub = subspace(mat([[1, 0], [0, 0]]), mat([[0, 0], [0, 1]]))
    assert sub.dimension == 2
    assert member(sub, (GaussianRational(2), GaussianRational(-3))) == mat([[2, 0], [0, -3]])


def test_independent_slices_match_greedy_choice():
    # one elimination's pivot columns pick the same slices as adding each
    # slice whose stack with the ones kept so far gains rank
    rng = random.Random(41)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        pool = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["random", "zero", "repeat", "combination"])
            if kind == "zero" or not pool and kind != "random":
                pool.append(Matrix([[ZERO] * cols for _ in range(rows)]))
            elif kind == "repeat":
                pool.append(rng.choice(pool))
            elif kind == "combination":
                a, b = rng.choice(pool), rng.choice(pool)
                x = GaussianRational(rng.randint(-2, 2), 1)
                y = GaussianRational(1, rng.randint(1, 3)) / rng.randint(1, 4)
                pool.append(Matrix([[p * x + q * y for p, q in zip(ra, rb)]
                                    for ra, rb in zip(a.entries, b.entries)]))
            else:
                pool.append(Matrix([
                    [GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) / rng.randint(1, 3)
                     for _ in range(cols)]
                    for _ in range(rows)
                ]))
        chosen, kept = [], []
        for j, m in enumerate(pool):
            trial = kept + [m]
            if not m.is_zero() and Matrix([[e for row in x.entries for e in row] for x in trial]).rank() == len(trial):
                chosen.append(j)
                kept.append(m)
        idx, mats = _independent_slices(pool)
        assert list(idx) == chosen
        assert list(mats) == kept


# quadric_profile of each canonical state, then of its images under
# random_ilo seeds 1, 2 and 3: every library label with parameter <= 4, the
# benchmark's large labels and both Phi examples.  The classifier's canonical
# tables and verdicts read these values, so a change to the tier's sampling
# (its order, its random draws, its arithmetic) must leave them as they are.
# The rows whose columns differ show that the pair is not ILO-invariant.
QUADRIC_VALUES = {
    "GHZ": ((1, 2), (1, 2), (1, 2), (1, 2)),
    "W": ((2, 2), (2, 2), (2, 2), (2, 2)),
    "Psi1": ((3, 3), (3, 3), (3, 3), (3, 3)),
    "Psi2": ((5, 3), (5, 3), (5, 3), (5, 3)),
    "Psi3": ((2, 2), (2, 2), (2, 2), (2, 2)),
    "Psi4": ((5, 3), (5, 3), (5, 3), (5, 3)),
    "Psi5": ((3, 2), (3, 2), (3, 2), (3, 2)),
    "Psi6": ((4, 3), (4, 3), (4, 3), (4, 3)),
    "Upsilon0(2)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon0(3)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon0(4)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon0(6)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon1(1)": ((0, 0), (0, 0), (2, 2), (2, 2)),
    "Upsilon1(2)": ((0, 0), (0, 0), (3, 2), (3, 2)),
    "Upsilon1(3)": ((0, 0), (0, 0), (4, 2), (4, 2)),
    "Upsilon1(4)": ((0, 0), (0, 0), (5, 2), (5, 2)),
    "Upsilon2(1)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon2(2)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon2(3)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon2(4)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Upsilon2(5)": ((0, 0), (0, 0), (0, 0), (0, 0)),
    "Theta0(1)": ((1, 2), (3, 2), (5, 3), (5, 3)),
    "Theta0(2)": ((1, 2), (4, 2), (7, 4), (7, 4)),
    "Theta0(3)": ((1, 2), (5, 2), (9, 4), (9, 4)),
    "Theta0(4)": ((1, 2), (6, 2), (11, 4), (11, 4)),
    "Theta1(1)": ((0, 0), (0, 0), (5, 3), (5, 3)),
    "Theta1(2)": ((0, 0), (0, 0), (7, 4), (7, 4)),
    "Theta1(3)": ((0, 0), (0, 0), (9, 4), (9, 4)),
    "Theta1(4)": ((0, 0), (0, 0), (11, 4), (11, 4)),
    "Theta2(1)": ((1, 2), (3, 2), (3, 2), (3, 2)),
    "Theta2(2)": ((4, 2), (4, 2), (4, 2), (4, 2)),
    "Theta2(3)": ((5, 2), (5, 2), (5, 2), (5, 2)),
    "Theta2(4)": ((6, 2), (6, 2), (6, 2), (6, 2)),
    "Theta3(1)": ((3, 2), (3, 2), (5, 3), (5, 3)),
    "Theta3(2)": ((4, 2), (4, 2), (7, 4), (7, 4)),
    "Theta3(3)": ((5, 2), (5, 2), (9, 4), (9, 4)),
    "Theta3(4)": ((6, 2), (6, 2), (11, 4), (11, 4)),
    "Theta4(2)": ((1, 4), (1, 4), (1, 4), (1, 4)),
    "Theta4(3)": ((1, 4), (1, 4), (1, 4), (1, 4)),
    "Theta4(4)": ((1, 4), (1, 4), (1, 4), (1, 4)),
    "Theta5(1)": ((1, 3), (1, 3), (1, 3), (1, 3)),
    "Theta5(2)": ((1, 3), (1, 3), (1, 3), (1, 3)),
    "Theta5(3)": ((1, 3), (1, 3), (1, 3), (1, 3)),
    "Theta5(4)": ((1, 3), (1, 3), (1, 3), (1, 3)),
    "Phi0Example": ((3, 2), (3, 2), (3, 2), (3, 2)),
    "Phi1Example": ((4, 2), (4, 2), (4, 2), (4, 2)),
}


def test_quadric_profile_pinned_values():
    wrong = {}
    for text, want in QUADRIC_VALUES.items():
        base = make_canonical(ClassLabel.parse(text))
        got = (quadric_profile(base),) + tuple(
            quadric_profile(random_ilo(base.dims, seed).apply(base)) for seed in (1, 2, 3)
        )
        if got != want:
            wrong[text] = got
    assert wrong == {}


def test_quadric_profile_does_no_gaussian_rational_arithmetic(monkeypatch):
    state = make_canonical(ClassLabel("Theta5", 4))
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        original = getattr(GaussianRational, name)
        monkeypatch.setattr(
            GaussianRational, name,
            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args),
        )
    GaussianRational(1) * GaussianRational(2)  # the counter is live
    assert calls == ["__mul__"]
    calls.clear()
    assert quadric_profile(state) == (1, 3)
    assert calls == []


# -- counts read off the integer amplitudes -------------------------------------


@st.composite
def padded_normal_forms(draw):
    """Normal forms of 2 x M x N states, M <= 4, N <= 8, with small complex
    entries, often zero, and zero slices, given padded with unused basis
    vectors and with their parties permuted."""
    m = draw(st.sampled_from([2, 3, 4, 4]))
    dims = (2, m, draw(st.integers(m, 8)))
    part = st.sampled_from([0, 0, 1, -1, 2])
    zero = draw(st.sets(st.integers(0, dims[2] - 1), max_size=2))
    ints = {
        idx: (draw(part), draw(part))
        for idx in itertools.product(*map(range, dims)) if idx[2] not in zero
    }
    ints = {idx: v for idx, v in ints.items() if v != (0, 0)}
    assume(ints)
    pad = tuple(d + draw(st.integers(0, 1)) for d in dims)
    s = PureState._from_ints(pad, ints, draw(st.integers(1, 6)))
    s = s.permute_parties(draw(st.sampled_from(["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"])))
    norm = _normal_form(s)[0].state
    assume(norm.dims[0] == 2)
    return norm


def _eager_counts(s):
    """The three counts of a normal form with every range basis sliced
    first, and the qubit pencil taken from the C range's two-row pencil."""
    subs = [range_subspace(s, party, rank) for party, rank in zip("ABC", s.dims)]
    if s.dims[1] >= 3:
        pen = ranges._two_row_pencil(subs[2])[2]
        return (ranges._count_pencil_span(subs[0], pen),
                ranges._count_two_row(subs[1], pen), ranges._count_two_row(subs[2], pen))
    a_count = count_product_states(subs[0])
    return a_count, ranges._shared_count(a_count, s), count_product_states(subs[2])


@settings(max_examples=60, deadline=None)
@given(padded_normal_forms())
def test_qubit_pencil_read_off_the_amplitudes(s):
    pen = qubit_pencil(s, LocalRankProfile(*s.dims))
    if s.dims[1] < 3:
        assert pen is None
        return
    want = ranges._two_row_pencil(range_subspace(s, "C", s.dims[2]))[2]
    assert pen._int_form() == want._int_form()


@settings(max_examples=100, deadline=None)
@given(padded_normal_forms())
def test_signature_counts_match_eager_range_counts(s):
    for count, want in zip(slocc_signature(s).counts, _eager_counts(s)):
        assert (count.kind, count.count, count.exact) == (want.kind, want.count, want.exact)
        assert next(count.points(), None) == next(want.points(), None)
