"""Pure-state container: unfoldings, ranks, local actions, compression."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from slocc2mn.scalars import GaussianRational, ZERO, ONE
from slocc2mn.matrices import Matrix
from slocc2mn.states import PureState, compress_to_ranks, _grid
from slocc2mn.operators import random_ilo, random_invertible
from slocc2mn.families import ClassLabel, make_canonical


GHZ = make_canonical(ClassLabel("GHZ"))
W = make_canonical(ClassLabel("W"))


def unfolding(s, party):
    """The party's unfolding as a Matrix, built on the grid the kernel reads:
    rows indexed by the party, columns by the other two in A<B<C order."""
    grid = _grid(s.dims, s._ints, "ABC".index(party))
    return Matrix._from_ints(grid, [s._den] * len(grid), len(grid[0]))


def test_from_kets_amplitudes():
    assert GHZ.amps.get((0, 0, 0), ZERO) == ONE
    assert GHZ.amps.get((1, 1, 1), ZERO) == ONE
    assert GHZ.amps.get((0, 1, 1), ZERO).is_zero()


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        PureState((2, 2), {(0, 0): ONE})
    with pytest.raises(ValueError):
        PureState((2, 2, 2), {(0, 0, 2): ONE})
    with pytest.raises(ValueError):
        PureState((2, 2, 2), {})


def test_unfolding_shapes_and_entries():
    u = unfolding(GHZ, "A")
    assert u.shape() == (2, 4)
    assert u[0, 0] == ONE and u[1, 3] == ONE
    assert unfolding(GHZ, "B").shape() == (2, 4)
    s = make_canonical(ClassLabel("Psi1"))
    assert unfolding(s, "B").shape() == (3, 6)


def test_slices_recompose_unfolding():
    s = make_canonical(ClassLabel("Psi4"))
    for party in "ABC":
        u = unfolding(s, party)
        for i, sl in enumerate(s.slices(party)):
            flat = [e for row in sl.entries for e in row]
            assert list(u.entries[i]) == flat


def test_local_ranks_of_known_states():
    assert GHZ.local_ranks().as_tuple() == (2, 2, 2)
    assert W.local_ranks().as_tuple() == (2, 2, 2)
    prod = PureState.from_kets((2, 2, 2), [(0, 0, 0)])
    assert prod.local_ranks().as_tuple() == (1, 1, 1)
    bipartite = PureState.from_kets((2, 2, 2), [(0, 0, 0), (0, 1, 1)])
    assert bipartite.local_ranks().as_tuple() == (1, 2, 2)


def test_apply_local_matches_unfolding_product():
    rng = random.Random(40)
    s = make_canonical(ClassLabel("Psi6"))
    for party, dim in zip("ABC", s.dims):
        g = random_invertible(dim, rng)
        s2 = s.apply_local(party, g)
        assert unfolding(s2, party) == g @ unfolding(s, party)


def test_apply_local_rejects_annihilation():
    with pytest.raises(ValueError):
        GHZ.apply_local("A", Matrix([[ZERO, ZERO], [ZERO, ZERO]]))


def test_permute_parties_round_trip():
    s = make_canonical(ClassLabel("Theta0", 2))
    assert s.permute_parties("BCA").permute_parties("CAB") == s
    assert s.permute_parties("ABC") == s
    back = s.permute_parties("ACB").permute_parties("ACB")
    assert back == s


def test_scaling_and_scalar_equality():
    two = PureState(GHZ.dims, {idx: v * 2 for idx, v in GHZ.amps.items()})
    assert two.amps != GHZ.amps
    assert two.equals_up_to_scalar(GHZ)
    assert two == GHZ  # state equality is projective
    assert hash(two) == hash(GHZ)
    assert not W.equals_up_to_scalar(GHZ)


def test_compress_to_ranks_is_ilo_image():
    rng = random.Random(41)
    s = make_canonical(ClassLabel("Upsilon1", 2))  # 2 x 3 x 5
    # embed into larger ambient dims via zero-padding plus a random ILO
    amps = dict(s.amps)
    big = PureState((3, 4, 6), amps)
    g = random_ilo(big.dims, 99)
    messy = g.apply(big)
    comp, changes = compress_to_ranks(messy)
    assert comp.dims == messy.local_ranks().as_tuple() == (2, 3, 5)
    # replaying the recorded basis changes on the messy state reproduces the
    # compressed state inside the leading block
    cur = messy
    for party in "ABC":
        cur = cur.apply_local(party, changes[party])
    comp_amps = comp.amps
    for idx, v in cur.amps.items():
        assert all(idx[q] < comp.dims[q] for q in range(3))
        assert comp_amps.get(idx, ZERO) == v


# -- the one Gaussian-integer storage form --------------------------------------

_parts = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**24)),
)
_amps = st.one_of(
    st.just(ZERO),
    st.builds(GaussianRational, _parts),
    st.builds(GaussianRational, _parts, _parts),
)


@st.composite
def gaussian_states(draw):
    """States up to 3 x 3 x 4 with large parts and denominators, complex
    entries, zero slices and rank-deficient parties."""
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    grid = {
        (i, j, k): draw(_amps)
        for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])
    }
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.integers(0, 2))
        dst = draw(st.integers(0, dims[p] - 1))
        src = draw(st.integers(0, dims[p] - 1))
        # the slice dst of party p becomes zero or a multiple of slice src
        c = draw(_amps)
        for idx in grid:
            if idx[p] == dst:
                at_src = idx[:p] + (src,) + idx[p + 1:]
                grid[idx] = ZERO if src == dst else c * grid[at_src]
    if all(v.is_zero() for v in grid.values()):
        grid[(0, 0, 0)] = GaussianRational(draw(_parts), draw(_parts)) or ONE
    return PureState(dims, grid)


def _oracle_rref(grid):
    """Gauss-Jordan on [grid | I] in GaussianRational arithmetic, the first
    nonzero row of each column its pivot."""
    n, m = len(grid), len(grid[0])
    work = [list(row) + [ONE if j == i else ZERO for j in range(n)] for i, row in enumerate(grid)]
    pivots = []
    for c in range(m):
        k = len(pivots)
        r = next((r for r in range(k, n) if not work[r][c].is_zero()), None)
        if r is None:
            continue
        work[k], work[r] = work[r], work[k]
        inv = work[k][c].inverse()
        work[k] = [x * inv for x in work[k]]
        for r in range(n):
            f = work[r][c]
            if r != k and not f.is_zero():
                work[r] = [x - f * y for x, y in zip(work[r], work[k])]
        pivots.append(c)
        if len(pivots) == n:
            break
    return [row[:m] for row in work], pivots, [row[m:] for row in work]


def _oracle_unfolding(amps, dims, p):
    q1, q2 = [q for q in range(3) if q != p]
    grid = [[ZERO] * (dims[q1] * dims[q2]) for _ in range(dims[p])]
    for idx, v in amps.items():
        grid[idx[p]][idx[q1] * dims[q2] + idx[q2]] = v
    return grid


def _oracle_compress(s):
    """The unfolding -> RREF-with-transform -> rebuild loop on amplitudes."""
    amps, dims = s.amps, s.dims
    steps, ranks = [], []
    for p in range(3):
        u = _oracle_unfolding(amps, dims, p)
        r_rows, pivots, t_rows = _oracle_rref(u)
        steps.append((u, r_rows, t_rows, len(pivots)))
        ranks.append(len(pivots))
        q1, q2 = [q for q in range(3) if q != p]
        amps = {}
        for i, row in enumerate(r_rows):
            for col, v in enumerate(row):
                if not v.is_zero():
                    idx = [0, 0, 0]
                    idx[p] = i
                    idx[q1], idx[q2] = divmod(col, dims[q2])
                    amps[tuple(idx)] = v
    return PureState(tuple(ranks), amps), steps


def _content(s):
    return gcd(s._den, *[x for pair in s._ints.values() for x in pair])


@settings(max_examples=60, deadline=None)
@given(gaussian_states())
def test_compress_to_ranks_matches_rational_oracle(s):
    comp, changes = compress_to_ranks(s)
    expected, steps = _oracle_compress(s)
    assert comp.dims == expected.dims == s.local_ranks().as_tuple()
    assert comp.amps == expected.amps
    assert _content(comp) == 1
    # without the transforms: the same state, stored form and ranks
    bare, none = compress_to_ranks(s, transform=False)
    assert none is None
    assert bare.dims == comp.dims
    assert (bare._ints, bare._den) == (comp._ints, comp._den)
    for party, (u, r_rows, t_rows, rank) in zip("ABC", steps):
        t = changes[party]
        assert t @ Matrix(u) == Matrix(r_rows)
        assert t.entries[:rank] == tuple(tuple(row) for row in t_rows[:rank])
        # rows past the rank span the left nullspace; the kernel scales each
        # to a primitive Gaussian-integer vector
        for got, want in zip(t.entries[rank:], t_rows[rank:]):
            j = next(j for j, x in enumerate(want) if not x.is_zero())
            ratio = got[j] / want[j]
            assert list(got) == [ratio * x for x in want]
        for i, (row, d) in enumerate(zip(*t._int_form())):
            assert gcd(d, *[x for pair in row for x in pair]) == 1
            assert i < rank or d == 1


@settings(max_examples=40, deadline=None)
@given(gaussian_states(), st.integers(1, 10**12), st.sampled_from(["ABC", "BCA", "CBA"]))
def test_integer_form_is_unique_and_matches_amps(s, k, order):
    amps = s.amps
    assert _content(s) == 1
    # the same amplitudes over a denominator k times too large
    scaled = PureState._from_ints(
        s.dims, {idx: (a * k, b * k) for idx, (a, b) in s._ints.items()}, s._den * k
    )
    perm = [("ABC".index(ch)) for ch in order]
    permuted = s.permute_parties(order)
    rebuilt = PureState(
        permuted.dims, {tuple(idx[q] for q in perm): v for idx, v in amps.items()}
    )
    comp, _ = compress_to_ranks(s)
    for built, ref in ((scaled, s), (permuted, rebuilt), (comp, PureState(comp.dims, comp.amps))):
        assert built == ref and hash(built) == hash(ref)
        assert built.amps == ref.amps
        assert (built._ints, built._den) == (ref._ints, ref._den)
        assert _content(built) == 1
    for p, party in enumerate("ABC"):
        grid = _oracle_unfolding(amps, s.dims, p)
        assert unfolding(s, party) == Matrix(grid)
        q1, q2 = [q for q in range(3) if q != p]
        for i, sl in enumerate(s.slices(party)):
            expected = [[ZERO] * s.dims[q2] for _ in range(s.dims[q1])]
            for idx, v in amps.items():
                if idx[p] == i:
                    expected[idx[q1]][idx[q2]] = v
            assert sl == Matrix(expected)
    z = GaussianRational(Fraction(3, 7), 2)
    assert PureState(s.dims, {idx: v * z for idx, v in amps.items()}) == s


def test_constructed_states_share_index_tuples():
    # the public constructor interns its indices, so states of one shape hold
    # one tuple per index between them, whatever type the caller used
    s1 = PureState((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 2})
    s2 = PureState((2, 2, 2), {(True, True, True): 3, (0, 0, 0): 1})
    assert sorted(s1._ints) == sorted(s2._ints) == [(0, 0, 0), (1, 1, 1)]
    assert all(type(i) is int for idx in s2._ints for i in idx)
    assert {id(idx) for idx in s1._ints} == {id(idx) for idx in s2._ints}


# -- ranks and compression read off the integer amplitudes ---------------------


@st.composite
def padded_states(draw):
    """States of up to 2 x 4 x 8 with small complex entries, often zero, and
    zero slices, then padded with unused basis vectors and their parties
    permuted."""
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    part = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    zero = [draw(st.sets(st.integers(0, d - 1), max_size=d - 1)) for d in dims]
    ints = {
        idx: (draw(part), draw(part))
        for idx in itertools.product(*map(range, dims))
        if not any(i in z for i, z in zip(idx, zero))
    }
    ints = {idx: v for idx, v in ints.items() if v != (0, 0)} or {(0, 0, 0): (1, 0)}
    pad = [d + draw(st.integers(0, 1)) for d in dims]
    s = PureState._from_ints(tuple(pad), ints, draw(st.integers(1, 6)))
    return s.permute_parties(draw(st.sampled_from(["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"])))


def _with_unfolding(s, p, u):
    """The state of s's dims whose party-p unfolding is the Matrix u."""
    q1, q2 = [q for q in range(3) if q != p]
    rows, dens = u._int_form()
    big = lcm(*dens)
    ints = {}
    for i, (row, d) in enumerate(zip(rows, dens)):
        for col, (a, b) in enumerate(row):
            if a or b:
                idx = [0, 0, 0]
                idx[p] = i
                idx[q1], idx[q2] = divmod(col, s.dims[q2])
                ints[tuple(idx)] = (a * (big // d), b * (big // d))
    return PureState._from_ints(s.dims, ints, big)


def _stepwise_compress(s):
    """Compression as a chain of states, each rebuilt from the reduced
    unfolding of the one before: (state, basis changes)."""
    cur, ranks, changes = s, [], {}
    for p, party in enumerate("ABC"):
        r, pivots, changes[party] = unfolding(cur, party).rref()
        ranks.append(len(pivots))
        cur = _with_unfolding(cur, p, r)
    return PureState._from_ints(tuple(ranks), cur._ints, cur._den), changes


def _stored(s):
    return s.dims, list(s._ints.items()), s._den


@settings(max_examples=150, deadline=None)
@given(padded_states())
def test_local_ranks_equal_the_ranks_of_the_unfoldings(s):
    amps = s.amps
    want = tuple(Matrix(_oracle_unfolding(amps, s.dims, p)).rank() for p in range(3))
    assert s.local_ranks().as_tuple() == want == tuple(unfolding(s, p).rank() for p in "ABC")


@settings(max_examples=100, deadline=None)
@given(padded_states())
def test_compression_loop_matches_stepwise_rebuild(s):
    comp, changes = compress_to_ranks(s)
    bare, _ = compress_to_ranks(s, transform=False)
    want, want_changes = _stepwise_compress(s)
    assert _stored(bare) == _stored(comp) == _stored(want)
    assert changes == want_changes
