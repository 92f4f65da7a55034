"""Verification layer: obstruction argument, table re-derivations, censuses."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from slocc2mn.classify import decide_equivalence
from slocc2mn.families import ClassLabel, make_canonical
from slocc2mn.matrices import Matrix
from slocc2mn.ranges import slocc_signature
from slocc2mn.scalars import GaussianRational, ZERO
from slocc2mn.states import PureState
from slocc2mn import verify
from slocc2mn.verify import (
    term_rank,
    verify_appendix_theta45,
    verify_theorem,
    random_full_rank_state,
)

# three patterns of admissible 2x2 block entries: all four nonzero, x = 0, y = 0
OBSTRUCTION_CASES = ("wxyz_nonzero", "x_zero", "y_zero")


def test_term_rank_basic():
    assert term_rank([[True, False], [False, True]]) == 2
    assert term_rank([[True, True], [True, True]]) == 2
    assert term_rank([[True, True], [False, False]]) == 1
    assert term_rank([[False, False], [False, False]]) == 0
    # one shared column only: matching size 1
    assert term_rank([[True, False], [True, False]]) == 1


def test_term_rank_bounds_matrix_rank():
    rng = random.Random(60)
    from slocc2mn.matrices import Matrix

    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        grid = [
            [GaussianRational(rng.choice((0, 0, 1, 2, -1))) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = Matrix(grid)
        support = [[not e.is_zero() for e in row] for row in grid]
        assert m.rank() <= term_rank(support)


def _rational_obstruction_system(m, w, x, y, z) -> Matrix:
    """The obstruction constraints built from GaussianRational entries; the
    (numerator, denominator) pairs of the entries are read as fractions."""
    w, x, y, z = (GaussianRational(Fraction(p, q)) for p, q in (w, x, y, z))
    width = m + 2
    rows = []

    def eq(terms):
        row = [ZERO] * (3 * width)
        for coeff, r, i in terms:
            row[r * width + i] = row[r * width + i] + coeff
        rows.append(row)

    for i in list(range(1, m - 1)) + [m, m + 1]:
        eq([(y, 2, i), (-w, 1, i)])
        eq([(y, 1, i), (-w, 0, i)])
    for i in range(m):
        eq([(z, 2, i), (-x, 1, i)])
        eq([(z, 1, i), (-x, 0, i)])
    eq([(z, 2, m), (y, 2, m - 1), (-x, 1, m), (-w, 1, m - 1)])
    eq([(z, 1, m), (y, 1, m - 1), (-x, 0, m), (-w, 0, m - 1)])
    return Matrix(rows)


def test_obstruction_diagonal_operator_forces_zero_rows():
    # w = z = 1, x = y = 0: the constraints leave free only operator row m-1
    # at column 0 and row m+1 at column m+1, and force row m to vanish, so
    # the nullspace support has term rank 2
    m = 2
    system = _rational_obstruction_system(m, (1, 1), (0, 1), (0, 1), (1, 1))
    basis = system.nullspace()
    width = m + 2
    support = [
        [any(not vec[r * width + i].is_zero() for vec in basis) for i in range(width)]
        for r in range(3)
    ]
    assert support == [
        [True, False, False, False],
        [False, False, False, False],
        [False, False, False, True],
    ]
    assert term_rank(support) == 2


def _nullspace_support(m, entries):
    """Which unknowns of the oracle system some solution leaves nonzero:
    entry [r][i] is operator row m-1+r at column i."""
    width = m + 2
    basis = _rational_obstruction_system(m, *entries).nullspace()
    return [
        [any(not v[r * width + i].is_zero() for v in basis) for i in range(width)]
        for r in range(3)
    ]


def _chain_support(m, x, y):
    """The support the proof leaves for entries x, y (numerator, denominator
    pairs): column 0 carries c_zx = -(z^2, xz, x^2), column m+1 carries
    c_yw = -(y^2, wy, w^2), and every other column is zero."""
    cols = [[True, bool(x[0]), bool(x[0])]] + [[False] * 3] * m + [[bool(y[0]), bool(y[0]), True]]
    return [list(row) for row in zip(*cols)]


def test_integer_obstruction_support_matches_rational_nullspace():
    # admissible rational draws of all three cases: the oracle's nullspace
    # lies in columns 0 and m+1, on the supports of the chains' null vectors
    rng = random.Random(62)
    for m in range(2, 9):
        for case in OBSTRUCTION_CASES:
            for _ in range(6):
                w, x, y, z = _admissible_entries(case, rng)
                assert _nullspace_support(m, (w, x, y, z)) == _chain_support(m, x, y)


@st.composite
def _integer_operator_entries(draw):
    """Integer (w, x, y, z) in [-9, 9] with w, z != 0 and w z != x y, as the
    (numerator, denominator) pairs the verifier reads; x = 0 or y = 0 is
    drawn a third of the time each."""
    w = draw(st.integers(-9, 9).filter(bool))
    z = draw(st.integers(-9, 9).filter(bool))
    zero = draw(st.sampled_from(("neither", "x", "y")))
    x = 0 if zero == "x" else draw(st.integers(-9, 9))
    y = 0 if zero == "y" else draw(st.integers(-9, 9))
    assume(w * z != x * y)
    return (w, 1), (x, 1), (y, 1), (z, 1)


# a red run, shrinking m and four integers of at most 9, took about 7 s on a
# 2-core host: the default shrinker needs no tighter budget
@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 6), entries=_integer_operator_entries())
def test_block_support_matches_whole_rational_nullspace(m, entries):
    # the chains' null vectors give the same support as the whole system's
    # nullspace over GaussianRational entries: nothing off columns 0, m+1
    support = _nullspace_support(m, entries)
    assert support == _chain_support(m, entries[1], entries[2])
    assert term_rank(support) == 2


def _singular_entries():
    """(w, x, y, z) with w, z != 0 and w z = x y, as (numerator, denominator)
    pairs: every such integer block in [-3, 3], and a few rational ones."""
    out = []
    for w, x, y, z in itertools.product(range(-3, 4), repeat=4):
        if w and z and w * z == x * y:
            out.append(((w, 1), (x, 1), (y, 1), (z, 1)))
    for w, x, z in ((Fraction(1, 2), Fraction(-2, 3), Fraction(3)),
                    (Fraction(-3, 2), Fraction(1, 3), Fraction(2, 3))):
        y = w * z / x
        out.append(tuple((v.numerator, v.denominator) for v in (w, x, y, z)))
    return out


@pytest.mark.parametrize("m", range(2, 7))
def test_support_matches_rational_nullspace_where_wz_equals_xy(m):
    # with w z = x y the chains' null vectors are parallel and the joined
    # block's determinant vanishes: the oracle's nullspace reaches every
    # cell, whose term rank is 3, so the proof's domain excludes these blocks
    full = [[True] * (m + 2)] * 3
    for entries in _singular_entries():
        assert _nullspace_support(m, entries) == full
    assert term_rank(full) == 3


def test_appendix_report_structure_and_success():
    rep = verify_appendix_theta45(2, trials=5, seed=1)
    assert rep["ok"] and rep["method"] == "proved"
    assert (rep["m"], rep["trials"], rep["seed"]) == (2, 5, 1)
    assert rep["identities"] == {
        "chain_null_vectors": True,
        "joined_determinant": True,
        "cross_product": True,
    }
    assert rep["term_rank"] == 2
    assert "w, z != 0 and wz != xy" in rep["domain"]
    assert all(case in rep["domain"] for case in OBSTRUCTION_CASES)
    assert "w = 0 or z = 0" in rep["outside_claim"]


def test_appendix_proof_reads_neither_trials_nor_seed(monkeypatch):
    # nothing is drawn, so the report is the same for every trials and seed
    # but for their echo
    def no_draws(*args):
        raise AssertionError("the proof drew a random number")

    for name in ("random", "getrandbits", "randint", "seed"):
        monkeypatch.setattr(random.Random, name, no_draws)
    for m in (2, 3, 7):
        base = verify_appendix_theta45(m)
        for trials, seed in ((1, 0), (30, 5), (1000, 123)):
            rep = verify_appendix_theta45(m, trials=trials, seed=seed)
            assert {**rep, "trials": 100, "seed": 0} == base


@pytest.mark.parametrize("which", [0, 1])
def test_appendix_fails_on_a_mutated_chain_vector(monkeypatch, which):
    # two entries of c_zx, or of c_yw, swapped: the identities no longer
    # hold, and the report says so
    chain_null_vectors = verify._chain_null_vectors

    def mutated(w, x, y, z):
        vectors = list(chain_null_vectors(w, x, y, z))
        a, b, c = vectors[which]
        vectors[which] = (b, a, c)
        return tuple(vectors)

    monkeypatch.setattr(verify, "_chain_null_vectors", mutated)
    rep = verify_appendix_theta45(3)
    assert rep["ok"] is False
    assert rep["identities"]["chain_null_vectors"] is False
    assert verify_theorem("4", m_parameter=2, trials=1)["ok"] is False


def test_appendix_rejects_small_m():
    with pytest.raises(ValueError):
        verify_appendix_theta45(1)
    with pytest.raises(ValueError):
        verify_appendix_theta45(2, trials=0)


def test_random_full_rank_state():
    rng = random.Random(61)
    for dims in ((2, 2, 3), (2, 3, 4)):
        s = random_full_rank_state(dims, rng)
        assert s.dims == dims
        assert s.local_ranks().as_tuple() == dims


@pytest.mark.parametrize("dims", [(2, 2, 5), (5, 2, 2), (2, 7, 3), (1, 2, 3)])
def test_random_full_rank_state_rejects_shapes_without_one(dims):
    # one dim above the product of the other two: no local-rank profile can
    # equal the dims, so the sampler raises before it draws anything
    rng = random.Random(62)
    before = rng.getstate()
    with pytest.raises(ValueError):
        random_full_rank_state(dims, rng)
    assert rng.getstate() == before


def _oracle_full_rank_state(dims, rng):
    """The census sampler on GaussianRational amplitudes: one
    randint(-3, 3) / randint(1, 3) draw per index, retried until every local
    rank is full."""
    while True:
        amps = {}
        for idx in itertools.product(*map(range, dims)):
            v = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if not v.is_zero():
                amps[idx] = v
        if amps:
            s = PureState(dims, amps)
            if s.local_ranks().as_tuple() == dims:
                return s


def test_random_full_rank_state_matches_scalar_oracle():
    for dims in ((2, 2, 3), (2, 2, 4), (2, 3, 6)):
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(2):
                got = random_full_rank_state(dims, rng)
                want = _oracle_full_rank_state(dims, ref_rng)
                assert got.amps == want.amps
                assert (got._ints, got._den) == (want._ints, want._den)
            assert rng.getstate() == ref_rng.getstate()


def _randint_full_rank_state(dims, rng):
    """The census sampler as drawn with ``rng.randint``: numerator, then
    denominator, per index in row-major order, retried until every local
    rank is full."""
    while True:
        ints = {}
        for idx in itertools.product(*map(range, dims)):
            n = rng.randint(-3, 3)
            ints[idx] = (n * (6 // rng.randint(1, 3)), 0)
        if any(a for a, _ in ints.values()):
            s = PureState._from_ints(dims, ints, 6)
            if s.local_ranks().as_tuple() == dims:
                return s


def _randint_rational(rng, nonzero=False):
    while True:
        p, q = rng.randint(-3, 3), rng.randint(1, 3)
        if p or not nonzero:
            return p, q


def _admissible_entries(case, rng):
    """Entries (w, x, y, z) of a 2x2 block of the case, as (numerator,
    denominator) pairs with w, z != 0 and w z != x y."""
    while True:
        w = _randint_rational(rng, nonzero=True)
        z = _randint_rational(rng, nonzero=True)
        if case == "wxyz_nonzero":
            x = _randint_rational(rng, nonzero=True)
            y = _randint_rational(rng, nonzero=True)
        elif case == "x_zero":
            x, y = (0, 1), _randint_rational(rng)
        else:
            y, x = (0, 1), _randint_rational(rng)
        if w[0] * z[0] * x[1] * y[1] != x[0] * y[0] * w[1] * z[1]:
            return w, x, y, z


def test_bit_sampler_keeps_the_randint_stream():
    # the getrandbits draws follow randint's rejection rule, so the values
    # and the generator's state after them match randint's draws
    for seed in range(50):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for dims in ((2, 2, 3), (2, 2, 4), (2, 3, 6), (3, 3, 3)):
            got = random_full_rank_state(dims, rng)
            want = _randint_full_rank_state(dims, ref_rng)
            assert (got._ints, got._den) == (want._ints, want._den)
        assert rng.getstate() == ref_rng.getstate()


def test_verify_theorem_2_structure():
    rep = verify_theorem("2", trials=30, seed=0)
    assert rep["ok"]
    assert len(rep["families"]) == 6
    assert all(f["signature_matches"] for f in rep["families"])
    assert len(rep["pairs"]) == 15
    assert rep["all_pairs_inequivalent"]
    assert rep["expression_sweep"]["ok"]


def test_verify_theorem_3_boundary_value_rederived():
    rep = verify_theorem("3", m_parameter=1, trials=5, seed=0)
    assert rep["ok"]
    fam = {f["label"]: f for f in rep["families"]}
    # at the 2x2x3 boundary the first family's computed signature differs
    # from the bracket displayed for general m; the re-derived value wins
    assert fam["Upsilon1(1)"]["signature"] == "[1,1,inf]"
    assert fam["Upsilon2(1)"]["signature"] == "[0,0,inf]"


def test_verify_theorem_3_generic_m():
    for m in (2, 3):
        rep = verify_theorem("3", m_parameter=m, trials=5, seed=0)
        assert rep["ok"]
        fam = {f["label"]: f for f in rep["families"]}
        assert fam[f"Upsilon1({m})"]["signature"] == "[0,1,inf]"


def test_verify_theorem_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_theorem("3", m_parameter=9)
    with pytest.raises(ValueError):
        verify_theorem("4", m_parameter=1)
    with pytest.raises(ValueError):
        verify_theorem("upsilon0", m_parameter=1)
    with pytest.raises(ValueError):
        verify_theorem("nope")


def test_verify_theorem_rejects_zero_trials():
    for which, m in (("2", None), ("3", 2), ("two_by_two_by_three", None), ("upsilon0", 2)):
        with pytest.raises(ValueError):
            verify_theorem(which, m_parameter=m, trials=0)
    with pytest.raises(ValueError):
        verify_theorem("2", trials=-1)


@pytest.mark.parametrize(
    "which, m", [("2", None), ("3", 1), ("3", 2), ("3", 3), ("4", 2), ("4", 3)]
)
def test_theorem_tables_match_fresh_invariants(which, m):
    """Rows read from the canonical invariant table equal a from-scratch run."""
    rep = verify_theorem(which, m_parameter=m, trials=1, seed=0)
    for fam in rep["families"]:
        state = make_canonical(ClassLabel.parse(fam["label"]))
        assert fam["signature"] == slocc_signature(state).render()
    for pair in rep["pairs"]:
        a, b = (make_canonical(ClassLabel.parse(x)) for x in pair["pair"])
        fresh = decide_equivalence(a, b)
        assert pair["verdict"] == fresh.kind
        assert pair["separated_by"] == fresh.separating_invariant


def test_expression_sweep_compresses_each_distinct_state_once(monkeypatch):
    built, compressed = [], []
    make, compress = verify.make_expression, verify.compress_to_ranks

    def recording_make(which, **kw):
        built.append(make(which, **kw))
        return built[-1]

    def recording_compress(state, transform=True):
        compressed.append(state)
        return compress(state, transform)

    monkeypatch.setattr(verify, "make_expression", recording_make)
    monkeypatch.setattr(verify, "compress_to_ranks", recording_compress)
    rep = verify_theorem("2", trials=60, seed=0)
    assert rep["ok"]
    # states compare up to scalar; draws repeat them, and each distinct one
    # is compressed (and classified) exactly once
    assert len(set(built)) < len(built)
    assert len(compressed) == len(set(compressed)) == len(set(built))


def test_census_two_by_two_by_three():
    rep = verify_theorem("two_by_two_by_three", trials=40, seed=0)
    assert rep["ok"]
    assert set(rep["census"]) <= {"Upsilon1(1)", "Upsilon2(1)"}


def test_census_upsilon0():
    rep = verify_theorem("upsilon0", m_parameter=2, trials=25, seed=0)
    assert rep["ok"]
    assert set(rep["census"]) == {"Upsilon0(2)"}


# sha256 of json.dumps(report, sort_keys=True), taken before the range
# criterion moved onto Gaussian-integer polynomials: the reports must not move.
# The appendix and theorem-4 rows were re-recorded when the obstruction became
# a proof; it draws nothing, so theorem 4 at one m reads the same at any seed
GOLDEN_REPORTS = (
    ("theorem", "2", None, 3, 11, "70e83f7092d8a0ff2eba17ed5a11abdbbd65fbb37d45b75e5c6481277d61378f"),
    # the benchmark's sweep size, taken before each distinct sweep state was
    # classified once; both seeds give the same saturated report, so
    # SWEEP_STREAM_DIGESTS pins the draws behind it
    ("theorem", "2", None, 60, 0, "a3b6ab6c47238bdb1e38b8f6b74716bbf30495259c3d44758feb0d72b7877018"),
    ("theorem", "2", None, 60, 1, "a3b6ab6c47238bdb1e38b8f6b74716bbf30495259c3d44758feb0d72b7877018"),
    ("theorem", "3", 2, 1, 0, "e585eeb3893b6f531dfd747eef768d6adf6e532912dd3414c0c18c0253e72f5a"),
    ("theorem", "4", 2, 3, 12, "588fa066fcfd552a7dee15298e27d54513bc3c113898575d84ffc7c8cc377cef"),
    ("theorem", "upsilon0", 2, 4, 13, "13fe2018578f97966eac2b915626c609f96c6036f3a20101a9e41484f5e38a52"),
    ("theorem", "two_by_two_by_three", None, 40, 14,
     "a126d919dc85c93fd425ab1da97e04eea999dff08afddcb95b6f1c66f257c909"),
    ("appendix", None, 2, 4, 15, "02e0280f0308364484d24c41ebf1662d7f3e4008346c9e1ea8976f39c0bb46fd"),
    ("appendix", None, 3, 2, 16, "16cd43f7a0cac1027ed6346dd86c982c569155ddd58c1b9f060a2edf61bc2ab7"),
    # the benchmark's block sizes and seeds, taken before the samplers drew
    # on getrandbits
    ("theorem", "two_by_two_by_three", None, 600, 1,
     "95d1cc95e1767ff926ae65a212bed7f1d84433bbf1ce2142e839bff57a9af1d6"),
    ("theorem", "upsilon0", 3, 10, 6, "3081f8a2785c6ed964c282192f83d7441cb0bcbd44a2d2443427f857e7732c41"),
    ("appendix", None, 3, 10, 6, "6fe9226d58ac6b2c849a28075f86c7a6601bf27ac1e4c65645653329f8bcaceb"),
    ("theorem", "4", 3, 30, 1, "3f53144f2649d5e55f9d44e815a464931e9dcd463cdebbcc6520e7da81412bd4"),
    # a benchmark block size, three interior columns, and the theorem-4
    # obstruction at m = 2
    ("appendix", None, 2, 10, 17, "90a082b5e18cdf9a4b10c26d51becb65c330b3b8f1f1dfdb280ccf1da580f112"),
    ("appendix", None, 5, 10, 18, "4c6de9af16d03010706a48b2c7e76fc379545181bda5c44aeeb46b16a999e0f1"),
    ("theorem", "4", 2, 30, 19, "588fa066fcfd552a7dee15298e27d54513bc3c113898575d84ffc7c8cc377cef"),
)


# sha256 of repr(rng.getstate()) after a 60-trial sweep, taken before each
# distinct sweep state was classified once: the sweep must make the same
# draws, skipping the same non-2x3x3 states, whether or not it classifies them
SWEEP_STREAM_DIGESTS = (
    (0, "06eafffd96109655f2a78ffb8912fd40a2be8d7b320da44ab5e9bd78ad092914"),
    (1, "8be81ee31080c7afd7a9977751c83ba46364303f4b6111f38ef70256bc4ecae5"),
)


@pytest.mark.parametrize("seed, digest", SWEEP_STREAM_DIGESTS)
def test_expression_sweep_draws_match_golden_stream(seed, digest):
    rng = random.Random(seed)
    assert verify._expression_sweep(60, rng)
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == digest


@pytest.mark.parametrize("func, which, m, trials, seed, digest", GOLDEN_REPORTS)
def test_verify_reports_match_golden_digests(func, which, m, trials, seed, digest):
    if func == "appendix":
        report = verify_appendix_theta45(m, trials=trials, seed=seed)
    else:
        report = verify_theorem(which, m_parameter=m, trials=trials, seed=seed)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
