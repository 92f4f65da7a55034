"""SLOCC classification and equivalence decisions for 2 x M x N states.

Every decision runs on the state's normal form: the state compressed to its
local ranks, its parties then sorted in ascending order of rank.  The
classifier matches a tiered invariant vector — local ranks, signature, BC
pencil rank profile, partner-rank multisets, and (as a last tie-breaker) the
quadric profile of the AB product-direction locus — of the normal form
against the canonical library for its shape; a state given as cached
invariants already in normal form is matched as it stands.  The quadric
profile is not ILO-invariant in general; it is read only when the first
three tiers leave more than one candidate, which among canonical states
happens only for Theta4(m) against Theta5(m) (m = 2..5 checked), and on
those two its keys, (1, 4) and (1, 3), are stable.  For M, N >= 3 one rank
profile of the qubit's pencil, cached on :class:`StateInvariants`, serves the
signature and the pencil, partner and quadric tiers; a 2 x 2 x N state counts
its A range by 2 x 2 minors and shares that count with its B range, whose
rank-one points correspond one to one.  Reduction steps extract
a product state from the AB-range of the normal form and shrink the C
dimension by one, producing an auditable elementary-ILO word; the step's
normalization check, cleanup and residual read the staged state's integer
amplitudes.  Equivalence verdicts compare local ranks on the inputs, then
(when the smallest rank is 2) the invariant tiers on both normal forms,
before searching the normal forms for an explicit witness, whose linear
system for the B and C operators is written on the slices' integer rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .scalars import GaussianRational, ZERO, ONE, _scalar
from .matrices import Matrix, Pencil, _primitive_ints
from .states import PureState, PARTIES, LocalRankProfile, compress_to_ranks
from .operators import (
    OperatorTriple,
    ElementaryFactor,
    decompose_elementary,
    mapping_vector_to_basis,
)
from .ranges import (
    range_subspace,
    exact_rank_one_in_span,
    exact_points,
    qubit_pencil,
    slocc_signature,
    partner_rank,
    quadric_profile,
    Signature,
)
from .families import ClassLabel, make_canonical, all_labels_for_shape


class StateInvariants:
    """Lazily computed, cached SLOCC invariants of one state.  Every key past
    the ranks needs a normal form with a qubit (:func:`_normal_form`); the
    signature raises UnsupportedSubspaceError on any other state."""

    def __init__(self, s: PureState, ranks: LocalRankProfile | None = None):
        self.state = s
        self._cache: dict = {} if ranks is None else {"ranks": ranks}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def ranks(self):
        return self._get("ranks", self.state.local_ranks)

    @property
    def qubit(self) -> Pencil | None:
        return self._get("qubit", lambda: qubit_pencil(self.state, self.ranks))

    @property
    def signature(self) -> Signature:
        return self._get("signature", lambda: slocc_signature(self.state, self.ranks, self.qubit))

    def signature_key(self):
        key = self._cache.get("signature_key")
        if key is None:
            key = self._cache["signature_key"] = (self.ranks.as_tuple(), self.signature.key())
        return key

    def bc_profile_key(self):
        def compute():
            pen = self.qubit or Pencil(*range_subspace(self.state, "A", 2).basis)
            return pen.rank_profile().key()

        return self._get("bc_profile", compute)

    def partner_key(self):
        def compute():
            out = []
            for party, pc in zip(PARTIES, self.signature.counts):
                if pc.is_infinite:
                    out.append("inf")
                elif pc.count == 0:
                    out.append(())
                elif not pc.exact:
                    out.append("irrational")
                else:
                    out.append(tuple(sorted(
                        partner_rank(self.state, party, w, self.qubit) for w in pc.witnesses
                    )))
            return tuple(out)

        return self._get("partner", compute)

    def quadric_key(self):
        return self._get("quadric", lambda: quadric_profile(self.state, self.qubit))


_TIERS = (
    ("signature", StateInvariants.signature_key),
    ("pencil rank profile", StateInvariants.bc_profile_key),
    ("partner-rank multiset", StateInvariants.partner_key),
    ("quadric profile", StateInvariants.quadric_key),
)

_CANONICAL_TABLE: dict[tuple, dict[ClassLabel, StateInvariants]] = {}


def canonical_invariants(dims) -> dict[ClassLabel, StateInvariants]:
    dims = tuple(dims)
    if dims not in _CANONICAL_TABLE:
        _CANONICAL_TABLE[dims] = {
            label: StateInvariants(make_canonical(label))
            for label in all_labels_for_shape(dims)
        }
    return _CANONICAL_TABLE[dims]


@dataclass
class ReductionStep:
    """One product-state extraction shrinking the C dimension by one.

    Replaying ``ilo_word`` (elementary factors, applied left to right) on the
    input yields |0, M-1, N-1> plus the residual embedded at C indices < N-1.
    """

    ilo_word: list[ElementaryFactor]
    residual: PureState
    input_dims: tuple


@dataclass
class ClassificationResult:
    """``proof_complete`` is False when the proof chain stops before a
    residual with a local rank 1: some residual has no Gaussian-rational
    product state in its AB range to extract (see :func:`reduction_trace`).
    It is None when no proof is built (``want_proof`` False, or no single
    label)."""

    label: ClassLabel
    proof: list[ReductionStep] = field(default_factory=list)
    invariants: StateInvariants | None = None
    permutation: str = "ABC"
    note: str = ""
    proof_complete: bool | None = None


def apply_ilo_word(s: PureState, word) -> PureState:
    dims = s.dims
    cur = s
    for f in word:
        d = dims[PARTIES.index(f.party)]
        cur = cur.apply_local(f.party, f.to_matrix(d))
    return cur


class NoExactWitnessError(ValueError):
    """The AB range holds no Gaussian-rational product state to extract."""


def extract_and_reduce(s: PureState) -> ReductionStep:
    """Extract a product state from the AB-range and reduce per the lemma.

    Requires a compressed state, as :func:`reduction_trace` passes it: dims
    equal to the local ranks (2, M, N) with 2 <= M <= N <= 2M; the ranks are
    read from the dims, and the residual's are checked.  Returns the ILO word
    carrying s to |0, M-1, N-1> + residual, with the residual supported on
    C < N-1 and holding no (0, M-1, j) amplitudes.
    """
    dims = s.dims
    d_a, d_b, d_c = dims
    if d_a != 2 or not (2 <= d_b <= d_c <= 2 * d_b):
        raise ValueError(f"unsupported shape {dims} for reduction")
    m, n = d_b, d_c
    witness = exact_rank_one_in_span(range_subspace(s, "C", n))
    if witness is None:
        raise NoExactWitnessError("no exact product witness available in the AB-range")
    coeffs = tuple(witness.coeffs)
    k0 = next(i for i, c in enumerate(coeffs) if not GaussianRational.coerce(c).is_zero())

    # C operator: row N-1 carries the witness combination, remaining rows keep
    # the other original slices in order
    rows = []
    for j in range(n):
        if j == k0:
            continue
        rows.append([ONE if c == j else ZERO for c in range(n)])
    rows.append(list(coeffs))
    v_c = Matrix(rows)
    v_a = mapping_vector_to_basis(witness.u, 2, 0)
    v_b = mapping_vector_to_basis(witness.v, m, m - 1)

    # factors are applied to the state left to right, which composes matrices
    # in reverse, so each decomposition is reversed to reproduce its matrix
    word: list[ElementaryFactor] = []
    word.extend(reversed(decompose_elementary("C", v_c)))
    word.extend(reversed(decompose_elementary("A", v_a)))
    word.extend(reversed(decompose_elementary("B", v_b)))

    staged = s.apply_local("C", v_c).apply_local("A", v_a).apply_local("B", v_b)
    ints, den = staged._ints, staged._den
    if ints.get((0, m - 1, n - 1)) != (den, 0):
        raise AssertionError("extraction did not normalize the witness amplitude")
    # the cleanup clears each (0, M-1, j) amplitude e_j by adding -e_j |j> to
    # ket |N-1> of C; every factor adds to |N-1>, so they commute and act as
    # one operator: amplitude (a, b, j) loses e_j times amplitude (a, b, N-1)
    pulls = {j: ints[(0, m - 1, j)] for j in range(n - 1) if (0, m - 1, j) in ints}
    if pulls:
        word.extend(
            ElementaryFactor(party="C", kind="add", i=n - 1, j=j, alpha=_scalar(-e, -f, den))
            for j, (e, f) in pulls.items()
        )
        out = {idx: (a * den, b * den) for idx, (a, b) in ints.items()}
        for (x, y, k), (c, d) in ints.items():
            if k == n - 1:
                for j, (e, f) in pulls.items():
                    re, im = out.get((x, y, j), (0, 0))
                    out[(x, y, j)] = (re - c * e + d * f, im - c * f - d * e)
        ints, den = out, den * den

    amps = {}
    for idx, (a, b) in ints.items():
        if idx == (0, m - 1, n - 1) or not (a or b):
            continue
        if idx[2] == n - 1:
            raise AssertionError("unexpected support left at C index N-1")
        if idx[0] == 0 and idx[1] == m - 1:
            raise AssertionError("cleanup left a (0, M-1, j) amplitude")
        amps[idx] = (a, b)
    residual = PureState._from_ints((2, m, n - 1), amps, den)
    r = residual.local_ranks()
    if r.r_b < m - 1:
        raise AssertionError("residual B-rank dropped below M-1")
    if (r.r_a, r.r_b, r.r_c) not in {
        (2, m - 1, n - 1), (2, m, n - 1), (1, m - 1, n - 1), (1, m, n - 1)
    }:
        raise AssertionError(f"residual ranks {r.as_tuple()} outside the four-way split")
    return ReductionStep(
        ilo_word=word,
        residual=residual,
        input_dims=dims,
    )


def _sorted_party_order(dims) -> str:
    order = sorted(range(3), key=lambda q: (dims[q], q))
    return "".join(PARTIES[q] for q in order)


def _normal_form(s: PureState | StateInvariants) -> tuple[StateInvariants, str]:
    """(invariants of the normal form, the party order that sorts it): the
    parties sorted by local rank, ties in the input's order, then compressed,
    so the order of parties of distinct ranks does not change it.  A bare
    state is always compressed; a StateInvariants already in normal form is
    returned as it stands, with the keys it has cached."""
    if isinstance(s, StateInvariants):
        ranks = s.ranks.as_tuple()
        if s.state.dims == ranks and list(ranks) == sorted(ranks):
            return s, "ABC"
        s = s.state
    else:
        ranks = s.local_ranks().as_tuple()
    order = _sorted_party_order(ranks)
    # the compressed dims are the local ranks, now in ascending order
    norm, _ = compress_to_ranks(s.permute_parties(order), transform=False)
    return StateInvariants(norm, LocalRankProfile(*norm.dims)), order


def reduction_trace(s: PureState) -> tuple[list[ReductionStep], bool]:
    """(steps, complete): the chain of reduction steps from a compressed
    (2, M, N) state, each step reducing the normal form of the previous
    residual.

    The chain is complete when a residual's normal form has a local rank 1.
    It stops incomplete when a residual has no Gaussian-rational product
    state in its AB range (:func:`extract_and_reduce` raises
    :class:`NoExactWitnessError`; any other error propagates):
    the lemma's extraction then has no exact witness to start from.  The
    chain ends by itself: the residual of a (2, M, N) normal form has dims
    (2, M, N - 1), so the dims of the next normal form, its local ranks,
    sum to at least one less; a normal form with a qubit has dims of at
    least (2, 2, 2), so a chain takes at most M + N - 3 steps.
    """
    steps: list[ReductionStep] = []
    cur = s
    while True:
        norm = _normal_form(cur)[0].state
        if norm.dims[0] < 2:
            return steps, True
        try:
            step = extract_and_reduce(norm)
        except NoExactWitnessError:
            return steps, False
        steps.append(step)
        cur = step.residual


def classify(
    s: PureState | StateInvariants, want_proof: bool = True
) -> ClassificationResult:
    """Assign a ClassLabel by invariant matching against the canonical library.

    The invariants are those of the state's normal form (see
    :func:`_normal_form`): the state compressed to its local ranks, its
    parties sorted by rank; ``permutation`` is that party order.  A state may
    also be given as its :class:`StateInvariants` (as
    :func:`decide_equivalence` passes it): one already in normal form is
    classified as it stands and every key it has cached is reused.
    """
    inv, order = _normal_form(s)
    norm = inv.state
    if norm.dims[0] < 2:
        # the note gives the local ranks in the input's party order
        ranks = tuple(norm.dims[order.index(p)] for p in PARTIES)
        return ClassificationResult(
            label=ClassLabel("NotTrueTripartite"), note=f"local ranks {ranks}"
        )
    if norm.dims[0] != 2:
        # no qubit: the signature cannot be counted, so no invariants either
        return ClassificationResult(
            label=ClassLabel("Unknown"), permutation=order,
            note=f"smallest local rank {norm.dims[0]} > 2 is outside coverage",
        )
    table = canonical_invariants(norm.dims)
    if not table:
        return ClassificationResult(
            label=ClassLabel("Unknown"), invariants=inv, permutation=order,
            note=f"shape {norm.dims} has no covered families",
        )
    candidates = list(table)
    for _, tier_fn in _TIERS:
        if len(candidates) <= 1 and candidates and tier_fn is not _TIERS[0][1]:
            break
        val = tier_fn(inv)
        candidates = [L for L in candidates if tier_fn(table[L]) == val]
    if len(candidates) == 1:
        proof, complete = reduction_trace(norm) if want_proof else ([], None)
        return ClassificationResult(
            label=candidates[0], proof=proof, invariants=inv, permutation=order,
            proof_complete=complete,
        )
    note = (
        "no canonical class matches the invariant vector"
        if not candidates
        else "invariant vector matches several classes: "
        + ", ".join(c.render() for c in candidates)
    )
    return ClassificationResult(
        label=ClassLabel("Unknown"), invariants=inv, permutation=order, note=note
    )


# -- equivalence --------------------------------------------------------------


@dataclass
class EquivalenceVerdict:
    kind: str  # 'Equivalent' | 'Inequivalent' | 'Undecided'
    witness: OperatorTriple | None = None
    separating_invariant: str | None = None
    detail: str = ""


def _solve_bc_given_a(g: Matrix, t_slices, s_slices, m: int, n: int, rng):
    """Solve P @ T'_i = S_i @ R linearly, T'_i = g[i, 0] T_0 + g[i, 1] T_1;
    return (P, R^T) invertible or None.  Row (i, r, c) of the system is entry
    (r, c) of P T'_i - S_i R times every denominator, its integer row made
    primitive: a row's scale leaves the row space, and the nullspace basis."""
    # the slices of a state share its denominator
    t0, t1 = [x._int_form()[0] for x in t_slices]
    s_rows = [x._int_form()[0] for x in s_slices]
    t_den, s_den = t_slices[0]._int_form()[1][0], s_slices[0]._int_form()[1][0]
    n_unknowns = m * m + n * n
    rows = []
    for ((p, q), (u, v)), gd, s_i in zip(*g._int_form(), s_rows):
        # s_den * gd * t_den * T'_i, and the factor that brings S_i to it
        tp = [[((p * a - q * b + u * c - v * d) * s_den, (p * b + q * a + u * d + v * c) * s_den)
               for (a, b), (c, d) in zip(r0, r1)] for r0, r1 in zip(t0, t1)]
        f = gd * t_den
        for r in range(m):
            for c in range(n):
                row = [(0, 0)] * n_unknowns
                for k in range(m):
                    row[r * m + k] = tp[k][c]
                for k in range(n):
                    a, b = s_i[r][k]
                    row[m * m + k * n + c] = (-a * f, -b * f)
                rows.append(_primitive_ints(row))
    null = Matrix._from_ints(rows, [1] * len(rows), n_unknowns).nullspace()
    if not null:
        return None

    def build(vec):
        p = Matrix([[vec[r * m + k] for k in range(m)] for r in range(m)])
        r_t = Matrix([[vec[m * m + k * n + c] for k in range(n)] for c in range(n)])
        return p, r_t

    tries = [v for v in null]
    for _ in range(10):
        coeffs = [GaussianRational(rng.randint(-4, 4)) for _ in null]
        combo = tuple(
            sum((coeffs[i] * null[i][j] for i in range(len(null))), ZERO)
            for j in range(n_unknowns)
        )
        tries.append(combo)
    for vec in tries:
        p, r_t = build(vec)
        if not p.det().is_zero() and not r_t.det().is_zero():
            return p, r_t
    return None


def _witness_same_dims(s1: PureState, s2: PureState, rng) -> OperatorTriple | None:
    """Witness between normal forms of equal dims, pivoting on party A: its
    candidates are Möbius maps carrying the A-pencils' exact points onto
    each other, then the identity."""
    dims = s1.dims
    m, n = dims[1], dims[2]
    if dims[0] == 1:
        # both are |0> (x) T with T an invertible m x m matrix: B carries T1 to T2
        t1, t2 = s1.slices("A")[0], s2.slices("A")[0]
        return OperatorTriple(Matrix.identity(1), t2 @ t1.inverse(), Matrix.identity(n), check=False)
    if dims[0] != 2:
        return None
    t1 = s1.slices("A")
    t2 = s2.slices("A")
    # the projective parameters of the rank drops of each A-pencil
    pts1, exact1 = exact_points(Pencil(t1[0], t1[1]).rank_profile())
    pts2, exact2 = exact_points(Pencil(t2[0], t2[1]).rank_profile())

    candidates: list[Matrix] = []
    if exact1 and exact2 and pts1 and len(pts1) == len(pts2):
        by_rank1: dict[int, list] = {}
        by_rank2: dict[int, list] = {}
        for p, r in pts1:
            by_rank1.setdefault(r, []).append(p)
        for p, r in pts2:
            by_rank2.setdefault(r, []).append(p)
        if set(by_rank1) == set(by_rank2) and all(
            len(by_rank1[r]) == len(by_rank2[r]) for r in by_rank1
        ):
            groups = sorted(by_rank1)
            perms_per_group = [
                list(itertools.permutations(range(len(by_rank1[r])))) for r in groups
            ]
            total = 1
            for pg in perms_per_group:
                total *= len(pg)
            if total <= 24:
                for combo in itertools.product(*perms_per_group):
                    rows = []
                    for gi, r in enumerate(groups):
                        src = by_rank1[r]
                        tgt = by_rank2[r]
                        for a, b in enumerate(combo[gi]):
                            # constraint cross(g^T q, p) = 0 with q in pencil-2
                            # coordinates, p in pencil-1 coordinates
                            p = src[a]
                            q = tgt[b]
                            rows.append([
                                q[0] * p[1], q[1] * p[1], -q[0] * p[0], -q[1] * p[0]
                            ])  # unknowns (g00, g10, g01, g11)
                    nl = Matrix(rows).nullspace()
                    for vec in nl:
                        gm = Matrix([[vec[0], vec[2]], [vec[1], vec[3]]])
                        if not gm.det().is_zero():
                            candidates.append(gm)
                    for _ in range(4 if len(nl) > 1 else 0):
                        cs = [GaussianRational(rng.randint(-3, 3)) for _ in nl]
                        vec = tuple(
                            sum((cs[i] * nl[i][j] for i in range(len(nl))), ZERO)
                            for j in range(4)
                        )
                        gm = Matrix([[vec[0], vec[2]], [vec[1], vec[3]]])
                        if not gm.det().is_zero():
                            candidates.append(gm)
    candidates.append(Matrix.identity(2))

    for gm in candidates:
        sol = _solve_bc_given_a(gm, t1, t2, m, n, rng)
        if sol is None:
            continue
        p, r_t = sol
        triple = OperatorTriple(gm, p, r_t.inverse(), check=False)
        if triple.apply(s1).equals_up_to_scalar(s2):
            return triple
    return None


def _embed_block(v: Matrix, dim: int) -> Matrix:
    """The square v as the leading block of a dim x dim matrix, the identity
    on the rest."""
    k = v.rows
    grid = [[v[r, c] if r < k and c < k else (ONE if r == c else ZERO) for c in range(dim)]
            for r in range(dim)]
    return Matrix(grid)


def find_equivalence_witness(s1: PureState, s2: PureState) -> OperatorTriple | None:
    """Explicit ILO triple carrying s1 to s2 up to a global scalar, or None.

    s1 and s2 have equal dims and local ranks.  The search runs on their
    normal forms, built as :func:`_normal_form` builds them (parties sorted
    by rank, then compressed); its triple is mapped back to the input's
    parties."""
    order = _sorted_party_order(s1.local_ranks().as_tuple())
    p1, p2 = s1.permute_parties(order), s2.permute_parties(order)
    comp1, ch1 = compress_to_ranks(p1)
    comp2, ch2 = compress_to_ranks(p2)
    inner = _witness_same_dims(comp1, comp2, random.Random(0))
    if inner is None:
        return None
    # the search's party q is the input's party order[q]
    mats = {}
    for q, (party, inner_mat) in enumerate(zip(PARTIES, (inner.v_a, inner.v_b, inner.v_c))):
        emb = _embed_block(inner_mat, p1.dims[q])
        mats[order[q]] = ch2[party].inverse() @ emb @ ch1[party]
    triple = OperatorTriple(*(mats[p] for p in PARTIES), check=False)
    if triple.apply(s1).equals_up_to_scalar(s2):
        return triple
    return None


def decide_equivalence(
    s1: PureState | StateInvariants, s2: PureState | StateInvariants
) -> EquivalenceVerdict:
    """Fixed pipeline: ranks, signature, pencil profile, partner multisets,
    class labels, then the witness search.  Different library labels are
    Inequivalent; every other pair, library-labelled alike or not, is
    Equivalent exactly when an explicit verified witness is found, and
    Undecided otherwise.

    Local ranks are compared on the inputs, every later tier on their normal
    forms, which equal ranks give one party order; equal ranks with different
    dims raise ValueError, and equal ranks whose smallest is 3 or more leave
    the pair Undecided.  The invariant tiers run only when the smallest rank
    is 2: a pair whose smallest rank is 1 is fixed by its ranks and goes
    straight to the witness search.  Either side may be given as its
    StateInvariants (for example an entry of :func:`canonical_invariants`):
    one in normal form keeps its cached keys, for the class-label tier too.
    """
    inv1 = s1 if isinstance(s1, StateInvariants) else StateInvariants(s1)
    inv2 = s2 if isinstance(s2, StateInvariants) else StateInvariants(s2)
    s1, s2 = inv1.state, inv2.state
    if s1.dims == s2.dims and s1.equals_up_to_scalar(s2):
        return EquivalenceVerdict(
            kind="Equivalent", witness=OperatorTriple.identity(s1.dims),
            detail="states are equal up to a global scalar",
        )
    if inv1.ranks.as_tuple() != inv2.ranks.as_tuple():
        return EquivalenceVerdict(
            kind="Inequivalent", separating_invariant="local ranks",
            detail=f"{inv1.ranks.as_tuple()} vs {inv2.ranks.as_tuple()}",
        )
    if s1.dims != s2.dims:
        raise ValueError(f"states of equal local ranks have different dims {s1.dims} and {s2.dims}")
    low = min(inv1.ranks.as_tuple())
    if low > 2:  # no qubit: neither the invariants nor the witness search apply
        return EquivalenceVerdict(
            kind="Undecided", detail=f"smallest local rank {low} > 2 is outside 2 x M x N"
        )
    if low < 2:  # a bipartite pair: its ranks fix the class
        return _witness_verdict(s1, s2, None)
    inv1, inv2 = _normal_form(inv1)[0], _normal_form(inv2)[0]
    if inv1.signature.key() != inv2.signature.key():
        return EquivalenceVerdict(
            kind="Inequivalent", separating_invariant="signature",
            detail=f"{inv1.signature.render()} vs {inv2.signature.render()}",
        )
    if inv1.bc_profile_key() != inv2.bc_profile_key():
        return EquivalenceVerdict(
            kind="Inequivalent", separating_invariant="pencil rank profile",
            detail=f"{inv1.bc_profile_key()} vs {inv2.bc_profile_key()}",
        )
    pk1, pk2 = inv1.partner_key(), inv2.partner_key()
    if pk1 != pk2 and "irrational" not in pk1 + pk2:
        return EquivalenceVerdict(
            kind="Inequivalent", separating_invariant="partner-rank multiset",
            detail=f"{pk1} vs {pk2}",
        )
    c1 = classify(inv1, want_proof=False)
    c2 = classify(inv2, want_proof=False)
    if "Unknown" in (c1.label.family, c2.label.family):
        return _witness_verdict(s1, s2, None)
    if c1.label != c2.label:
        return EquivalenceVerdict(
            kind="Inequivalent", separating_invariant="class label",
            detail=f"{c1.label.render()} vs {c2.label.render()}",
        )
    return _witness_verdict(s1, s2, c1.label)


def _witness_verdict(s1: PureState, s2: PureState, label: ClassLabel | None) -> EquivalenceVerdict:
    """Equivalent when the witness search finds a verified witness, else
    Undecided; ``label`` is the library label both share, None for a pair
    the library does not label."""
    w = find_equivalence_witness(s1, s2)
    if w is not None:
        detail = (
            f"both classify as {label.render()}" if label is not None
            else "exact witness found outside the covered families"
        )
        return EquivalenceVerdict(kind="Equivalent", witness=w, detail=detail)
    return EquivalenceVerdict(
        kind="Undecided",
        detail="same class label but no exact witness found" if label is not None
        else "outside covered families and no exact witness found",
    )
