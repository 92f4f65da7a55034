"""Independent verification routines for the classification results.

Three layers of checks live here:

* ``verify_appendix_theta45`` proves that no invertible local operator
  whose 2x2 block has w, z != 0 and wz != xy maps Theta4 to Theta5: it
  checks the three polynomial identities the argument rests on over a grid
  that proves them, then bounds by term rank the support they leave on
  three operator rows.  It draws nothing.
* ``verify_theorem`` re-derives the published classification tables, one
  block of ``THEOREM_BLOCKS`` at a time: each block is a shape at m, whose
  labels the family table lists, and the m it accepts.  It checks family
  signatures against one table of displayed brackets, pairwise separation
  with the invariant that witnesses it, the coefficient-branch sweep for the
  2x3x3 expressions, and random-state censuses for the uniquely-classified
  shapes.  Signature rows and pairs are read from the classifier's
  canonical invariant table (:func:`.classify.canonical_invariants`), so
  each canonical state's invariants are computed once and shared with
  ``classify``, whose class label for a pair is matched on those same
  cached keys.  The sweep draws coefficients with replacement from a small
  grid, so states repeat; each distinct state is classified once per sweep.
* ``random_full_rank_state`` samples states with maximal local ranks for the
  census checks, drawing each amplitude as a Gaussian integer over the
  denominator 6 (no rational is built).  It takes its (numerator,
  denominator) pairs from the generator's bits (``getrandbits``) under
  ``randint``'s own rejection rule, so it reads the same random stream as
  ``randint`` would, without its per-call overhead.
"""

from __future__ import annotations

import itertools
import random
from math import prod

from .states import PureState, LocalRankProfile, compress_to_ranks
from .families import (
    all_labels_for_shape,
    canonical_dims,
    make_expression,
    expression_branch_label,
)
from .classify import StateInvariants, canonical_invariants, classify, decide_equivalence


# -- bipartite term rank ------------------------------------------------------


def term_rank(support) -> int:
    """Maximum number of independently placeable nonzeros (max matching).

    ``support`` is a list of rows of booleans; True marks a cell that may be
    nonzero.  The term rank bounds the rank of every matrix with that support,
    by choosing one cell per row/column (a bipartite matching) via augmenting
    paths.
    """
    n_rows = len(support)
    n_cols = len(support[0]) if n_rows else 0
    col_owner = [-1] * n_cols

    def augment(r: int, seen: list) -> bool:
        for c in range(n_cols):
            if support[r][c] and not seen[c]:
                seen[c] = True
                if col_owner[c] < 0 or augment(col_owner[c], seen):
                    col_owner[c] = r
                    return True
        return False

    count = 0
    for r in range(n_rows):
        if augment(r, [False] * n_cols):
            count += 1
    return count


# -- the Theta4 / Theta5 obstruction ------------------------------------------


def _chain_null_vectors(w, x, y, z):
    """The null vectors of the x, z chain and of the w, y chain on one
    column: the cross products of each chain's two rows,
    c_zx = -(z^2, xz, x^2) and c_yw = -(y^2, wy, w^2)."""
    return (-z * z, -x * z, -x * x), (-y * y, -w * y, -w * w)


_IDENTITIES = ("chain_null_vectors", "joined_determinant", "cross_product")


def _failed_identities(points) -> set:
    """The obstruction's identities that fail at some (w, x, y, z) of
    ``points``: each chain annihilates its null vector (c_zx the x, z chain
    z u2 = x u1, z u1 = x u0; c_yw the w, y chain y u2 = w u1, y u1 = w u0);
    the joined pair's 2x2 determinant is (wz - xy)^3; and
    c_zx x c_yw = (wz - xy)(wx, -(wz + xy), yz)."""
    failed = set()
    for w, x, y, z in points:
        (a0, a1, a2), (b0, b1, b2) = _chain_null_vectors(w, x, y, z)
        d = w * z - x * y
        if z * a2 != x * a1 or z * a1 != x * a0 or y * b2 != w * b1 or y * b1 != w * b0:
            failed.add("chain_null_vectors")
        # each joining equation is a w, y chain row on column m-1 plus an
        # x, z chain row on column m, applied to (s c_zx, t c_yw)
        if (y * a2 - w * a1) * (z * b1 - x * b0) - (y * a1 - w * a0) * (z * b2 - x * b1) != d**3:
            failed.add("joined_determinant")
        cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        if cross != (d * w * x, -d * (w * z + x * y), d * y * z):
            failed.add("cross_product")
    return failed


def verify_appendix_theta45(m: int, trials: int = 100, seed: int = 0) -> dict:
    """Prove that every operator mapping Theta4(m) to Theta5(m) whose 2x2
    block (w, x; y, z) has w, z != 0 and wz != xy is singular.

    With u0, u1, u2 the unknowns of one column of three operator rows, the
    constraints are the x, z chain on columns 0..m-1, the w, y chain on
    columns 1..m-2, m and m+1, and two equations joining columns m-1 and m.
    w, z != 0 give each chain rank 2 on a column, so its solutions there are
    the multiples of its null vector.  An interior column carries both
    chains, whose null vectors' cross product (wz - xy)(wx, -(wz + xy), yz)
    is nonzero (wx = yz = 0 forces x = y = 0, leaving -wz in the middle), so
    it is zero.  The joined pair's solutions (s c_zx, t c_yw) solve a 2x2
    system of determinant (wz - xy)^3 != 0, so it is zero too.  Columns 0
    and m+1 are left, whose support has term rank 2: the three rows are
    dependent.

    Each identity has degree at most 3 in each variable, so checking it on
    {0..3}^4 proves it (Alon, "Combinatorial Nullstellensatz", Lemma 2.1).
    Nothing is drawn: ``trials`` and ``seed`` are checked and echoed, and
    the proof reads neither.
    """
    if m < 2:
        raise ValueError("the obstruction argument needs m >= 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    failed = _failed_identities(itertools.product(range(4), repeat=4))
    identities = {name: name not in failed for name in _IDENTITIES}
    rank = term_rank([[i in (0, m + 1) for i in range(m + 2)] for _ in range(3)])
    return {
        "m": m,
        "trials": trials,
        "seed": seed,
        "method": "proved",
        "domain": "every 2x2 block (w, x; y, z) with w, z != 0 and wz != xy; "
        "the cases wxyz_nonzero, x_zero and y_zero lie inside it",
        "outside_claim": "blocks with w = 0 or z = 0, where a chain loses rank "
        "on a column; the argument does not cover them",
        "identities": identities,
        "term_rank": rank,
        "ok": all(identities.values()) and rank <= 2,
    }


# -- random state sampling ----------------------------------------------------


def _draw_pairs(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` pairs (p, q), p in -3..3 and q in 1..3, drawn as
    ``rng.randint(-3, 3)`` then ``rng.randint(1, 3)`` would draw each pair.

    randint draws k = n.bit_length() bits for a range of n values, and draws
    again while they are n or more; the same rule on ``rng.getrandbits``
    (3 bits for p, 2 for q) reads the same stream, so every draw, and the
    generator's state after it, is unchanged.
    """
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        p = bits(3)
        while p == 7:
            p = bits(3)
        q = bits(2)
        while q == 3:
            q = bits(2)
        out.append((p - 3, q + 1))
    return out


def random_full_rank_state(dims, rng: random.Random) -> PureState:
    """A random state with maximal local ranks (rejection sampling).

    Each amplitude is ``randint(-3, 3) / randint(1, 3)``, the draws of
    :func:`~slocc2mn.operators.random_scalar` without its imaginary part,
    taken from the generator's bits by :func:`_draw_pairs` (the same stream
    as ``randint``) in row-major index order, and built directly as an
    integer over the denominator 6.  Raises ValueError, before any draw, for
    dims with no such state: one above the product of the other two.
    """
    dims = tuple(dims)
    if any(d * d > prod(dims) for d in dims):
        raise ValueError(f"no {'x'.join(map(str, dims))} state has full local ranks")
    indices = list(itertools.product(*map(range, dims)))
    while True:
        pairs = _draw_pairs(rng, len(indices))
        ints = {idx: (p * (6 // q), 0) for idx, (p, q) in zip(indices, pairs) if p}
        if not ints:
            continue
        s = PureState._from_ints(dims, ints, 6)
        if s.local_ranks().as_tuple() == dims:
            return s


# -- theorem-level verification ----------------------------------------------


# The brackets Theorems 2-4 display, per family.  At the 2x2x3 boundary
# Upsilon1(1)'s third slice is itself a product state, so the bracket
# [0,1,inf] displayed for general m undercounts; the re-derived value, keyed
# by the label, is what invariance tests confirm.
_DISPLAYED = {
    "Psi1": "[0,3,3]",
    "Psi2": "[0,inf,inf]",
    "Psi3": "[1,inf,inf]",
    "Psi4": "[0,1,1]",
    "Psi5": "[1,inf,inf]",
    "Psi6": "[0,2,2]",
    "Upsilon1": "[0,1,inf]",
    "Upsilon2": "[0,0,inf]",
    "Upsilon1(1)": "[1,1,inf]",
    "Theta0": "[0,2,inf]",
    "Theta1": "[0,inf,inf]",
    "Theta2": "[0,1,inf]",
    "Theta3": "[0,1,inf]",
    "Theta4": "[0,0,inf]",
    "Theta5": "[0,0,inf]",
}


def _pairwise_separation(labels, table) -> list:
    out = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            verdict = decide_equivalence(table[labels[i]], table[labels[j]])
            out.append(
                {
                    "pair": [labels[i].render(), labels[j].render()],
                    "verdict": verdict.kind,
                    "separated_by": verdict.separating_invariant,
                }
            )
    return out


_UNSEEN = object()  # a sweep state not yet classified


def _expression_sweep(trials: int, rng: random.Random) -> dict:
    """Classify ``trials`` true-tripartite draws of each expression I-V (V
    once), coefficients drawn with replacement from {-2..2}^6, and match the
    labels to the branch rule.  Each distinct state (up to scalar) is
    classified once a call; a repeated draw reads its label back and counts
    as a trial, so the stream and every count are as if it were classified."""
    grid = [-2, -1, 0, 1, 2]
    allowed = set(all_labels_for_shape((2, 3, 3)))
    labels = {}  # state -> its label, or None when it is not 2 x 3 x 3
    sweep = {}
    for which in ("I", "II", "III", "IV", "V"):
        hits = 0
        branch_hits = 0
        branch_total = 0
        census = set()
        while hits < trials:
            kw = {}
            for name in ("a", "b", "c", "d", "f", "g"):
                kw[name] = rng.choice(grid)
            try:
                state = make_expression(which, **kw)
            except ValueError:
                continue
            label = labels.get(state, _UNSEEN)
            if label is _UNSEEN:
                # the compressed dims are the local ranks; (2, 3, 3) is
                # sorted, so classify matches the compressed state as it stands
                comp, _ = compress_to_ranks(state, transform=False)
                label = labels[state] = None if comp.dims != (2, 3, 3) else classify(
                    StateInvariants(comp, LocalRankProfile(*comp.dims)), want_proof=False
                ).label
            if label is None:
                continue  # the theorem classifies true tripartite states only
            hits += 1
            if label not in allowed:
                return {"ok": False, "which": which, "unexpected": label.render()}
            census.add(label.render())
            if which != "III":
                predicted = expression_branch_label(which, **kw)
                branch_total += 1
                if predicted == label:
                    branch_hits += 1
            if which == "V":
                break  # expression V has no free coefficients
        sweep[which] = {
            "trials": hits,
            "labels_seen": sorted(census),
            "branch_rule_matches": branch_hits,
            "branch_rule_total": branch_total,
            "branch_rule_ok": branch_hits == branch_total,
        }
    sweep["ok"] = all(v["branch_rule_ok"] for k, v in sweep.items() if k != "ok")
    return sweep


def _census(dims, expected_labels, trials: int, rng: random.Random) -> dict:
    expected = {lab.render() for lab in expected_labels}
    seen = {}
    for _ in range(trials):
        s = random_full_rank_state(dims, rng)
        # its local ranks are its dims, so classify matches it as it stands
        inv = StateInvariants(s, LocalRankProfile(*s.dims))
        label = classify(inv, want_proof=False).label.render()
        seen[label] = seen.get(label, 0) + 1
    ok = set(seen) == expected
    return {
        "dims": list(dims),
        "trials": trials,
        "expected": sorted(expected),
        "census": seen,
        "ok": ok,
    }


def _sweep_section(m, trials: int, seed: int):
    return "expression_sweep", _expression_sweep(trials, random.Random(seed))


def _obstruction_section(m, trials: int, seed: int):
    return "obstruction", verify_appendix_theta45(m)


# verification target -> (the shape of its labels at m; the m it accepts as
# (least, greatest), greatest None for no bound, or None where it ignores m;
# and its check: a census of random full-rank states, or the signature and
# pair rows plus the section a function of (m, trials, seed) names, if any)
THEOREM_BLOCKS = {
    "2": (lambda m: canonical_dims("Psi1"), None, _sweep_section),
    "3": (lambda m: canonical_dims("Upsilon1", m), (1, 4), None),
    "4": (lambda m: canonical_dims("Theta0", m), (2, 3), _obstruction_section),
    "upsilon0": (lambda m: canonical_dims("Upsilon0", m), (2, None), _census),
    "two_by_two_by_three": (lambda m: canonical_dims("Upsilon1", 1), None, _census),
}


def verify_theorem(
    which,
    m_parameter: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Re-derive one block of the classification from scratch.

    ``which`` is a key of :data:`THEOREM_BLOCKS`, which gives the block's
    shape and the ``m_parameter`` it accepts; the block's labels are every
    label of that shape.  A census block classifies ``trials`` random
    full-rank states and expects exactly those labels.  Any other block
    reports, per family, the computed signature against the published
    bracket, and for every pair the verdict and the invariant separating it,
    plus its own section: theorem 2's coefficient-branch sweep, theorem 4's
    singular-operator obstruction for Theta4/Theta5.  ``seed`` seeds the
    sweep's and each census's draws, each from its own generator; theorems 3
    and 4 draw nothing.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    which = str(which)
    if which not in THEOREM_BLOCKS:
        raise ValueError(f"unknown verification target {which!r}")
    shape_at, accepted, check = THEOREM_BLOCKS[which]
    m = m_parameter
    if accepted is not None:
        least, greatest = accepted
        if m is None or m < least or (greatest is not None and m > greatest):
            span = f">= {least}" if greatest is None else f"{least}..{greatest}"
            raise ValueError(f"theorem {which} verification supports m_parameter {span}")
    dims = shape_at(m)
    labels = all_labels_for_shape(dims)
    if check is _census:
        return {**_census(dims, labels, trials, random.Random(seed)), "which": which}

    table = canonical_invariants(dims)
    families = []
    for lab in labels:
        sig = table[lab].signature.render()
        displayed = _DISPLAYED.get(lab.render(), _DISPLAYED[lab.family])
        families.append(
            {
                "label": lab.render(),
                "signature": sig,
                "displayed": displayed,
                "signature_matches": sig == displayed,
            }
        )
    pairs = _pairwise_separation(labels, table)
    report = {
        "which": which,
        "families": families,
        "pairs": pairs,
        "all_pairs_inequivalent": all(p["verdict"] == "Inequivalent" for p in pairs),
    }
    ok = report["all_pairs_inequivalent"] and all(f["signature_matches"] for f in families)
    if check is not None:
        name, section = check(m, trials, seed)
        report[name] = section
        ok = ok and section["ok"]
    report["ok"] = ok
    return report
