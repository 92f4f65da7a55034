"""Classifier and equivalence decisions."""

import importlib
import random

import pytest

from slocc2mn.scalars import GaussianRational, ONE
from slocc2mn.matrices import Matrix, Pencil
from slocc2mn.states import PureState, compress_to_ranks
from slocc2mn.operators import OperatorTriple, random_ilo
from slocc2mn.ranges import UnsupportedSubspaceError
from slocc2mn.verify import random_full_rank_state
from slocc2mn.families import (
    ClassLabel,
    make_canonical,
    all_labels_for_shape,
    SMALL_FAMILIES,
    PARAMETRIC_FAMILIES,
)
from slocc2mn.classify import (
    classify,
    decide_equivalence,
    extract_and_reduce,
    reduction_trace,
    NoExactWitnessError,
    apply_ilo_word,
    find_equivalence_witness,
    canonical_invariants,
    StateInvariants,
    _TIERS,
    _normal_form,
)


def covered_labels(max_m=3):
    labels = [ClassLabel(n) for n in SMALL_FAMILIES if not n.startswith("Phi")]
    for name in PARAMETRIC_FAMILIES:
        lo = 2 if name in ("Upsilon0", "Theta4") else 1
        labels.extend(ClassLabel(name, m) for m in range(lo, max_m + 1))
    return labels


def test_self_classification_of_canonical_states():
    for label in covered_labels():
        res = classify(make_canonical(label), want_proof=False)
        assert res.label == label, f"{label.render()} classified as {res.label.render()}"


def test_classification_stable_under_ilo():
    rng_seeds = (3, 17)
    for label in covered_labels(max_m=2):
        s = make_canonical(label)
        for seed in rng_seeds:
            g = random_ilo(s.dims, seed)
            assert classify(g.apply(s), want_proof=False).label == label


def test_not_true_tripartite():
    prod = PureState.from_kets((2, 2, 2), [(0, 0, 0), (0, 1, 1)])
    res = classify(prod)
    assert res.label == ClassLabel("NotTrueTripartite")


def test_no_proof_built_leaves_proof_complete_none():
    # a state with a local rank 1, a state with no qubit and a proof not
    # asked for build no proof, so whether one is complete is not known
    states = [
        PureState.from_kets((2, 2, 2), [(0, 0, 0), (0, 1, 1)]),
        PureState.from_kets((3, 3, 3), [(0, 0, 0), (1, 1, 1), (2, 2, 2)]),
    ]
    for s, family in zip(states, ("NotTrueTripartite", "Unknown")):
        res = classify(s)
        assert (res.label.family, res.proof, res.proof_complete) == (family, [], None)
    res = classify(make_canonical(ClassLabel("Psi1")), want_proof=False)
    assert (res.label, res.proof, res.proof_complete) == (ClassLabel("Psi1"), [], None)
    assert classify(make_canonical(ClassLabel("Psi1"))).proof_complete is True


def test_uncovered_shape_is_unknown():
    # (2, 4, 4) and (2, 4, 5) have no canonical library entries
    for fam in ("Phi0Example", "Phi1Example"):
        res = classify(make_canonical(ClassLabel(fam)))
        assert res.label == ClassLabel("Unknown")
        assert "covered" in res.note


def test_classification_permutes_parties_when_needed():
    s = make_canonical(ClassLabel("Upsilon2", 2)).permute_parties("CBA")
    res = classify(s, want_proof=False)
    assert res.label == ClassLabel("Upsilon2", 2)
    assert res.permutation != "ABC"


def test_classify_reuses_given_invariants():
    # a state whose dims are its sorted local ranks is classified as it
    # stands, with its own invariants; the answer is the compressed one's
    for n, label in enumerate(covered_labels()):
        s = make_canonical(label)
        for state in (s, random_ilo(s.dims, 100 + n).apply(s)):
            ref = classify(state, want_proof=False)
            inv = StateInvariants(state)
            got = classify(inv, want_proof=False)
            assert (got.label, got.permutation) == (ref.label, ref.permutation) == (label, "ABC")
            assert got.invariants is inv


def test_classify_searches_the_qubit_pencil_once(monkeypatch):
    # the signature and the pencil, partner and quadric tiers read one rank
    # profile of the input's qubit pencil, so classify makes one rank-drop
    # search for the input; Theta2(2) reaches the partner tier
    searches = []
    search = Pencil.minor_root_multiple

    def counted(self, k):
        searches.append(k)
        return search(self, k)

    for label in (ClassLabel("Psi3"), ClassLabel("Theta2", 2)):
        s = make_canonical(label)
        for inv in canonical_invariants(s.dims).values():
            for _, tier in _TIERS:
                tier(inv)
        monkeypatch.setattr(Pencil, "minor_root_multiple", counted)
        searches.clear()
        res = classify(random_ilo(s.dims, 7).apply(s), want_proof=False)
        monkeypatch.undo()
        assert res.label == label
        assert len(searches) == 1
    assert "partner" in res.invariants._cache


def test_classify_invariants_fall_back_to_compression():
    unsorted = make_canonical(ClassLabel("Upsilon2", 2)).permute_parties("CBA")
    padded = PureState((2, 3, 4), make_canonical(ClassLabel("Upsilon1", 1)).amps)
    for state in (unsorted, padded, PureState.from_kets((2, 2, 2), [(0, 0, 0), (0, 1, 1)])):
        ref = classify(state, want_proof=False)
        inv = StateInvariants(state)
        got = classify(inv, want_proof=False)
        assert (got.label, got.permutation, got.note) == (ref.label, ref.permutation, ref.note)
        assert got.invariants is not inv
    assert classify(StateInvariants(unsorted)).label == ClassLabel("Upsilon2", 2)
    assert classify(StateInvariants(padded)).label == ClassLabel("Upsilon1", 1)


def test_reduction_step_contract():
    s = make_canonical(ClassLabel("Upsilon0", 3))  # (2, 3, 6)
    step = extract_and_reduce(s)
    m, n = 3, 6
    # replaying the ILO word reproduces |0, M-1, N-1> + residual
    replayed = apply_ilo_word(s, step.ilo_word)
    assert replayed.amps == {**step.residual.amps, (0, m - 1, n - 1): ONE}
    assert step.residual.dims == (2, m, n - 1)


def test_reduction_trace_terminates_on_base_case():
    s = make_canonical(ClassLabel("Theta1", 2))
    steps, complete = reduction_trace(s)
    assert steps and complete
    last = steps[-1].residual
    assert min(last.local_ranks().as_tuple()) < 2


def test_long_proof_runs_to_a_local_rank_one():
    # perturbed Upsilon0(7) needs 13 reduction steps, and the chain runs to
    # its end: the last residual's normal form has a local rank 1, and every
    # step's ILO word carries its input to |0, M-1, N-1> + residual
    c = make_canonical(ClassLabel("Upsilon0", 7))
    res = classify(random_ilo(c.dims, 7).apply(c))
    assert res.label == ClassLabel("Upsilon0", 7)
    assert len(res.proof) == 13
    assert res.proof_complete
    assert _normal_form(res.proof[-1].residual)[0].state.dims[0] == 1
    cur = res.invariants.state
    for step in res.proof:
        norm = _normal_form(cur)[0].state
        assert norm.dims == step.input_dims
        m, n = norm.dims[1:]
        replayed = apply_ilo_word(norm, step.ilo_word)
        assert replayed.amps == {**step.residual.amps, (0, m - 1, n - 1): ONE}
        cur = step.residual


def _cube_root_psi1():
    """The Psi1 state with A-slices I and the companion matrix of t^3 - 2:
    its AB range holds three product states, none of them Gaussian-rational."""
    amps = {(0, j, j): 1 for j in range(3)}
    amps.update({(1, 1, 0): 1, (1, 2, 1): 1, (1, 0, 2): 2})
    return PureState((2, 3, 3), amps)


def test_proof_without_a_rational_product_state_is_incomplete():
    # no step can start, and the empty proof is not complete
    res = classify(_cube_root_psi1())
    assert res.label == ClassLabel("Psi1")
    assert res.proof == []
    assert not res.proof_complete
    with pytest.raises(NoExactWitnessError):
        extract_and_reduce(res.invariants.state)
    assert reduction_trace(res.invariants.state) == ([], False)


def test_reduction_trace_raises_other_errors(monkeypatch):
    # only a missing exact witness ends the chain as incomplete; any other
    # error of a step is a fault and must not read as a proof that stopped
    def broken(s):
        raise ValueError("broken step")

    monkeypatch.setattr(importlib.import_module("slocc2mn.classify"), "extract_and_reduce", broken)
    with pytest.raises(ValueError, match="broken step"):
        reduction_trace(make_canonical(ClassLabel("Theta1", 2)))


def test_classify_proof_replays_exactly():
    res = classify(make_canonical(ClassLabel("Upsilon1", 2)))
    assert res.proof and res.proof_complete
    for step in res.proof:
        assert step.residual.dims[2] == step.input_dims[2] - 1


def test_decide_equivalence_symmetric_and_reflexive():
    s1 = make_canonical(ClassLabel("Psi6"))
    s2 = make_canonical(ClassLabel("Psi4"))
    assert decide_equivalence(s1, s1).kind == "Equivalent"
    v12 = decide_equivalence(s1, s2)
    v21 = decide_equivalence(s2, s1)
    assert v12.kind == v21.kind == "Inequivalent"
    assert v12.separating_invariant == v21.separating_invariant


def test_equivalent_verdict_carries_verified_witness():
    s = make_canonical(ClassLabel("Psi6"))
    g = random_ilo(s.dims, 11)
    moved = g.apply(s)
    verdict = decide_equivalence(s, moved)
    assert verdict.kind == "Equivalent"
    assert verdict.witness is not None
    assert verdict.witness.apply(s).equals_up_to_scalar(moved)


def test_equivalence_survives_large_operand_ilos():
    # ILO entries with 30-bit parts move the pencil's exceptional points to
    # Gaussian rationals no small-denominator guess reaches; each must still
    # be found exactly, or the witness search loses its Moebius candidates
    s = make_canonical(ClassLabel("Psi1"))
    for seed in range(10):
        rng = random.Random(seed)

        def entry():
            return GaussianRational(rng.randint(-(2**30), 2**30), rng.randint(-(2**30), 2**30))

        ilo = OperatorTriple(*(
            Matrix([[entry() for _ in range(d)] for _ in range(d)]) for d in s.dims
        ))
        moved = ilo.apply(s)
        verdict = decide_equivalence(s, moved)
        assert verdict.kind == "Equivalent", (seed, verdict.detail)
        assert verdict.witness.apply(s).equals_up_to_scalar(moved)


def test_unlabelled_pairs_decided_by_witness():
    # Phi0Example's shape has no library classes, so its label is Unknown;
    # a replaying witness still decides the pair, and an invariant tier
    # still separates it from Phi1Example
    phi0 = make_canonical(ClassLabel("Phi0Example"))
    for seed in range(10):
        moved = random_ilo(phi0.dims, seed).apply(phi0)
        verdict = decide_equivalence(phi0, moved)
        assert verdict.kind == "Equivalent", (seed, verdict.detail)
        assert verdict.witness.apply(phi0).equals_up_to_scalar(moved)
    verdict = decide_equivalence(phi0, make_canonical(ClassLabel("Phi1Example")))
    assert verdict.kind == "Inequivalent"
    assert verdict.separating_invariant == "pencil rank profile"


def test_find_equivalence_witness_rejects_different_classes():
    s1 = make_canonical(ClassLabel("GHZ"))
    s2 = make_canonical(ClassLabel("W"))
    assert find_equivalence_witness(s1, s2) is None


def test_witness_found_across_embeddings():
    base = make_canonical(ClassLabel("Upsilon1", 1))  # (2, 2, 3)
    big = PureState((2, 3, 4), dict(base.amps))
    g = random_ilo(big.dims, 21)
    moved = g.apply(big)
    w = find_equivalence_witness(big, moved)
    assert w is not None
    assert w.apply(big).equals_up_to_scalar(moved)


def _library_labels_m2():
    return covered_labels(max_m=2) + [ClassLabel("Phi0Example"), ClassLabel("Phi1Example")]


def _padded(s):
    """s with one unused basis vector for party A."""
    return PureState((s.dims[0] + 1, s.dims[1], s.dims[2]), dict(s.amps))


def test_permuted_and_padded_states_equivalent_to_their_images():
    # decisions run on the normal form, so neither the party order nor an
    # unused basis vector changes the verdict
    for label in _library_labels_m2():
        base = make_canonical(label)
        for s in [base.permute_parties(o) for o in ("BAC", "CAB", "CBA")] + [_padded(base)]:
            moved = random_ilo(s.dims, 0).apply(s)
            verdict = decide_equivalence(s, moved)
            assert verdict.kind == "Equivalent", (label.render(), s.dims, verdict.detail)
            assert verdict.witness.apply(s).equals_up_to_scalar(moved)


INEQUIVALENT_GROUPS = (
    [f"Psi{i}" for i in range(1, 7)],
    [f"Theta{i}(2)" for i in range(6)],
    ["Upsilon1(1)", "Upsilon2(1)"],
    ["GHZ", "W"],
)


def test_permuted_inequivalent_pairs_separated_by_the_same_invariant():
    for group in INEQUIVALENT_GROUPS:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                s1, s2 = (make_canonical(ClassLabel.parse(n)) for n in (a, b))
                ref = decide_equivalence(s1, s2)
                got = decide_equivalence(s1.permute_parties("CAB"), s2.permute_parties("CAB"))
                assert ref.kind == got.kind == "Inequivalent", (a, b)
                assert got.separating_invariant == ref.separating_invariant, (a, b)


def test_partner_key_needs_two_row_partner_matrices():
    # with party C (rank 3) first, the partner matrices have three rows
    s = make_canonical(ClassLabel("Upsilon1", 1)).permute_parties("CAB")
    for state in (s, random_ilo(s.dims, 0).apply(s)):
        with pytest.raises(UnsupportedSubspaceError):
            StateInvariants(state).partner_key()


def test_states_with_a_local_rank_one_decided_by_their_ranks(monkeypatch):
    # a local rank one leaves a bipartite state, which its ranks fix: no
    # invariant tier runs, only the witness search
    def no_tiers(*_):
        raise AssertionError("an invariant tier ran on a rank-one pair")

    monkeypatch.setattr(importlib.import_module("slocc2mn.classify"), "slocc_signature", no_tiers)
    for kets in ([(0, 0, 0)], [(0, 0, 0), (1, 0, 1)], [(0, 0, 0), (0, 1, 1), (0, 2, 2)]):
        s = PureState.from_kets((2, 3, 3), kets)
        moved = random_ilo(s.dims, 5).apply(s)
        verdict = decide_equivalence(s, moved)
        assert verdict.kind == "Equivalent", kets
        assert verdict.witness.apply(s).equals_up_to_scalar(moved)
    res = classify(PureState.from_kets((2, 2, 2), [(0, 0, 0), (1, 0, 1)]))
    assert (res.label.family, res.note) == ("NotTrueTripartite", "local ranks (2, 1, 2)")


def test_states_without_a_qubit_are_unknown_and_undecided():
    # local ranks (3, 3, 3): no range of the state can be counted, and the
    # witness search needs a qubit, so both answers are honest non-answers
    s = random_full_rank_state((3, 3, 3), random.Random(1))
    res = classify(s)
    assert (res.label.family, res.invariants) == ("Unknown", None)
    assert res.note == "smallest local rank 3 > 2 is outside coverage"
    verdict = decide_equivalence(s, random_ilo(s.dims, 3).apply(s))
    assert (verdict.kind, verdict.witness) == ("Undecided", None)
    assert verdict.detail == "smallest local rank 3 > 2 is outside 2 x M x N"
    # the ranks still separate, and a state is still equal to itself
    other = random_full_rank_state((3, 3, 4), random.Random(1))
    assert decide_equivalence(s, other).separating_invariant == "local ranks"
    assert decide_equivalence(s, s).kind == "Equivalent"


def test_pairs_without_an_exact_witness_are_undecided():
    # the witness search carries one A-pencil's exact rank-drop points onto
    # the other's by Moebius maps, then tries the identity.  Points at the
    # roots of t^3 - 2 are irrational, so no map is tried: the pair shares
    # the label Psi1 and stays Undecided
    s = _cube_root_psi1()
    for seed in (1, 2):
        verdict = decide_equivalence(s, random_ilo(s.dims, seed).apply(s))
        assert (verdict.kind, verdict.witness) == ("Undecided", None)
        assert verdict.detail == "same class label but no exact witness found"
    # T0 = I, T1 = diag(1..5): five exact points of equal rank are 120
    # bijections, more than the search tries, and no shape 2 x 5 x 5
    # family is covered
    amps = {(0, j, j): 1 for j in range(5)}
    amps.update({(1, j, j): j + 1 for j in range(5)})
    s = PureState((2, 5, 5), amps)
    verdict = decide_equivalence(s, random_ilo(s.dims, 1).apply(s))
    assert (verdict.kind, verdict.witness) == ("Undecided", None)
    assert verdict.detail == "outside covered families and no exact witness found"


def test_canonical_invariants_cached_and_complete():
    table = canonical_invariants((2, 3, 3))
    assert set(table) == set(all_labels_for_shape((2, 3, 3)))
    assert canonical_invariants((2, 3, 3)) is table


def test_canonical_invariant_vectors_pairwise_distinct():
    """Within every covered shape some invariant tier separates each pair."""
    shapes = [(2, 2, 2), (2, 3, 3), (2, 2, 3), (2, 3, 4), (2, 4, 6)]
    for dims in shapes:
        table = canonical_invariants(dims)
        labels = list(table)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                a, b = table[labels[i]], table[labels[j]]
                separated = (
                    a.signature_key() != b.signature_key()
                    or a.bc_profile_key() != b.bc_profile_key()
                    or a.partner_key() != b.partner_key()
                    or a.quadric_key() != b.quadric_key()
                )
                assert separated, (labels[i].render(), labels[j].render())


def _covered_shapes(max_m):
    shapes = {(2, 2, 2), (2, 3, 3)}
    for m in range(1, max_m + 1):
        shapes |= {(2, m, 2 * m), (2, m + 1, 2 * m + 1), (2, m + 2, 2 * m + 2)}
    return sorted(d for d in shapes if all_labels_for_shape(d))


def test_quadric_tier_decides_only_theta4_against_theta5():
    """The quadric profile is the last tier, and the only canonical pairs it
    has to separate are Theta4(m) and Theta5(m): every other pair differs
    on the signature, the pencil rank profile or the partner ranks."""
    ties = []
    for dims in _covered_shapes(5):
        table = canonical_invariants(dims)
        labels = list(table)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                a, b = table[labels[i]], table[labels[j]]
                if (
                    a.signature_key() == b.signature_key()
                    and a.bc_profile_key() == b.bc_profile_key()
                    and a.partner_key() == b.partner_key()
                ):
                    ties.append({labels[i].render(), labels[j].render()})
    assert ties == [{f"Theta4({m})", f"Theta5({m})"} for m in range(2, 6)]


def test_theta4_theta5_quadric_keys_stable_under_ilo():
    """Where the quadric tier decides, its keys do not depend on the ILO."""
    for m in range(2, 5):
        for family, key in (("Theta4", (1, 4)), ("Theta5", (1, 3))):
            label = ClassLabel(family, m)
            s = make_canonical(label)
            for seed in range(10):
                res = classify(random_ilo(s.dims, seed).apply(s), want_proof=False)
                assert res.label == label, (label.render(), seed)
                assert res.invariants.quadric_key() == key, (label.render(), seed)
