"""Cost gates that do not depend on the host's speed.

Each gate counts the Python function calls made into slocc2mn's own files
while one public call runs, and fails when the count exceeds 1.25 times the
count measured for the current code (Python 3.11).  Counts repeat exactly
across runs and hash seeds, where wall-clock time swings with the host.  A
change that makes a call cheaper lowers its gate; no change raises one to
pass.

Every call but the fill is made once untimed first, so the canonical tables
it reads are filled whatever ran before it in the session, and the count is
of the call itself.
"""

import os
import sys

import slocc2mn
from slocc2mn.classify import StateInvariants, classify, decide_equivalence
from slocc2mn.families import ClassLabel, all_labels_for_shape, make_canonical
from slocc2mn.operators import random_ilo
from slocc2mn.verify import verify_theorem

PACKAGE = os.path.dirname(slocc2mn.__file__) + os.sep

# the compressed shapes whose canonical tables the classify-perturbed
# benchmark workload fills
CLASSIFY_PERTURBED_SHAPES = (
    (2, 2, 2), (2, 3, 3), (2, 2, 4), (2, 3, 6), (2, 2, 3), (2, 3, 5), (2, 4, 7),
    (2, 3, 4), (2, 4, 6), (2, 5, 8), (2, 6, 12), (2, 6, 11), (2, 6, 10),
)


def count_calls(fn, *args, **kwargs):
    """(fn's result, the number of Python function calls, generator resumptions
    included, whose code lies in slocc2mn's files while fn runs)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, calls


def assert_within_gate(calls, measured):
    assert calls <= 1.25 * measured, f"{calls} calls, gate {1.25 * measured:.0f} (1.25 x {measured})"


def perturbed(text, seed):
    base = make_canonical(ClassLabel.parse(text))
    return random_ilo(base.dims, seed).apply(base)


def fill_canonical_invariants():
    for dims in CLASSIFY_PERTURBED_SHAPES:
        for label in all_labels_for_shape(dims):
            inv = StateInvariants(make_canonical(label))
            inv.signature_key()
            inv.bc_profile_key()
            inv.partner_key()
            inv.quadric_key()


def test_canonical_fill_call_count():
    _, calls = count_calls(fill_canonical_invariants)
    assert_within_gate(calls, 285_162)


def test_theta4_theta5_decision_call_count():
    # each side's classification reads the quadric tier, the only one that
    # tells Theta4(m) from Theta5(m)
    def decide():
        return decide_equivalence(perturbed("Theta4(2)", 1), perturbed("Theta5(2)", 1))

    decide()
    verdict, calls = count_calls(decide)
    assert verdict.kind == "Inequivalent"
    assert_within_gate(calls, 9_939)


def test_theorem_2_call_count():
    verify_theorem("2")
    report, calls = count_calls(verify_theorem, "2")
    assert report["ok"]
    assert_within_gate(calls, 113_406)


def test_upsilon0_proof_call_count():
    # m = 8 is the largest that keeps this test near 5 s; the label alone
    # fills the shape's canonical table
    classify(perturbed("Upsilon0(8)", 7), want_proof=False)
    result, calls = count_calls(classify, perturbed("Upsilon0(8)", 7))
    assert result.proof_complete
    assert_within_gate(calls, 1_687_939)
