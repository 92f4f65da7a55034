"""The benchmark's three workloads: inputs, the timed operation and its truth.

Every input is built from the workload seed and the pass number, before any
timing starts.  An operation is a closure that does exactly what a command-line
user pays for (parse the state document, then make the library call) and
returns the library's answer; ``check`` then compares that answer with the truth
known from how the input was built.  Checking happens outside the timed region.

Library calls go through module attributes (``slocc2mn.classify``,
``stateio.state_from_json``) so that the tracer's wrappers see them.  This
module imports ``slocc2mn`` at the top, so the harness imports it only after
the timed set-up (see ``setup_time.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import slocc2mn
from slocc2mn import stateio
from slocc2mn.families import ClassLabel, make_canonical
from slocc2mn.stateio import state_to_json

# A certified answer, an honest non-answer (counted as failed), or a wrong one.
CERTIFIED = "certified"
FAILED = "failed"


class WrongAnswer(Exception):
    """The library gave an answer that contradicts the known truth."""


@dataclass
class Operation:
    """One timed call.  ``kind`` groups latencies (e.g. equivalent pairs)."""

    kind: str
    describe: str
    run: Callable[[], object]
    check: Callable[[object], str]


def library_labels(max_m: int) -> list[ClassLabel]:
    """Every canonical library label with parameter <= max_m (no Phi examples)."""
    labels = [ClassLabel(n) for n in ("GHZ", "W")]
    labels += [ClassLabel(f"Psi{i}") for i in range(1, 7)]
    for fam in ("Upsilon0", "Upsilon1", "Upsilon2"):
        lo = 2 if fam == "Upsilon0" else 1
        labels += [ClassLabel(fam, m) for m in range(lo, max_m + 1)]
    for i in range(6):
        lo = 2 if i == 4 else 1  # Theta4 does not occur in the 2x3x4 shape
        labels += [ClassLabel(f"Theta{i}", m) for m in range(lo, max_m + 1)]
    return labels


CLASSIFY_LARGE = ("Upsilon0(6)", "Upsilon2(5)", "Theta0(4)", "Theta5(4)")
CLASSIFY_TINY = ("GHZ", "W", "Psi3", "Upsilon1(1)")
INEQUIV_GROUPS = (
    tuple(f"Psi{i}" for i in range(1, 7)),
    tuple(f"Theta{i}(2)" for i in range(6)),
    tuple(f"Theta{i}(3)" for i in range(6)),
)
EQUIV_TINY = ("GHZ", "W")
INEQUIV_TINY = (("Psi1", "Psi3"),)

# (function, which, m, trials, calls per pass) per verification block.
# theorem 3 and the pairwise part of theorems 2 and 4 do the same work for
# every seed, so they run once a pass; the seeded obstruction and census
# blocks run six times, each with its own seed.  The 2x2x3 census is ok only
# if it meets both classes; Upsilon1(1) is about 4% of random states, so 600
# trials miss it with probability below 1e-9.  A pass takes about 17 s on a
# 2-vCPU Xeon host, so one pass fills a 15 s run and the run length does not
# depend on whether a second pass happens to fit.
VERIFY_BLOCKS = (
    ("theorem", "2", None, 60, 1),
    ("theorem", "3", 1, 1, 1),
    ("theorem", "3", 2, 1, 1),
    ("theorem", "3", 3, 1, 1),
    ("theorem", "4", 2, 30, 1),
    ("theorem", "4", 3, 30, 1),
    ("theorem", "two_by_two_by_three", None, 600, 1),
    ("appendix", None, 2, 10, 6),
    ("appendix", None, 3, 10, 6),
    ("theorem", "upsilon0", 2, 10, 6),
    ("theorem", "upsilon0", 3, 10, 6),
)
VERIFY_TINY = (
    ("theorem", "3", 2, 1, 1),
    ("appendix", None, 2, 1, 1),
    ("theorem", "upsilon0", 2, 1, 1),
)


def classify_labels(size: str) -> list[ClassLabel]:
    if size == "tiny":
        return [ClassLabel.parse(t) for t in CLASSIFY_TINY]
    return library_labels(3) + [ClassLabel.parse(t) for t in CLASSIFY_LARGE]


def setup_shapes(workload: str, size: str) -> list[tuple]:
    """Every compressed shape whose canonical table the workload's calls use."""
    if workload == "classify-perturbed":
        labels = classify_labels(size)
    elif workload == "equiv-pairs":
        if size == "tiny":
            names = EQUIV_TINY + tuple(n for pair in INEQUIV_TINY for n in pair)
            labels = [ClassLabel.parse(n) for n in names]
        else:
            labels = library_labels(2) + [
                ClassLabel.parse(n) for group in INEQUIV_GROUPS for n in group
            ]
        labels += [ClassLabel("Phi0Example"), ClassLabel("Phi1Example")]
    elif workload == "verify-paper":
        labels = []
        for _, which, m, _, _ in VERIFY_TINY if size == "tiny" else VERIFY_BLOCKS:
            if which == "2":
                labels += [ClassLabel(f"Psi{i}") for i in range(1, 7)]
            elif which in ("3", "two_by_two_by_three"):
                labels += [ClassLabel(f, m or 1) for f in ("Upsilon1", "Upsilon2")]
            elif which == "4":
                labels += [ClassLabel(f"Theta{i}", m) for i in range(6)]
            elif which == "upsilon0":
                labels.append(ClassLabel("Upsilon0", m))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    shapes = []
    for label in labels:
        dims = make_canonical(label).dims
        if dims not in shapes:
            shapes.append(dims)
    return shapes


def _perturbed_doc(label: ClassLabel, rng: random.Random) -> dict:
    state = make_canonical(label)
    ilo = slocc2mn.random_ilo(state.dims, rng.randrange(2**32))
    return state_to_json(ilo.apply(state))


def _classify_op(label: ClassLabel, doc: dict) -> Operation:
    def run():
        return slocc2mn.classify(stateio.state_from_json(doc))

    def check(result) -> str:
        got = result.label
        if got == label:
            return CERTIFIED
        if got.family == "Unknown":
            return FAILED
        raise WrongAnswer(f"classify: {label.render()} input labelled {got.render()}")

    return Operation("classify", label.render(), run, check)


def _equiv_op(kind: str, describe: str, doc1: dict, doc2: dict) -> Operation:
    """kind 'eq' for a truly equivalent pair, 'ineq' for an inequivalent one."""
    parsed = {}

    def run():
        parsed["s1"] = stateio.state_from_json(doc1)
        parsed["s2"] = stateio.state_from_json(doc2)
        return slocc2mn.decide_equivalence(parsed["s1"], parsed["s2"])

    def check(verdict) -> str:
        if verdict.kind == "Undecided":
            return FAILED
        if verdict.kind == "Equivalent":
            if kind != "eq":
                raise WrongAnswer(f"equiv: {describe} called Equivalent")
            replayed = verdict.witness.apply(parsed["s1"])
            if not replayed.equals_up_to_scalar(parsed["s2"]):
                raise WrongAnswer(f"equiv: {describe} witness does not replay")
            return CERTIFIED
        if verdict.kind == "Inequivalent":
            if kind != "ineq":
                raise WrongAnswer(f"equiv: {describe} called Inequivalent")
            return CERTIFIED
        raise WrongAnswer(f"equiv: {describe} gave unknown verdict {verdict.kind!r}")

    return Operation(kind, describe, run, check)


def _verify_op(func: str, which, m, trials: int, seed: int) -> Operation:
    if func == "appendix":
        describe = f"appendix m={m}"

        def run():
            return slocc2mn.verify_appendix_theta45(m, trials=trials, seed=seed)
    else:
        describe = f"theorem {which}" + ("" if m is None else f" m={m}")

        def run():
            return slocc2mn.verify_theorem(which, m_parameter=m, trials=trials, seed=seed)

    def check(report) -> str:
        if report.get("ok") is True:
            return CERTIFIED
        raise WrongAnswer(f"verify: {describe} seed={seed} reported ok={report.get('ok')!r}")

    return Operation("block", describe, run, check)


def build_pass(workload: str, size: str, seed: int, pass_index: int) -> list[Operation]:
    """The operations of one pass, in seed-shuffled order.

    Each pass draws fresh operators and seeds, so no pass repeats another's
    inputs and a cache of earlier answers cannot shorten it.
    """
    rng = random.Random(f"{workload}:{size}:{seed}:{pass_index}")
    ops: list[Operation] = []
    if workload == "classify-perturbed":
        for label in classify_labels(size):
            ops.append(_classify_op(label, _perturbed_doc(label, rng)))
    elif workload == "equiv-pairs":
        if size == "tiny":
            eq_names, ineq_pairs = EQUIV_TINY, INEQUIV_TINY
        else:
            eq_names = [label.render() for label in library_labels(2)]
            # Each group is paired along a cycle drawn from the seed, so every
            # label is on each side of exactly one pair and only the pairing,
            # not how often a costly label appears, changes with the seed.
            ineq_pairs = []
            for group in INEQUIV_GROUPS:
                cycle = rng.sample(group, len(group))
                ineq_pairs += [(a, cycle[(j + 1) % len(cycle)]) for j, a in enumerate(cycle)]
        for name in eq_names:
            label = ClassLabel.parse(name)
            ops.append(_equiv_op(
                "eq", f"{name} ~ {name}", _perturbed_doc(label, rng), _perturbed_doc(label, rng)
            ))
        for a, b in ineq_pairs:
            ops.append(_equiv_op(
                "ineq", f"{a} vs {b}",
                _perturbed_doc(ClassLabel.parse(a), rng), _perturbed_doc(ClassLabel.parse(b), rng),
            ))
        phi0, phi1 = ClassLabel("Phi0Example"), ClassLabel("Phi1Example")
        phi0_doc = state_to_json(make_canonical(phi0))
        ops.append(_equiv_op(
            "eq", "Phi0Example ~ perturbed copy", phi0_doc, _perturbed_doc(phi0, rng)
        ))
        ops.append(_equiv_op(
            "ineq", "Phi0Example vs Phi1Example", phi0_doc, state_to_json(make_canonical(phi1))
        ))
    elif workload == "verify-paper":
        for func, which, m, trials, calls in VERIFY_TINY if size == "tiny" else VERIFY_BLOCKS:
            for _ in range(calls):
                ops.append(_verify_op(func, which, m, trials, rng.randrange(2**31)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
