"""Per-layer tracing of slocc2mn from outside, by wrapping functions at run time.

``src/`` is not edited.  ``Tracer.install`` replaces each target function with
a wrapper that records a span (name, parent, start, end), and replaces it at
every place a module bound it: ``from .x import y`` copies ``y`` into the
importing module, and tuples such as ``classify._TIERS`` hold methods directly.
``Tracer.uninstall`` puts every original back.

Scalar arithmetic is counted, not spanned: it runs millions of times, and its
time stays in the self time of the span that called it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# Span-traced functions, as "<module>.<attribute path>" under slocc2mn.
TARGETS = (
    "stateio.state_from_json",
    "states.PureState.local_ranks",
    "states.compress_to_ranks",
    "operators.decompose_elementary",
    "operators.OperatorTriple.apply",
    "polynomials.poly_gcd",
    "polynomials.square_free_part",
    "polynomials.exact_roots_of",
    "matrices.Matrix.rank",
    "matrices.Matrix.nullspace",
    "matrices.Matrix.rref",
    "matrices.Matrix.det",
    "matrices.certified_nullspace",
    "matrices.poly_matrix_det",
    "matrices.Pencil.minor_polynomials",
    "matrices.Pencil.minor_gcd",
    "matrices.Pencil.minor_root_multiple",
    "matrices.Pencil.generic_rank",
    "matrices.Pencil.rank_profile",
    "ranges.slocc_signature",
    "ranges.count_product_states",
    "ranges.partner_rank",
    "ranges.quadric_profile",
    "ranges.exact_rank_one_in_span",
    "classify.classify",
    "classify.decide_equivalence",
    "classify.reduction_trace",
    "classify.find_equivalence_witness",
    "classify._solve_bc_given_a",
    "classify.StateInvariants.signature_key",
    "classify.StateInvariants.bc_profile_key",
    "classify.StateInvariants.partner_key",
    "classify.StateInvariants.quadric_key",
    "classify.canonical_invariants",
    "verify.verify_theorem",
    "verify.verify_appendix_theta45",
    "verify.term_rank",
)
# Layers with spans; scalar arithmetic is only counted.
LAYERS = ("stateio", "states", "operators", "polynomials", "matrices",
          "ranges", "classify", "verify")

# Counted scalar operations: counter name -> GaussianRational attributes.
# __rsub__, __truediv__ and __pow__ delegate to these, so are not counted twice.
SCALAR_COUNTERS = {
    "scalars.mul.calls": ("__mul__", "__rmul__"),
    "scalars.add.calls": ("__add__", "__radd__", "__sub__"),
    "scalars.inverse.calls": ("inverse",),
}
BIT_SIZED = ("matrices.Matrix.rank", "matrices.Matrix.nullspace",
             "matrices.Matrix.rref", "matrices.Matrix.det")
SEPARATORS = {
    "local ranks": "local_ranks",
    "signature": "signature",
    "pencil rank profile": "pencil_rank_profile",
    "partner-rank multiset": "partner_rank_multiset",
    "class label": "class_label",
}
SEPARATED_BY = tuple(SEPARATORS.values()) + ("other",)

# Functions each workload is known to run (set-up included); the traced run
# fails if any of them records no call, which catches a missed call site.
_COMMON = (
    "states.PureState.local_ranks", "states.compress_to_ranks",
    "polynomials.poly_gcd", "polynomials.square_free_part", "polynomials.exact_roots_of",
    "matrices.Matrix.rank", "matrices.Matrix.nullspace", "matrices.Matrix.rref",
    "matrices.Matrix.det", "matrices.certified_nullspace", "matrices.poly_matrix_det",
    "matrices.Pencil.minor_polynomials", "matrices.Pencil.minor_root_multiple",
    "matrices.Pencil.generic_rank", "matrices.Pencil.rank_profile",
    "ranges.slocc_signature", "ranges.count_product_states", "ranges.partner_rank",
    "ranges.quadric_profile",
    "classify.classify", "classify.StateInvariants.signature_key",
    "classify.StateInvariants.bc_profile_key", "classify.StateInvariants.partner_key",
    "classify.StateInvariants.quadric_key", "classify.canonical_invariants",
    "scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls",
)
EXPECTED_CALLS = {
    "classify-perturbed": _COMMON + (
        "stateio.state_from_json", "operators.decompose_elementary",
        "ranges.exact_rank_one_in_span", "classify.reduction_trace",
    ),
    "equiv-pairs": _COMMON + (
        "stateio.state_from_json", "operators.OperatorTriple.apply",
        "classify.decide_equivalence", "classify.find_equivalence_witness",
        "classify._solve_bc_given_a",
    ),
    "verify-paper": _COMMON + (
        "classify.decide_equivalence", "verify.verify_theorem",
        "verify.verify_appendix_theta45", "verify.term_rank",
    ),
}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "slocc2mn" or name.startswith("slocc2mn."))]


def _package_classes(modules):
    seen = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("slocc2mn"):
                seen[id(value)] = value
    return list(seen.values())


def _swap_in_tuple(value, swaps):
    """The tuple with every swapped object replaced, or None if none occurs."""
    changed = False
    items = []
    for item in value:
        if isinstance(item, tuple):
            new = _swap_in_tuple(item, swaps)
            if new is not None:
                item, changed = new, True
        elif id(item) in swaps and swaps[id(item)][0] is item:
            item, changed = swaps[id(item)][1], True
        items.append(item)
    return tuple(items) if changed else None


def _operand_bits(matrix) -> int:
    best = 0
    for row in matrix.entries:
        for e in row:
            for part in (e.re, e.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Wraps the targets; spans go to flat arrays, counts to ``counts``."""

    def __init__(self):
        self.names = list(TARGETS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts = {name: 0 for name in SCALAR_COUNTERS}
        self.counts.update({
            "matrices.max_operand_bits": 0,
            "polynomials.exact_roots_of.numeric_roots": 0,
            "witness.attempts": 0, "witness.found": 0,
            "bc_solve.calls": 0, "bc_solve.useful": 0,
        })
        self.counts.update({f"classify.separated_by.{s}": 0 for s in SEPARATED_BY})
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        index = self.names.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        pre = post = None
        counts = self.counts
        if name in BIT_SIZED:
            def pre(args):
                bits = _operand_bits(args[0])
                if bits > counts["matrices.max_operand_bits"]:
                    counts["matrices.max_operand_bits"] = bits
        elif name == "polynomials.exact_roots_of":
            def post(result):
                counts["polynomials.exact_roots_of.numeric_roots"] += len(result[1])
        elif name == "classify.find_equivalence_witness":
            def post(result):
                counts["witness.attempts"] += 1
                counts["witness.found"] += result is not None
        elif name == "classify._solve_bc_given_a":
            def post(result):
                counts["bc_solve.calls"] += 1
                counts["bc_solve.useful"] += result is not None
        elif name == "classify.decide_equivalence":
            def post(result):
                if result.separating_invariant is not None:
                    key = SEPARATORS.get(result.separating_invariant, "other")
                    counts[f"classify.separated_by.{key}"] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            i = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[counter] += 1
            return fn(*args)

        return wrapper

    # -- installing --------------------------------------------------------

    def _originals(self):
        """(original function, wrapper) for every target and scalar counter."""
        pairs = []
        for name in TARGETS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"slocc2mn.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = vars(owner)[path[-1]]
            pairs.append((fn, self._span_wrapper(fn, name)))
        gaussian = importlib.import_module("slocc2mn.scalars").GaussianRational
        for counter, attrs in SCALAR_COUNTERS.items():
            for attr in attrs:
                fn = vars(gaussian)[attr]
                if all(fn is not done for done, _ in pairs):
                    pairs.append((fn, self._count_wrapper(fn, counter)))
        return pairs

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        swaps = {id(fn): (fn, wrapper) for fn, wrapper in self._originals()}
        modules = _package_modules()
        for owner in modules + _package_classes(modules):
            for attr, value in list(vars(owner).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    new = swaps[id(value)][1]
                elif isinstance(value, tuple):
                    new = _swap_in_tuple(value, swaps)
                    if new is None:
                        continue
                else:
                    continue
                self._patched.append((owner, attr, value))
                setattr(owner, attr, new)
        leftover = self.unwrapped_references(swaps)
        if leftover:
            self.uninstall()
            raise RuntimeError(f"call sites left unwrapped: {leftover}")

    def unwrapped_references(self, swaps) -> list[str]:
        """Places in the package that still hold an original target."""
        found = []
        modules = _package_modules()
        for owner in modules + _package_classes(modules):
            for attr, value in vars(owner).items():
                if id(value) in swaps and swaps[id(value)][0] is value:
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                elif isinstance(value, tuple) and _swap_in_tuple(value, swaps) is not None:
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}[...]")
        return found

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per target, and the seconds top-level spans cover.

        A span's self time is its duration minus the durations of its direct
        children; wrapped calls nest strictly, so children never overlap.
        """
        n = len(self.span_start)
        if self._stack:
            raise RuntimeError("spans still open")
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = 0.0
        for i in range(n):
            duration = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += duration
            else:
                covered += duration
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        return ({name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}, covered)

    def spans(self):
        return [
            [self.names[self.span_name[i]], self.span_parent[i],
             self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_start))
        ]


def missing_calls(workload: str, metrics: dict) -> list[str]:
    """Functions known to run on this workload that recorded no call."""
    missing = []
    for name in EXPECTED_CALLS[workload]:
        key = name if name.endswith(".calls") else f"{name}.calls"
        if metrics[key]["value"] == 0:
            missing.append(name)
    return missing


def layer_metrics(tracer: Tracer, wall_s: float, untraced_pass_s: float,
                  traced_pass_s: float) -> dict:
    """Every per-layer metric, as {name: {"value", "unit"}}."""
    per_function, covered = tracer.self_times()
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s) in per_function.items():
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        layer_self[name.split(".")[0]] += self_s
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = {"value": seconds, "unit": "s"}
    counts = tracer.counts
    for name in SCALAR_COUNTERS:
        out[name] = {"value": counts[name], "unit": "count"}
    for name in ("matrices.max_operand_bits", "polynomials.exact_roots_of.numeric_roots"):
        unit = "bits" if name.endswith("bits") else "count"
        out[name] = {"value": counts[name], "unit": unit}
    for s in SEPARATED_BY:
        name = f"classify.separated_by.{s}"
        out[name] = {"value": counts[name], "unit": "count"}

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["classify.witness.found_ratio"] = {
        "value": ratio("witness.found", "witness.attempts"), "unit": "ratio"}
    out["classify.bc_solve.useful_ratio"] = {
        "value": ratio("bc_solve.useful", "bc_solve.calls"), "unit": "ratio"}
    out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    out["trace.unattributed_s"] = {"value": wall_s - covered, "unit": "s"}
    out["trace.untraced_pass_s"] = {"value": untraced_pass_s, "unit": "s"}
    out["trace.traced_pass_s"] = {"value": traced_pass_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_pass_s - untraced_pass_s, "unit": "s"}
    out["trace.spans"] = {"value": len(tracer.span_start), "unit": "count"}
    return out
