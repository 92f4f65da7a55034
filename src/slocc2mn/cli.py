"""Command-line front end.

Commands: gen, signature, classify, equiv, perturb, verify.  Every command
honors ``--format json|text``; JSON output follows schemas/report.schema.json.
``perturb`` and ``verify`` draw from ``--seed``; the others are deterministic.
Exit codes: 0 success, 1 verification failure or a ``signature`` of a state
with no qubit, whose smallest local rank is 3 or more (reported as
``unsupported:``), 2 usage or parse errors, 3 a failed internal consistency
check (an ``AssertionError``, reported as ``internal error:``), 141 (128 +
SIGPIPE, nothing on stderr) when the reader closed stdout first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .families import ClassLabel, make_canonical, SMALL_FAMILIES, PARAMETRIC_FAMILIES
from .polynomials import Poly
from .operators import random_ilo
from .states import PARTIES, LocalRankProfile
from .ranges import UnsupportedSubspaceError, Signature, bc_pencil
from .classify import classify, decide_equivalence, _normal_form
from .verify import THEOREM_BLOCKS, verify_theorem, verify_appendix_theta45
from .stateio import (
    load_state,
    dump_state,
    state_to_json,
    operator_triple_to_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


def _parameter_to_json(parameter):
    if isinstance(parameter, Poly):
        return f"root of {parameter}"
    return None if parameter is None else str(parameter)


def _profile_to_json(profile) -> dict:
    points = [
        {"location": p.location, "rank": p.rank, "parameter": _parameter_to_json(p.parameter)}
        for p in profile.exceptional
    ]
    return {
        "generic_rank": profile.generic_rank,
        "exceptional": points,
        "rank_multiset": list(profile.rank_multiset()),
    }


def _factor_to_json(f) -> dict:
    out = {"party": f.party, "kind": f.kind, "i": f.i}
    if f.kind in ("add", "swap"):
        out["j"] = f.j
    if f.kind in ("add", "scale"):
        out["alpha"] = str(f.alpha)
    return out


def _proof_to_json(steps) -> list:
    out = []
    for step in steps:
        out.append(
            {
                "input_dims": list(step.input_dims),
                "ilo_word": [_factor_to_json(f) for f in step.ilo_word],
                "residual_dims": list(step.residual.dims),
            }
        )
    return out


def _emit(args, inputs: dict, result: dict, t0: float, text_lines, ok: bool = True) -> None:
    """Print the text lines, or the report envelope of schemas/report.schema.json,
    which carries ``seed`` and ``trials`` only for the commands that take them."""
    if args.format != "json":
        for line in text_lines:
            print(line)
        return
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "elapsed_seconds": time.monotonic() - t0,
        "ok": ok,
    }
    for option in ("seed", "trials"):
        if option in args:
            report[option] = getattr(args, option)
    print(json.dumps(report, indent=2, sort_keys=True))


def _write_state(args, state, inputs: dict, result: dict, t0: float, text_lines) -> int:
    """Write ``state`` where ``--out`` points, then report.  With ``--out -``,
    or with no ``--out`` in text mode, stdout carries the state file alone."""
    if args.out == "-" or (args.out is None and args.format == "text"):
        dump_state(state, "-")
        return EXIT_OK
    if args.out is not None:
        dump_state(state, args.out)
        text_lines = text_lines + [f"wrote: {args.out}"]
    _emit(args, inputs, result, t0, text_lines)
    return EXIT_OK


def cmd_gen(args) -> int:
    t0 = time.monotonic()
    label = ClassLabel(args.family, args.m)
    state = make_canonical(label)
    return _write_state(
        args,
        state,
        {"family": args.family, "m": args.m, "out": args.out},
        {"label": label.render(), "dims": list(state.dims), "state": state_to_json(state)},
        t0,
        [f"label: {label.render()}", f"dims: {list(state.dims)}"],
    )


def cmd_signature(args) -> int:
    t0 = time.monotonic()
    state = load_state(args.state)
    # the counts run on the normal form, whose party q is the input's
    # order[q]; ranks and counts are reported in the input's party order
    inv, order = _normal_form(state)
    back = [order.index(p) for p in PARTIES]
    ranks = tuple(inv.state.dims[q] for q in back)
    result: dict = {"dims": list(state.dims), "local_ranks": list(ranks)}
    lines = [f"dims: {list(state.dims)}", f"local ranks: {list(ranks)}"]
    if min(ranks) < 2:
        rendered = f"NotTrueTripartite(ranks {','.join(map(str, ranks))})"
        result["signature"] = rendered
        lines.append(rendered)
    else:
        sig = Signature(LocalRankProfile(*ranks), tuple(inv.signature.counts[q] for q in back))
        result["signature"] = sig.render()
        result["exact"] = all(c.exact for c in sig.counts)
        lines.append(f"signature: {sig.render()}")
        if ranks[0] == 2:
            profile = bc_pencil(state).rank_profile()
            result["bc_pencil_profile"] = _profile_to_json(profile)
            lines.append(
                "bc pencil profile: generic rank "
                f"{profile.generic_rank}, exceptional ranks "
                f"{list(profile.rank_multiset())}"
            )
    _emit(args, {"state": args.state}, result, t0, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    t0 = time.monotonic()
    state = load_state(args.state)
    res = classify(state)
    result = {
        "label": res.label.render(),
        "note": res.note,
        "proof": _proof_to_json(res.proof),
        "proof_complete": res.proof_complete,
    }
    if res.invariants is not None:
        inv = res.invariants
        result["invariants"] = {
            "local_ranks": list(inv.ranks.as_tuple()),
            "signature": inv.signature.render(),
        }
    lines = [f"label: {res.label.render()}"]
    if res.note:
        lines.append(f"note: {res.note}")
    if "invariants" in result:
        lines.append(f"signature: {result['invariants']['signature']}")
    if result["proof"] or res.proof_complete is False:
        stop = "" if res.proof_complete else (
            ", incomplete: no Gaussian-rational product state in the AB range"
        )
        lines.append(f"proof: {len(result['proof'])} reduction step(s){stop}")
    _emit(args, {"state": args.state}, result, t0, lines)
    return EXIT_OK


def cmd_equiv(args) -> int:
    t0 = time.monotonic()
    s1 = load_state(args.state1)
    s2 = load_state(args.state2)
    verdict = decide_equivalence(s1, s2)
    result = {
        "verdict": verdict.kind,
        "separating_invariant": verdict.separating_invariant,
        "detail": verdict.detail,
        "witness": None,
    }
    lines = [f"verdict: {verdict.kind}"]
    if verdict.kind == "Inequivalent":
        lines.append(f"separated by: {verdict.separating_invariant}")
    if verdict.witness is not None:
        result["witness"] = operator_triple_to_json(verdict.witness)
        lines.append("witness: exact invertible local operator triple attached (json format)")
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    _emit(args, {"state1": args.state1, "state2": args.state2}, result, t0, lines)
    return EXIT_OK


def cmd_perturb(args) -> int:
    t0 = time.monotonic()
    state = load_state(args.state)
    triple = random_ilo(state.dims, args.seed)
    perturbed = triple.apply(state)
    return _write_state(
        args,
        perturbed,
        {"state": args.state, "out": args.out},
        {
            "dims": list(perturbed.dims),
            "state": state_to_json(perturbed),
            "ilo": operator_triple_to_json(triple),
        },
        t0,
        [f"dims: {list(perturbed.dims)}", f"seed: {args.seed}"],
    )


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    which = args.theorem
    if which == "appendix":
        if args.m is None:
            raise ValueError("verify --theorem appendix requires --m")
        result = verify_appendix_theta45(args.m, trials=args.trials, seed=args.seed)
    else:
        result = verify_theorem(
            which, m_parameter=args.m, trials=args.trials, seed=args.seed
        )
    ok = bool(result.get("ok"))
    lines = [f"theorem: {which}", f"ok: {ok}"]
    if which == "appendix":
        lines.append(f"method: {result['method']}, term rank {result['term_rank']}")
        for name, held in result["identities"].items():
            lines.append(f"identity {name}: {'holds' if held else 'fails'}")
        lines.append(f"domain: {result['domain']}")
        lines.append(f"outside the claim: {result['outside_claim']}")
    else:
        for fam in result.get("families", []):
            mark = "" if fam["signature_matches"] else "  (differs from displayed bracket)"
            lines.append(f"{fam['label']}: signature {fam['signature']}{mark}")
        if "pairs" in result:
            lines.append(
                "pairs inequivalent: "
                f"{sum(1 for p in result['pairs'] if p['verdict'] == 'Inequivalent')}"
                f"/{len(result['pairs'])}"
            )
        if "census" in result:
            lines.append(f"census: {result['census']}")
    _emit(args, {"theorem": which, "m": args.m}, result, t0, lines, ok)
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slocc2mn",
        description="Exact SLOCC classification of true tripartite 2 x M x N states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, trials=False):
        p.add_argument("--format", choices=("json", "text"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if trials:
            p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("gen", help="emit a canonical family state as a state file")
    p.add_argument("family", choices=tuple(SMALL_FAMILIES) + tuple(PARAMETRIC_FAMILIES))
    p.add_argument("--m", type=int, default=None, help="family parameter M")
    p.add_argument("--out", default=None, help="destination path ('-' for stdout)")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("signature", help="local ranks, product-count signature, pencil profile")
    p.add_argument("state", help="state file path or '-' for stdin")
    common(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("classify", help="assign a class label with a proof trace")
    p.add_argument("state", help="state file path or '-' for stdin")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equiv", help="decide SLOCC equivalence of two states")
    p.add_argument("state1")
    p.add_argument("state2")
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("perturb", help="apply a seeded random invertible local operator")
    p.add_argument("state", help="state file path or '-' for stdin")
    p.add_argument("--out", default=None, help="destination path ('-' for stdout)")
    common(p, seed=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify", help="re-derive a theorem block or the appendix argument")
    p.add_argument(
        "--theorem",
        required=True,
        choices=(*THEOREM_BLOCKS, "appendix"),
    )
    p.add_argument("--m", type=int, default=None, help="family parameter M")
    common(p, seed=True, trials=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UnsupportedSubspaceError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
