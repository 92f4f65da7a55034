"""Benchmark of slocc2mn: one workload per process, answers checked from outside.

    python3 perfbench/run.py --workload classify-perturbed --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md): ``classify-perturbed``, ``equiv-pairs``,
``verify-paper``.  A run times set-up three times (here and in two fresh
processes), then runs whole passes of the workload until the next pass would
end past ``--seconds``; there is always at least one pass.  Inputs of a pass are
built from the seed before its timing starts, and every answer is checked
against the truth after the pass.  A wrong answer stops the run with exit 1.
Times are reported at a reference host speed, measured while they are taken
(``hostspeed.py``); the unscaled wall-clock figures are printed too.

``--trace 1`` instead runs one set-up and one pass with the tracer installed,
after the same pass untraced, and reports the per-layer metrics.  Spans and the
full report go to ``.perfbench-out/`` at the root of the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import setup_time

OUT_DIR = setup_time.ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MAX_TRACEBACKS = 3


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least ten of one pass's samples above it.

    Fixed by the pass size, not by how many passes fit in the run, so the tail
    of a faster program is the same percentile as that of a slower one.
    """
    return max(50, math.floor(100 * (1 - 10 / pass_size)))


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (the same rule as numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = setup_time.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import importlib.util

    import numpy

    scalars = sys.modules["slocc2mn.scalars"]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "rational_type": f"{scalars.Rational.__module__}.{scalars.Rational.__qualname__}",
        "git_commit": git_commit(),
    }


def child_setup_seconds(workload: str, size: str) -> tuple[float, float]:
    """Unscaled and scaled seconds of one set-up in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(setup_time.__file__)), workload, size],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
    seconds, scaled = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scaled)


def run_pass(ops, probe=None):
    """Time each operation; return [(op, answer or exception, seconds)].

    With a running ``hostspeed.HostProbe`` the seconds are ``Timing`` objects.
    """
    clock = time.perf_counter
    out = []
    for op in ops:
        start = probe.mark() if probe else clock()
        try:
            answer = op.run()
        except Exception as exc:  # an exception is a failed operation, not a crash
            answer = exc
        out.append((op, answer, probe.timing(start) if probe else clock() - start))
    return out


def check_pass(results, tally) -> None:
    """Count certified and failed answers; a wrong answer stops the run (exit 1)."""
    import workloads

    for op, answer, _ in results:
        tally["attempted"] += 1
        if isinstance(answer, Exception):
            tally["failed"] += 1
            if tally["tracebacks"] < MAX_TRACEBACKS:
                tally["tracebacks"] += 1
                print(f"operation {op.describe} raised:", file=sys.stderr)
                traceback.print_exception(answer, file=sys.stderr)
            continue
        try:
            status = op.check(answer)
        except workloads.WrongAnswer as exc:
            raise SystemExit(f"error: wrong answer: {exc}") from exc
        if status == workloads.CERTIFIED:
            tally["certified"] += 1
        else:
            tally["failed"] += 1
            tally["failures"].append(op.describe)


def new_tally() -> dict:
    return {"attempted": 0, "certified": 0, "failed": 0, "tracebacks": 0, "failures": []}


def timing_metrics(latencies_ms, certified: int, p_tail: int) -> dict:
    return {
        "ops_per_s": {"value": certified / (sum(latencies_ms) / 1000), "unit": "1/s"},
        "gmean_ms": {"value": statistics.geometric_mean(latencies_ms), "unit": "ms"},
        "tail_ms": {"value": percentile(latencies_ms, p_tail), "unit": "ms"},
    }


def measure(args) -> tuple[dict, dict, dict]:
    """Untraced run: set-up three times, then timed passes.

    Every time is reported at the reference host speed (``hostspeed.py``); the
    unscaled wall-clock figures go to the report as ``wall_clock``.
    """
    setups = [setup_time.timed_setup(args.workload, args.size)]
    setups += [child_setup_seconds(args.workload, args.size)
               for _ in range(SETUP_REPEATS - 1)]
    import workloads

    tally = new_tally()
    timings = []  # (op, hostspeed.Timing)
    pass_seconds: list[float] = []
    pass_size = 0
    with hostspeed.HostProbe() as probe:
        while True:
            ops = workloads.build_pass(args.workload, args.size, args.seed, len(pass_seconds))
            pass_size = len(ops)
            results = run_pass(ops, probe)
            check_pass(results, tally)
            timings += [(op, timing) for op, _, timing in results]
            pass_seconds.append(sum(timing.seconds for _, _, timing in results))
            spent = sum(pass_seconds)
            if spent + spent / len(pass_seconds) > args.seconds:
                break
    samples = [(op.kind, op.describe, timing.scaled()) for op, timing in timings]
    wall_s = [timing.seconds for _, timing in timings]

    latencies = [seconds * 1000 for _, _, seconds in samples]
    p_tail = tail_percentile(pass_size)
    n = len(latencies)
    metrics = {
        "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
        **timing_metrics(latencies, tally["certified"], p_tail),
        "decided_frac": {"value": tally["certified"] / tally["attempted"], "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    wall_clock = {
        "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
        **timing_metrics([s * 1000 for s in wall_s], tally["certified"], p_tail),
    }
    samples_of = {
        "setup_s": len(setups), "ops_per_s": n, "gmean_ms": n, "tail_ms": n,
        "decided_frac": tally["attempted"], "peak_rss_mb": 1,
    }
    detail = {
        "passes": len(pass_seconds),
        "pass_size": pass_size,
        "tail_percentile": p_tail,
        "samples": samples_of,
        "wall_clock": wall_clock,
        "host_probe_ms": {
            "reference": hostspeed.REFERENCE_S * 1000,
            "period": hostspeed.PERIOD_S * 1000,
            "median": statistics.median(s for _, s in probe.samples) * 1000,
            "min": min(s for _, s in probe.samples) * 1000,
            "max": max(s for _, s in probe.samples) * 1000,
            "n": len(probe.samples),
        },
        "setup_samples_s": [s for s, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "pass_samples_s": pass_seconds,
        "workload_metrics": workload_metrics(
            args.workload, metrics, samples, p_tail, pass_size),
        "operations_ms": [[describe, seconds * 1000, wall * 1000]
                          for (_, describe, seconds), wall in zip(samples, wall_s)],
    }
    return metrics, detail, tally


def workload_metrics(workload, metrics, samples, p_tail, pass_size) -> dict:
    """Per-workload metrics, with sample counts, that are not gated.

    Medians are printed here rather than gated: a pass mixes labels whose
    costs differ a hundredfold, the median falls in a gap between them, and it
    jumps with the seed (quartile spread 0.19-0.31 over ten seeds, against
    0.14-0.16 for the geometric mean).
    """
    def entry(value, unit, n, **extra):
        return dict(value=value, unit=unit, n=n, **extra)

    def latencies_ms(kind):
        return [s * 1000 for k, _, s in samples if k == kind]

    n = len(samples)
    if workload == "classify-perturbed":
        return {
            "classify_per_s": entry(metrics["ops_per_s"]["value"], "states/s", n),
            "classify_p50_ms": entry(percentile(latencies_ms("classify"), 50), "ms", n),
            "classify_tail_ms": entry(metrics["tail_ms"]["value"], "ms", n, percentile=p_tail),
        }
    if workload == "equiv-pairs":
        eq, ineq = latencies_ms("eq"), latencies_ms("ineq")
        return {
            "equiv_per_s": entry(metrics["ops_per_s"]["value"], "pairs/s", n),
            "equiv_eq_p50_ms": entry(percentile(eq, 50), "ms", len(eq)),
            "equiv_ineq_p50_ms": entry(percentile(ineq, 50), "ms", len(ineq)),
            "equiv_tail_ms": entry(metrics["tail_ms"]["value"], "ms", n, percentile=p_tail),
        }
    pass_seconds = [sum(s for _, _, s in samples[i:i + pass_size])
                    for i in range(0, len(samples), pass_size)]
    return {"verify_s": entry(statistics.median(pass_seconds), "s", len(pass_seconds))}


def measure_traced(args) -> tuple[dict, dict, dict]:
    """One traced set-up and pass, after the same pass untraced."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    shapes = workloads.setup_shapes(args.workload, args.size)
    tracer.install()
    try:
        t0 = time.perf_counter()
        setup_time.fill_tables(shapes)
        traced_setup_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    ops = workloads.build_pass(args.workload, args.size, args.seed, 0)
    untraced = run_pass(ops)
    check_pass(untraced, new_tally())
    tracer.install()
    try:
        traced = run_pass(ops)
    finally:
        tracer.uninstall()
    tally = new_tally()
    check_pass(traced, tally)

    untraced_s = sum(s for _, _, s in untraced)
    traced_s = sum(s for _, _, s in traced)
    metrics = tracing.layer_metrics(tracer, traced_setup_s + traced_s, untraced_s, traced_s)
    missing = tracing.missing_calls(args.workload, metrics)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json.gz"
    with gzip.open(spans_file, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start", "end"], "spans": tracer.spans()}, fh)
    detail = {"pass_size": len(ops), "spans_file": str(spans_file.relative_to(setup_time.ROOT)),
              "missing_calls": missing}
    return metrics, detail, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify-perturbed", "equiv-pairs", "verify-paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    setup_time.use_checkout_source()
    if args.trace:
        metrics, detail, tally = measure_traced(args)
    else:
        metrics, detail, tally = measure(args)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "attempted": tally["attempted"], "failed": tally["failed"],
        "failed_operations": tally["failures"], "metrics": metrics, **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    report_file = OUT_DIR / (
        f"report-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    report_file.write_text(json.dumps(report, indent=1) + "\n")

    for name, metric in metrics.items():
        n = detail.get("samples", {}).get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{suffix}")
    for name, metric in detail.get("wall_clock", {}).items():
        print(f"{'wall-clock ' + name:48s} {metric['value']:.6g} {metric['unit']}  (unscaled)")
    for name, metric in detail.get("workload_metrics", {}).items():
        extra = f", p{metric['percentile']}" if "percentile" in metric else ""
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}  (n={metric['n']}{extra})")
    if args.trace and detail["missing_calls"]:
        print(f"error: no calls recorded for {detail['missing_calls']}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": report["environment"],
                      "report": str(report_file.relative_to(setup_time.ROOT))}))
    print(json.dumps({
        "correct": True,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
