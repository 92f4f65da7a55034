"""Tests of the benchmark's own code, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check_counts  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, prelude=None):
    """Run the benchmark command; ``prelude`` is Python run before its main()."""
    argv = ["--seconds", "1", "--size", "tiny", *args]
    if prelude is None:
        cmd = [sys.executable, "perfbench/run.py", *argv]
    else:
        code = (f"import sys; sys.path[:0] = ['perfbench', 'src']\n"
                f"{prelude}\nimport run\nsys.exit(run.main({argv!r}))")
        cmd = [sys.executable, "-c", code]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_tail_percentile_leaves_ten_samples_of_a_pass_above_it():
    assert run.tail_percentile(37) == 72
    assert 37 * (1 - 0.72) >= 10 > 37 * (1 - 0.73)
    assert run.tail_percentile(12) == 50
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([1, 2, 3, 4, 5], 75) == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_and_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = done.stdout.splitlines()
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert value > 0, name
        assert any(line.startswith(name + " ") and f" {unit}" in line for line in lines), name


def test_host_probe_is_taken_out_of_timings_and_scales_them():
    with hostspeed.HostProbe() as probe:
        start = probe.mark()
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
        timing = probe.timing(start)
    assert len(probe.samples) >= 3
    assert timing.seconds == pytest.approx(timing.t1 - timing.t0 - probe.probe_s)
    near = statistics.median(s for _, s in probe.samples)
    assert timing.scaled() == pytest.approx(timing.seconds * hostspeed.REFERENCE_S / near)


def test_traced_run_prints_every_layer_metric_and_self_times_add_up():
    done = bench("--workload", "equiv-pairs", "--seed", "3", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = last_json(done.stdout)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    wall = metrics["trace.wall_s"]["value"]
    assert layer_self + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall)
    assert 0 <= metrics["trace.unattributed_s"]["value"] < 0.05 * wall
    assert metrics["classify.witness.found_ratio"]["value"] > 0


def test_counts_repeat_across_processes():
    assert check_counts.main(["--workload", "equiv-pairs", "--seed", "3", "--size", "tiny"]) == 0


def test_injected_wrong_answer_exits_nonzero():
    prelude = (
        "import slocc2mn\n"
        "from slocc2mn.families import ClassLabel\n"
        "real = slocc2mn.classify\n"
        "def wrong(state, **kw):\n"
        "    result = real(state, **kw)\n"
        "    result.label = ClassLabel('GHZ' if result.label.family == 'W' else 'W')\n"
        "    return result\n"
        "slocc2mn.classify = wrong\n"
    )
    done = bench("--workload", "classify-perturbed", "--seed", "3", "--trace", "0",
                 prelude=prelude)
    assert done.returncode != 0
    assert "wrong answer" in done.stderr
    assert '"correct"' not in done.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "classify-perturbed", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrapping_reaches_every_call_site():
    import importlib

    classify = importlib.import_module("slocc2mn.classify")
    matrices = importlib.import_module("slocc2mn.matrices")
    polynomials = importlib.import_module("slocc2mn.polynomials")
    ranges = importlib.import_module("slocc2mn.ranges")
    original = {
        "roots": polynomials.exact_roots_of,
        "tiers": classify._TIERS,
        "signature": ranges.slocc_signature,
    }
    t = tracing.Tracer()
    t.install()
    try:
        assert ranges.exact_roots_of is not original["roots"]
        assert matrices.exact_roots_of is ranges.exact_roots_of is polynomials.exact_roots_of
        assert classify.slocc_signature is ranges.slocc_signature is not original["signature"]
        assert classify._TIERS[0][1] is classify.StateInvariants.signature_key
        # a call site the tracer did not reach is reported
        swaps = {id(fn): (fn, None) for fn in (original["roots"],)}
        assert t.unwrapped_references(swaps) == []
        ranges.exact_roots_of = original["roots"]
        assert t.unwrapped_references(swaps) == ["slocc2mn.ranges.exact_roots_of"]
    finally:
        t.uninstall()
    assert polynomials.exact_roots_of is original["roots"]
    assert ranges.exact_roots_of is original["roots"]
    assert classify._TIERS is original["tiers"]


def test_zero_call_gate_names_silent_layers():
    metrics = {f"{name}.calls": {"value": 1} for name in tracing.TARGETS}
    metrics.update({name: {"value": 1} for name in tracing.SCALAR_COUNTERS})
    assert tracing.missing_calls("classify-perturbed", metrics) == []
    metrics["ranges.quadric_profile.calls"]["value"] = 0
    metrics["scalars.mul.calls"]["value"] = 0
    assert tracing.missing_calls("classify-perturbed", metrics) == [
        "ranges.quadric_profile", "scalars.mul.calls"]
