"""Command-line interface: exit codes, report schema, stdin handling."""

import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from slocc2mn.cli import main, EXIT_OK, EXIT_FAILED, EXIT_USAGE, EXIT_INTERNAL, EXIT_PIPE
from slocc2mn.states import PureState
from slocc2mn.stateio import dump_state, state_from_json, state_to_json
from slocc2mn.families import ClassLabel, make_canonical
from slocc2mn.operators import random_ilo
from slocc2mn.verify import random_full_rank_state

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "slocc2mn" / "schemas"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
STATE_SCHEMA = json.loads((SCHEMA_DIR / "state.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report, err


def test_gen_writes_valid_state_file(capsys, tmp_path):
    out = tmp_path / "psi3.json"
    code, report, _ = run_json(capsys, "gen", "Psi3", "--out", str(out))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Psi3"
    obj = json.loads(out.read_text())
    jsonschema.validate(obj, STATE_SCHEMA)
    assert state_from_json(obj).dims == (2, 3, 3)


def test_gen_parametric_family(capsys, tmp_path):
    out = tmp_path / "u.json"
    code, report, _ = run_json(capsys, "gen", "Upsilon0", "--m", "3", "--out", str(out))
    assert code == EXIT_OK
    assert report["result"]["dims"] == [2, 3, 6]


def test_gen_without_out_prints_state(capsys):
    code, out, _ = run_cli(capsys, "gen", "GHZ")
    assert code == EXIT_OK
    obj = json.loads(out)
    jsonschema.validate(obj, STATE_SCHEMA)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_out_dash_writes_the_state_file_alone(capsys, tmp_path, fmt):
    # with --out -, stdout carries the state file and no report, so it pipes
    # into a command that reads a state file from stdin
    theta2 = make_canonical(ClassLabel("Theta2", 2))
    code, out, _ = run_cli(capsys, "gen", "Theta2", "--m", "2", "--out", "-", "--format", fmt)
    assert code == EXIT_OK
    assert out == json.dumps(state_to_json(theta2), indent=2) + "\n"
    src = tmp_path / "theta2.json"
    src.write_text(out)
    argv = ["perturb", str(src), "--seed", "5", "--out", "-", "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    moved = state_from_json(json.loads(out))
    assert moved.amps == random_ilo(theta2.dims, 5).apply(theta2).amps


def test_out_dash_pipes_into_classify():
    src = str(SCHEMA_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    gen = subprocess.run(
        [sys.executable, "-m", "slocc2mn.cli", "gen", "GHZ", "--out", "-"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert gen.returncode == EXIT_OK, gen.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "slocc2mn.cli", "classify", "-", "--format", "json"],
        input=gen.stdout, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["result"]["label"] == "GHZ"


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
@pytest.mark.parametrize("command", ["gen", "perturb"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, command, where):
    state = tmp_path / "g.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(state))
    out = tmp_path if where == "directory" else tmp_path / "nonexistent" / "x.json"
    argv = ["gen", "GHZ"] if command == "gen" else ["perturb", str(state)]
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {str(out)!r}")
    assert "Traceback" not in err


def test_gen_missing_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "Upsilon0")
    assert code == EXIT_USAGE
    assert "error" in err


def test_signature_command(capsys, tmp_path):
    out = tmp_path / "w.json"
    run_cli(capsys, "gen", "W", "--out", str(out))
    code, report, _ = run_json(capsys, "signature", str(out))
    assert code == EXIT_OK
    assert report["result"]["signature"] == "[1,1,1]"
    assert report["result"]["local_ranks"] == [2, 2, 2]
    assert report["result"]["exact"] is True
    assert "bc_pencil_profile" in report["result"]


def test_signature_when_the_qubit_is_not_party_a(capsys, tmp_path):
    # Psi1 with the qubit as party B: the counts run on the normal form, with
    # the qubit first, and are reported in the input's party order
    p = tmp_path / "p.json"
    dump_state(make_canonical(ClassLabel("Psi1")).permute_parties("BAC"), str(p))
    code, report, err = run_json(capsys, "signature", str(p))
    assert code == EXIT_OK, err
    assert report["result"]["signature"] == "[3,0,3]"
    assert report["result"]["exact"] is True
    code, report, _ = run_json(capsys, "classify", str(p))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Psi1"


def test_signature_not_true_tripartite(capsys, tmp_path):
    p = tmp_path / "prod.json"
    p.write_text(
        json.dumps(
            {
                "dims": [2, 2, 2],
                "amplitudes": [{"index": [0, 0, 0], "re": "1", "im": "0"}],
            }
        )
    )
    code, report, _ = run_json(capsys, "signature", str(p))
    assert code == EXIT_OK
    assert report["result"]["signature"].startswith("NotTrueTripartite")


def test_classify_command(capsys, tmp_path):
    out = tmp_path / "t.json"
    run_cli(capsys, "gen", "Theta2", "--m", "2", "--out", str(out))
    code, report, _ = run_json(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Theta2(2)"
    assert report["result"]["invariants"]["signature"] == "[0,1,inf]"


def test_classify_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "GHZ")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, report, _ = run_json(capsys, "classify", "-")
    assert code == EXIT_OK
    assert report["result"]["label"] == "GHZ"


def test_perturb_then_classify_round_trip(capsys, tmp_path):
    src = tmp_path / "psi6.json"
    dst = tmp_path / "moved.json"
    run_cli(capsys, "gen", "Psi6", "--out", str(src))
    code, report, _ = run_json(
        capsys, "perturb", str(src), "--seed", "9", "--out", str(dst)
    )
    assert code == EXIT_OK
    assert set(report["result"]["ilo"]) == {"A", "B", "C"}
    code, report, _ = run_json(capsys, "classify", str(dst))
    assert report["result"]["label"] == "Psi6"


def test_equiv_command_equivalent_with_witness(capsys, tmp_path):
    src = tmp_path / "a.json"
    dst = tmp_path / "b.json"
    run_cli(capsys, "gen", "Psi1", "--out", str(src))
    run_cli(capsys, "perturb", str(src), "--seed", "4", "--out", str(dst))
    code, report, _ = run_json(capsys, "equiv", str(src), str(dst))
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "Equivalent"
    assert report["result"]["witness"] is not None


def test_equiv_command_inequivalent(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(a))
    run_cli(capsys, "gen", "W", "--out", str(b))
    code, report, _ = run_json(capsys, "equiv", str(a), str(b))
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "Inequivalent"
    assert report["result"]["separating_invariant"] == "signature"


def test_equiv_different_dims_is_usage_error(capsys, tmp_path):
    # equal local ranks, different dims: a usage error naming both dims
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "gen", "Psi1", "--out", str(a))
    s = state_from_json(json.loads(a.read_text()))
    padded = PureState((2, 3, 4), dict(s.amps))
    b.write_text(json.dumps(state_to_json(padded)))
    code, out, err = run_cli(capsys, "equiv", str(a), str(b))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (
        "error: states of equal local ranks have different dims (2, 3, 3) and (2, 3, 4)\n"
    )


@pytest.mark.parametrize(
    "content,message",
    [
        (b"[" * 100_000, "error: {path}: JSON nested too deeply"),
        (b'{"dims": \xff}', "error: cannot read '{path}': 'utf-8' codec can't decode"),
    ],
)
def test_unreadable_state_file_is_usage_error(capsys, tmp_path, content, message):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == EXIT_USAGE
    assert err.startswith(message.format(path=path))


def test_verify_command(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--theorem", "appendix", "--m", "2", "--trials", "5"
    )
    assert code == EXIT_OK
    assert report["ok"] is True


def test_verify_requires_m_for_appendix(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "appendix")
    assert code == EXIT_USAGE
    assert "requires --m" in err


@pytest.mark.parametrize(
    "target", [["two_by_two_by_three"], ["2"], ["appendix", "--m", "2"]]
)
def test_verify_zero_trials_is_usage_error(capsys, target):
    code, _, err = run_cli(capsys, "verify", "--theorem", *target, "--trials", "0")
    assert code == EXIT_USAGE
    assert "at least one trial" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/state.json")
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_upsilon0_9_signature_when_the_qubit_is_not_party_a(capsys, tmp_path):
    # with the qubit as party B or C, the counts of Upsilon0(9) run on its
    # normal form, with the qubit first, and come back in the input's order
    u9 = make_canonical(ClassLabel("Upsilon0", 9))
    expected = {"ABC": "[0,0,inf]", "BAC": "[0,0,inf]", "CBA": "[inf,0,0]", "ACB": "[0,inf,0]"}
    for order, signature in expected.items():
        out = tmp_path / f"u9-{order}.json"
        dump_state(u9.permute_parties(order), str(out))
        code, report, _ = run_json(capsys, "signature", str(out))
        assert code == EXIT_OK
        assert report["result"]["signature"] == signature


def test_signature_of_a_padded_state_counts_its_normal_form(capsys, tmp_path):
    # Psi1 padded into 3 x 4 x 4 and perturbed: its dims are not its local
    # ranks, so its ranges are no ranges of a normal form; signature counts
    # the normal form, as classify does, in the input's party order
    psi1 = make_canonical(ClassLabel("Psi1"))
    padded = random_ilo((3, 4, 4), 2).apply(PureState((3, 4, 4), dict(psi1.amps)))
    for order, expected in (("ABC", "[0,3,3]"), ("CAB", "[3,0,3]")):
        out = tmp_path / f"padded-{order}.json"
        dump_state(padded.permute_parties(order), str(out))
        code, report, err = run_json(capsys, "signature", str(out))
        assert code == EXIT_OK, err
        assert report["result"]["signature"] == expected
        assert report["result"]["local_ranks"] == [[2, 3, 3]["ABC".index(p)] for p in order]
        code, classified, _ = run_json(capsys, "classify", str(out))
        assert code == EXIT_OK
        assert classified["result"]["label"] == "Psi1"
        # classify reports the normal form's counts, qubit first
        assert classified["result"]["invariants"]["signature"] == "[0,3,3]"


def _full_rank_333(tmp_path, name="s333.json"):
    # local ranks (3, 3, 3): no qubit, so outside 2 x M x N
    state = random_full_rank_state((3, 3, 3), random.Random(1))
    assert state.local_ranks().as_tuple() == (3, 3, 3)
    out = tmp_path / name
    dump_state(state, str(out))
    return state, out


def test_signature_without_a_qubit_is_unsupported(capsys, tmp_path):
    # the counts need a qubit in the normal form
    _, out = _full_rank_333(tmp_path)
    code, stdout, err = run_cli(capsys, "signature", str(out))
    assert code == EXIT_FAILED
    assert stdout == ""
    assert err.startswith("unsupported: counting not supported")


def test_classify_without_a_qubit_is_unknown(capsys, tmp_path):
    _, out = _full_rank_333(tmp_path)
    code, report, _ = run_json(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Unknown"
    assert report["result"]["note"].endswith("outside coverage")
    assert "invariants" not in report["result"]
    code, text, _ = run_cli(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert text.splitlines() == [
        "label: Unknown", "note: smallest local rank 3 > 2 is outside coverage",
    ]


def test_equiv_without_a_qubit_is_undecided(capsys, tmp_path):
    state, out1 = _full_rank_333(tmp_path)
    out2 = tmp_path / "image.json"
    dump_state(random_ilo(state.dims, 3).apply(state), str(out2))
    code, report, _ = run_json(capsys, "equiv", str(out1), str(out2))
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "Undecided"
    assert "outside 2 x M x N" in report["result"]["detail"]


def test_upsilon0_9_is_past_the_minor_cap(capsys, tmp_path):
    # the signature and the pencil tiers read the rank profile of the qubit's
    # pencil, which enumerates no minors: Upsilon0(9), 2 x 9 x 18, is counted
    # and classified with its proof
    out = tmp_path / "u9.json"
    assert run_cli(capsys, "gen", "Upsilon0", "--m", "9", "--out", str(out))[0] == EXIT_OK
    code, report, _ = run_json(capsys, "signature", str(out))
    assert code == EXIT_OK
    assert report["result"]["signature"] == "[0,0,inf]"
    code, report, _ = run_json(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Upsilon0(9)"


def test_internal_check_failure_is_internal_error(capsys, tmp_path, monkeypatch):
    # a failed internal consistency check is neither a usage error nor a
    # traceback
    out = tmp_path / "g.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(out))

    def broken(_state):
        raise AssertionError("residual ranks outside the four-way split")

    # the package exports the function classify, which hides the module
    classify_module = importlib.import_module("slocc2mn.classify")
    monkeypatch.setattr(classify_module, "reduction_trace", broken)
    code, stdout, stderr = run_cli(capsys, "classify", str(out))
    assert code == EXIT_INTERNAL == 3
    assert stdout == ""
    assert stderr == "internal error: residual ranks outside the four-way split\n"


def test_classify_reports_a_long_proof_complete(capsys, tmp_path):
    # perturbed Upsilon0(7) needs 13 reduction steps, and every one is run
    gen, moved = tmp_path / "u7.json", tmp_path / "moved.json"
    run_cli(capsys, "gen", "Upsilon0", "--m", "7", "--out", str(gen))
    run_cli(capsys, "perturb", str(gen), "--seed", "7", "--out", str(moved))
    code, report, _ = run_json(capsys, "classify", str(moved))
    assert code == EXIT_OK
    assert report["result"]["proof_complete"] is True
    assert len(report["result"]["proof"]) == 13
    code, text, _ = run_cli(capsys, "classify", str(moved))
    assert "proof: 13 reduction step(s)" in text.splitlines()


def test_classify_reports_an_empty_proof_incomplete(capsys, tmp_path):
    # A-slices I and the companion matrix of t^3 - 2: no Gaussian-rational
    # product state in the AB range, so the proof has no step and says why
    amps = {(0, j, j): 1 for j in range(3)}
    amps.update({(1, 1, 0): 1, (1, 2, 1): 1, (1, 0, 2): 2})
    path = tmp_path / "cube_root.json"
    dump_state(PureState((2, 3, 3), amps), str(path))
    code, report, _ = run_json(capsys, "classify", str(path))
    assert code == EXIT_OK
    assert report["result"]["label"] == "Psi1"
    assert report["result"]["proof"] == []
    assert report["result"]["proof_complete"] is False
    code, text, _ = run_cli(capsys, "classify", str(path))
    assert (
        "proof: 0 reduction step(s), incomplete: no Gaussian-rational product "
        "state in the AB range" in text.splitlines()
    )


def test_text_format_default(capsys, tmp_path):
    out = tmp_path / "g.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(out))
    code, text, _ = run_cli(capsys, "classify", str(out))
    assert code == EXIT_OK
    assert "label: GHZ" in text


# det(T0 + t T1) = t^2 - 2 for the A-slices T0 = [[0,2,0],[1,0,0],[0,0,1]]
# and T1 = diag(1,1,0): two of the pencil's rank drops are at irrational roots
SURD_STATE = {
    "dims": [2, 3, 3],
    "amplitudes": [
        {"index": index, "re": re, "im": "0"}
        for index, re in (
            ([0, 0, 1], "2"), ([0, 1, 0], "1"), ([0, 2, 2], "1"),
            ([1, 0, 0], "1"), ([1, 1, 1], "1"),
        )
    ],
}


@pytest.mark.parametrize("command", ["signature", "classify", "equiv"])
def test_tolerance_option_is_gone(capsys, tmp_path, command):
    out = tmp_path / "g.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(out))
    states = [str(out)] * (2 if command == "equiv" else 1)
    with pytest.raises(SystemExit) as exc:
        main([command, *states, "--tolerance", "1e-9"])
    assert exc.value.code == EXIT_USAGE
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["gen", "signature", "classify", "equiv", "perturb", "verify"]
)
def test_seed_option_only_where_read(capsys, tmp_path, command):
    # perturb draws its operator and verify its random states from --seed;
    # the other commands are deterministic and take no seed
    out = tmp_path / "g.json"
    run_cli(capsys, "gen", "GHZ", "--out", str(out))
    argv = {
        "gen": ["gen", "GHZ"],
        "signature": ["signature", str(out)],
        "classify": ["classify", str(out)],
        "equiv": ["equiv", str(out), str(out)],
        "perturb": ["perturb", str(out)],
        # a block that reads its seed: the census draws its states from it
        "verify": ["verify", "--theorem", "upsilon0", "--m", "2", "--trials", "1"],
    }[command]
    if command in ("perturb", "verify"):
        code, report, _ = run_json(capsys, *argv, "--seed", "3")
        assert code == EXIT_OK and report["seed"] == 3
        return
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK and "seed" not in report
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_surd_signature_runs_without_numpy(tmp_path):
    # roots and the ranks at irrational roots are exact, so no float code is
    # loaded
    path = tmp_path / "surd.json"
    path.write_text(json.dumps(SURD_STATE))
    script = (
        "import sys\n"
        "from slocc2mn.cli import main\n"
        f"code = main(['signature', {str(path)!r}, '--format', 'json'])\n"
        "print('cmath' in sys.modules)\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    src = str(SCHEMA_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    *lines, cmath_loaded, numpy_loaded = proc.stdout.strip().splitlines()
    assert cmath_loaded == numpy_loaded == "False"
    report = json.loads("\n".join(lines))
    jsonschema.validate(report, REPORT_SCHEMA)
    result = report["result"]
    assert result["signature"] == "[0,3,3]"
    assert result["exact"] is False  # two of the three points have no rational witness
    profile = result["bc_pencil_profile"]
    assert profile["generic_rank"] == 3 and profile["rank_multiset"] == [2, 2, 2]
    assert [p["parameter"] for p in profile["exceptional"]] == [
        "root of (-2)*t^0 + (1)*t^2", "root of (-2)*t^0 + (1)*t^2", None,
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_pipe_exits_quietly(fmt):
    # the reader is gone before the child writes: 128 + SIGPIPE with no
    # traceback, not the verification-failure code
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(SCHEMA_DIR.parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "slocc2mn.cli", "verify", "--theorem", "appendix",
             "--m", "3", "--trials", "100", "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == ""


def test_classify_without_a_proof_reports_proof_complete_null(capsys, tmp_path):
    # local ranks (1, 2, 2), and a 3 x 3 x 3 GHZ-like state with no qubit:
    # no proof is built, so the report says null, and the text no proof line
    states = {
        "NotTrueTripartite": PureState.from_kets((2, 2, 2), [(0, 0, 0), (0, 1, 1)]),
        "Unknown": PureState.from_kets((3, 3, 3), [(0, 0, 0), (1, 1, 1), (2, 2, 2)]),
    }
    for label, state in states.items():
        path = tmp_path / f"{label}.json"
        dump_state(state, str(path))
        code, report, _ = run_json(capsys, "classify", str(path))
        assert code == EXIT_OK
        assert report["result"]["label"].startswith(label)
        assert (report["result"]["proof"], report["result"]["proof_complete"]) == ([], None)
        code, text, _ = run_cli(capsys, "classify", str(path))
        assert code == EXIT_OK
        assert not [line for line in text.splitlines() if line.startswith("proof")]
