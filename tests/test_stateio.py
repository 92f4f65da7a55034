"""State file round trips, validation errors, and JSON schema conformance."""

import json
from pathlib import Path

import jsonschema
import pytest

from slocc2mn.scalars import GaussianRational
from slocc2mn.states import PureState
from slocc2mn.operators import random_ilo
from slocc2mn.families import ClassLabel, make_canonical
from slocc2mn.stateio import (
    StateFileError,
    state_to_json,
    state_from_json,
    load_state,
    dump_state,
    matrix_to_json,
    operator_triple_to_json,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "slocc2mn" / "schemas"
STATE_SCHEMA = json.loads((SCHEMA_DIR / "state.schema.json").read_text())


def test_round_trip_canonical_states():
    for label in ("GHZ", "W", "Psi2", "Phi1Example"):
        s = make_canonical(ClassLabel(label))
        obj = state_to_json(s)
        jsonschema.validate(obj, STATE_SCHEMA)
        assert state_from_json(obj) == s


def test_round_trip_fractional_and_imaginary_amplitudes():
    s = PureState(
        (2, 2, 2),
        {
            (0, 0, 0): GaussianRational(1, 2),
            (1, 1, 1): GaussianRational(-3, 0) / GaussianRational(7),
            (0, 1, 1): GaussianRational(0, -5),
        },
    )
    obj = state_to_json(s)
    jsonschema.validate(obj, STATE_SCHEMA)
    back = state_from_json(obj)
    assert back.amps == s.amps


def test_file_round_trip(tmp_path):
    s = make_canonical(ClassLabel("Theta0", 2))
    p = tmp_path / "state.json"
    dump_state(s, str(p))
    assert load_state(str(p)) == s


def test_load_errors(tmp_path):
    with pytest.raises(StateFileError, match="cannot read"):
        load_state(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StateFileError, match="invalid JSON"):
        load_state(str(bad))
    # nested past the recursion limit, and bytes that are not UTF-8: each
    # error names the file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(StateFileError, match=f"{deep}: JSON nested too deeply"):
        load_state(str(deep))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"dims": [2, 2, 2], \xff}')
    with pytest.raises(StateFileError, match=f"cannot read '{binary}': 'utf-8' codec"):
        load_state(str(binary))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda o: o.update(dims=[2, 2]), "'dims'"),
        (lambda o: o.update(dims=[2, 2, 0]), "'dims'"),
        # JSON booleans are not integers (state.schema.json rejects them too)
        (lambda o: o.update(dims=[2, 2, True]), "'dims'"),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, False], "re": "1", "im": "0"}
            ),
            "'index'",
        ),
        (lambda o: o.update(amplitudes=[]), "non-empty"),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 5], "re": "1", "im": "0"}
            ),
            "out of range",
        ),
        (
            lambda o: o["amplitudes"].append(dict(o["amplitudes"][0])),
            "duplicate index",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 0], "re": "1.5", "im": "0"}
            ),
            "bad rational",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 0], "re": 1, "im": "0"}
            ),
            "must be strings",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": "000", "re": "1", "im": "0"}
            ),
            "three integers",
        ),
        # state.schema.json rejects each of these five as well: its rational
        # pattern allows no whitespace, every amplitude needs both parts, and
        # neither level admits other keys
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 0], "re": " 1 ", "im": "0"}
            ),
            r"amplitudes\[0\]\.re: bad rational",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 0], "re": "1\n", "im": "0"}
            ),
            r"amplitudes\[0\]\.re: bad rational",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(0, {"index": [0, 0, 0], "re": "1"}),
            "missing 'im'",
        ),
        (
            lambda o: o["amplitudes"].__setitem__(
                0, {"index": [0, 0, 0], "re": "1", "im": "0", "phase": "0"}
            ),
            "unknown key 'phase'",
        ),
        (lambda o: o.update(comment="GHZ"), "unknown key 'comment'"),
    ],
)
def test_validation_errors(mutate, message):
    obj = state_to_json(make_canonical(ClassLabel("GHZ")))
    mutate(obj)
    with pytest.raises(StateFileError, match=message):
        state_from_json(obj)


def test_all_zero_amplitudes_rejected():
    obj = {
        "dims": [2, 2, 2],
        "amplitudes": [{"index": [0, 0, 0], "re": "0", "im": "0"}],
    }
    with pytest.raises(StateFileError, match="no nonzero amplitude"):
        state_from_json(obj)


def test_non_object_rejected():
    with pytest.raises(StateFileError):
        state_from_json([1, 2, 3])


def test_operator_triple_serialization():
    g = random_ilo((2, 3, 3), 7)
    obj = operator_triple_to_json(g)
    assert set(obj) == {"A", "B", "C"}
    assert len(obj["B"]) == 3 and len(obj["B"][0]) == 3
    mats = g.matrices()
    grid = matrix_to_json(mats["A"])
    assert grid[0][0] == str(mats["A"][0, 0])
