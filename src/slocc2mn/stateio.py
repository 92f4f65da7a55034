"""JSON serialization of states, operators and command reports.

The state file format is deliberately small and exact::

    {"dims": [2, 3, 3],
     "amplitudes": [{"index": [0, 0, 0], "re": "1", "im": "0"}, ...]}

``re``/``im`` are rational strings ("p/q" or "p"), never floats.  ``-`` as a
path reads from stdin / writes to stdout.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .scalars import GaussianRational
from .states import PureState
from .operators import OperatorTriple
from .matrices import Matrix


class StateFileError(ValueError):
    """A malformed or inconsistent state file."""


# fullmatch: a pattern's "$" would also match before a trailing newline
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction_from(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise StateFileError(f"{where}: rational parts must be strings, got {text!r}")
    if not _RATIONAL_RE.fullmatch(text):
        raise StateFileError(f"{where}: bad rational {text!r}: expected 'p' or 'p/q'")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise StateFileError(f"{where}: bad rational {text!r}: {exc}") from exc


def _check_keys(obj: dict, keys, where: str) -> None:
    """Every key of ``keys`` present and no other (state.schema.json's
    ``required`` and ``additionalProperties: false``)."""
    for key in keys:
        if key not in obj:
            raise StateFileError(f"{where}: missing '{key}'")
    for key in obj:
        if key not in keys:
            raise StateFileError(f"{where}: unknown key {key!r}")


def state_to_json(s: PureState) -> dict:
    amplitudes = [
        {"index": list(idx), "re": str(v.re), "im": str(v.im)}
        for idx, v in sorted(s.amps.items())
    ]
    return {"dims": list(s.dims), "amplitudes": amplitudes}


def state_from_json(obj) -> PureState:
    if not isinstance(obj, dict):
        raise StateFileError("state file must be a JSON object")
    _check_keys(obj, ("dims", "amplitudes"), "state file")
    dims = obj["dims"]
    # type(x) is int: JSON true/false load as bool, a subclass of int
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(type(d) is int and d >= 1 for d in dims)
    ):
        raise StateFileError("'dims' must be three positive integers")
    entries = obj["amplitudes"]
    if not isinstance(entries, list) or not entries:
        raise StateFileError("'amplitudes' must be a non-empty list")
    dims = tuple(dims)
    amps: dict = {}
    for pos, entry in enumerate(entries):
        where = f"amplitudes[{pos}]"
        if not isinstance(entry, dict):
            raise StateFileError(f"{where}: must be an object")
        _check_keys(entry, ("index", "re", "im"), where)
        idx = entry["index"]
        if (
            not isinstance(idx, list)
            or len(idx) != 3
            or not all(type(i) is int for i in idx)
        ):
            raise StateFileError(f"{where}: 'index' must be three integers")
        idx = tuple(idx)
        if not all(0 <= idx[q] < dims[q] for q in range(3)):
            raise StateFileError(f"{where}: index {list(idx)} out of range for dims {list(dims)}")
        if idx in amps:
            raise StateFileError(f"{where}: duplicate index {list(idx)}")
        re = _fraction_from(entry["re"], f"{where}.re")
        im = _fraction_from(entry["im"], f"{where}.im")
        amps[idx] = GaussianRational(re, im)
    if all(v.is_zero() for v in amps.values()):
        raise StateFileError("state file has no nonzero amplitude")
    return PureState(dims, {k: v for k, v in amps.items() if not v.is_zero()})


def load_state(path: str) -> PureState:
    """Read a state file; '-' reads stdin."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StateFileError(f"cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise StateFileError(f"{path}: JSON nested too deeply") from exc
    return state_from_json(obj)


def dump_state(s: PureState, path: str) -> None:
    """Write a state file; '-' writes stdout."""
    text = json.dumps(state_to_json(s), indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StateFileError(f"cannot write {path!r}: {exc}") from exc


def matrix_to_json(m: Matrix) -> list:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def operator_triple_to_json(g: OperatorTriple) -> dict:
    mats = g.matrices()
    return {party: matrix_to_json(mats[party]) for party in ("A", "B", "C")}
