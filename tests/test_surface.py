"""Every library name has a caller outside the tests.

A top-level function, class or assignment, or a method, in
``src/slocc2mn/`` must be read somewhere in ``src/slocc2mn/`` or
``perfbench/``: as a name, an attribute, an imported name or a part of a
dotted string such as the tracer's ``"classify.StateInvariants.partner_key"``.
A name only the tests read is API the command line, the verifier and the
benchmark do not need.  Dunder names are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slocc2mn"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

ALLOWED = {
    # the replay oracle: tests rebuild each proof step from its ILO word
    "classify.apply_ilo_word",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _defined(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _referenced(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                yield from node.value.split(".")


def test_every_library_name_has_a_caller():
    used = {name for path in CALLERS for name in _referenced(path)}
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _defined(path)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    )
    assert [n for n in unused if n not in ALLOWED] == []
    # an allowlisted name that gained a caller no longer needs its entry
    assert set(unused) >= ALLOWED
