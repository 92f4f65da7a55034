"""Every library name has a caller outside the tests.

A top-level function, class or assignment, or a method, in
``src/slocc2mn/`` must be read somewhere in ``src/slocc2mn/`` or
``perfbench/``: as a name, an attribute, an imported name or a part of a
dotted string such as the tracer's ``"classify.StateInvariants.partner_key"``.
A name only the tests read is API the command line, the verifier and the
benchmark do not need.  Dunder names are exempt.

Conversely, every name the benchmark harness looks up must exist, so that a
deletion that would break ``perfbench/`` fails here first.
"""

import ast
import importlib
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


def _assigned_literal(path: Path, name: str):
    """The literal value a module assigns to ``name`` at top level."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _calls_on(path: Path, function: str, receiver: str):
    """Attribute names that ``function`` in ``path`` calls on ``receiver``."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return sorted({
                call.func.attr for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name) and call.func.value.id == receiver
            })
    raise AssertionError(f"{path.name} defines no {function}")


def test_benchmark_names_resolve():
    """Every name the benchmark harness looks up exists in the library.

    ``perfbench/tracer.py`` resolves each ``TARGETS`` entry with
    ``vars(owner)[name]``, and ``perfbench/setup_time.py``'s ``fill_tables``
    calls ``canonical_invariants`` and the invariant keys by name, so a
    rename or deletion there breaks every benchmark run.
    """
    targets = _assigned_literal(ROOT / "perfbench" / "tracer.py", "TARGETS")
    assert targets
    missing = []
    for name in targets:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"slocc2mn.{module_name}")
        for part in path[:-1]:
            owner = vars(owner).get(part)
            if owner is None:
                break
        if owner is None or path[-1] not in vars(owner):
            missing.append(name)
    classify = importlib.import_module("slocc2mn.classify")
    setup = ROOT / "perfbench" / "setup_time.py"
    module_calls = _calls_on(setup, "fill_tables", "classify_module")
    key_calls = _calls_on(setup, "fill_tables", "inv")
    assert module_calls and key_calls
    missing += [f"classify.{n}" for n in module_calls if n not in vars(classify)]
    missing += [
        f"classify.StateInvariants.{n}" for n in key_calls
        if n not in vars(classify.StateInvariants)
    ]
    assert missing == []


EXACT_KERNELS = ("scalars", "polynomials", "matrices", "states")


def test_exact_kernels_draw_no_random_numbers():
    """The exact kernels are deterministic: none of them imports ``random``,
    so a rank, root or rank profile never depends on a draw."""
    importers = []
    for name in EXACT_KERNELS:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "random" or m.startswith("random.") for m in modules):
                importers.append(name)
    assert importers == []
