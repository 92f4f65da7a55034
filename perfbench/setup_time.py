"""Set-up a command-line user pays on every call: import, then canonical tables.

``classify`` fills its canonical-invariant table lazily, one shape at a time,
the first time a shape is seen; every tier key of every canonical state is
computed on first comparison.  This module does that work up front for every
shape a workload uses and times it, from before ``import slocc2mn``.

Run as a script it prints, for one set-up in a fresh process, its seconds and
its seconds at the reference host speed (see ``hostspeed.py``):

    python3 perfbench/setup_time.py <workload> <size>
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import ``slocc2mn`` from this checkout's ``src/``, or stop.

    A copy installed elsewhere must never stand in for the code under test.
    """
    if not (SRC / "slocc2mn" / "__init__.py").is_file():
        raise SystemExit(f"error: no slocc2mn sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fill_tables(shapes) -> None:
    classify_module = importlib.import_module("slocc2mn.classify")
    for dims in shapes:
        for inv in classify_module.canonical_invariants(dims).values():
            inv.signature_key()
            inv.bc_profile_key()
            inv.partner_key()
            inv.quadric_key()


def timed_setup(workload: str, size: str) -> tuple[float, float]:
    """Seconds to import slocc2mn and fill the workload's canonical tables,
    unscaled and at the reference host speed.

    Only the first call in a process measures a cold import.
    """
    use_checkout_source()
    with hostspeed.HostProbe() as probe:
        start = probe.mark()
        slocc2mn = importlib.import_module("slocc2mn")
        if not Path(slocc2mn.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: slocc2mn imported from {slocc2mn.__file__}, not {SRC}")
        from workloads import setup_shapes

        fill_tables(setup_shapes(workload, size))
        timing = probe.timing(start)
    return timing.seconds, timing.scaled()


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: setup_time.py <workload> <size>")
    print(*map(repr, timed_setup(sys.argv[1], sys.argv[2])))
