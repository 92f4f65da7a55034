"""How fast the host runs, probed while the benchmark times the program.

The host this benchmark was tuned on shares its cores with other machines:
the same work takes up to 1.5 times longer for minutes at a time, and the
process cannot see it (its CPU time grows with wall time, and no steal time
shows).  So while the program is timed, a fixed probe loop runs every
``PERIOD_S`` seconds from a timer signal, between the program's own bytecodes,
and each timing is reported at the reference host speed::

    scaled = program seconds * REFERENCE_S / median probe near the timing

The probe does integer arithmetic only, which the garbage collector does not
track, so nothing the program does changes its cost; only the host's speed
does.  Time spent in the probe is taken out of the program's timing.  The
unscaled figures are reported too.  The program installs no SIGALRM handler
of its own.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# The reference host speed: the one at which ``probe_seconds`` takes 2 ms (a
# quiet 2-vCPU Xeon host takes about that).  It sets the scale of every time
# reported, so it must never change.
REFERENCE_S = 0.002
PERIOD_S = 0.1
# Probes this long before a timing starts and after it ends also count, so a
# short timing still has several.
MARGIN_S = 0.5
# Fixed odd 2000-bit operands for the probe.
_OPERANDS = [random.Random(k).getrandbits(2000) | 1 for k in range(8)]


def probe_seconds() -> float:
    """Time a fixed loop of integer arithmetic, about 2.5 ms.

    Each step makes a fresh 2000-bit integer and reduces it by another, then
    takes a few small-integer steps.  Integers are not tracked by the garbage
    collector.
    """
    b = _OPERANDS
    t0 = time.perf_counter()
    x = 0
    for j in range(1200):
        x += (b[j % 8] + j) % b[(j + 5) % 8] & 1
        for i in range(12):
            x = (x * 31 + i) % 1000003
    return time.perf_counter() - t0


class HostProbe:
    """Probes the host every PERIOD_S seconds while it is entered.

    ``samples`` holds (perf_counter at the probe's end, probe seconds);
    ``probe_s`` is the total time the probes took, taken out by ``timing``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.probe_s = 0.0
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = probe_seconds()
        t1 = time.perf_counter()
        self.samples.append((t1, seconds))
        self.probe_s += t1 - t0

    def __enter__(self) -> "HostProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if not self.samples:  # entered for less than one period
            self.samples.append((time.perf_counter(), probe_seconds()))

    def mark(self) -> tuple[float, float]:
        """The clock and the probe total, to pass to ``timing`` later."""
        return time.perf_counter(), self.probe_s

    def timing(self, start: tuple[float, float]) -> "Timing":
        """The program's time since ``start`` (a ``mark``), probes taken out."""
        t0, probe_s0 = start
        t1 = time.perf_counter()
        return Timing(self, t0, t1, (t1 - t0) - (self.probe_s - probe_s0))

    def probe_near(self, t0: float, t1: float) -> float:
        """Median probe from MARGIN_S before t0 to MARGIN_S after t1."""
        near = [s for at, s in self.samples if t0 - MARGIN_S <= at <= t1 + MARGIN_S]
        if not near:  # the timer has not fired near this timing: the nearest probe
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t1))[1]]
        return statistics.median(near)


class Timing:
    """One timed stretch of the program: unscaled and at the reference speed."""

    def __init__(self, probe: HostProbe, t0: float, t1: float, seconds: float):
        self._probe, self.t0, self.t1, self.seconds = probe, t0, t1, seconds

    def scaled(self) -> float:
        """Call after the probe has run MARGIN_S past t1, or at the end."""
        return self.seconds * REFERENCE_S / self._probe.probe_near(self.t0, self.t1)
