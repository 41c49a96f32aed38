"""Host-speed sampling for the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed for
identical work moves by tens of percent from one second to the next (an
inverse-cli operation of fixed work took 4.4 to 7.7 s within five minutes,
with no steal time).  A wall time alone then says as much about the
neighbours as about the program.

``Sampler`` measures the host's speed while an operation runs: an interval
timer (SIGALRM every ``INTERVAL_S``) runs a fixed probe -- small numpy
operations in an interpreter loop, the style of the solver's hot paths --
and records how long it took.  The probe calls nothing in ``fracsource``,
so a change to the program cannot move it.  ``Sampler.scaled`` removes the
probes' own time from a wall time and rescales the rest by ``REF_PROBE_S``
over the trimmed mean probe time in the window: the operation's time on a
host that runs the probe in ``REF_PROBE_S``.  Over 20 inverse-cli
operations of fixed work this cut the operation-to-operation variation
from 6.7 % to 2.9 %; a probe on 4096-element arrays tracked the operations
less closely (4.8 %).

Python runs signal handlers in the main thread between bytecodes, so a probe
never interrupts a C call; during a long numpy call the next probe waits
until it returns.  The probes take about 1.5 % of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# The probe's typical time on the reference machine (README.md): a fixed
# scale, so that scaled times read as seconds on that machine.
REF_PROBE_S = 3.0e-4
# Share of the probe times dropped at each end before averaging: a probe
# that a page fault or an interrupt hits says little about the host's speed.
TRIM = 0.1

_X = np.linspace(0.1, 1.0, 64)


def probe() -> float:
    """Fixed reference work, about 0.3 ms on the reference machine."""
    acc = 0.0
    for i in range(40):
        acc += float(np.dot(_X**0.3, np.exp(-_X * i)))
    return acc


def trimmed_mean(values: list) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class Sampler:
    def __init__(self):
        self.samples: list[float] = []  # probe times, in order
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        probe()  # first call pays numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall_s: float, since: int) -> float:
        """``wall_s``, measured since the mark ``since``, without the probes'
        time and at the reference probe speed.  A window without a probe
        uses all probes so far; with none at all it returns ``wall_s``."""
        window = self.samples[since:]
        basis = window or self.samples
        if not basis:
            return wall_s
        return (wall_s - sum(window)) * REF_PROBE_S / trimmed_mean(basis)
