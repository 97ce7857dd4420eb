"""Reference-speed calibration for wall-clock timings (stdlib only).

On a shared machine the speed of one core changes by tens of percent from
one moment to the next and drifts between minutes, for the program and for
everything else alike. While a workload runs, ``Sampler`` interrupts it on a
timer and times a fixed block of exact-rational work (the kind of work
``ghzcert`` does, but none of its code). From those samples it reports:

* a program clock that excludes the time spent in the samples, so timings
  taken with it measure the program alone;
* the mean relative speed of the machine while the program ran, where a
  speed of 1 means one block takes ``NOMINAL`` seconds.

Times are then reported in *reference seconds*: program seconds multiplied
by the mean relative speed, i.e. what they would have been at the nominal
speed. ``NOMINAL`` is a typical block time on the machine the bounds were
set on (a shared 2-vCPU x86-64 virtual machine, Python 3.11). A change to
``ghzcert`` cannot move the calibration, so it moves reference times by the
same share as it moves wall times at a fixed machine speed.
"""

from __future__ import annotations

import itertools
import signal
import time
from fractions import Fraction

NOMINAL = 0.0075
INTERVAL = 0.08

# Four value slots with four rational values each, and four product
# equations, every one of which is checked against every assignment: an
# exhaustive search of the same shape as the LHV brute force.
_DOMAINS = (tuple(Fraction(k, 2) - Fraction(3, 4) for k in range(4)),) * 4
_EQUATIONS = ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1))
_TARGET = Fraction(7, 3)


def block() -> float:
    """Wall seconds for one fixed block of exact-rational enumeration."""
    start = time.perf_counter()
    met = 0
    for values in itertools.product(*_DOMAINS):
        for slots in _EQUATIONS:
            product = Fraction(1)
            for k in slots:
                product *= values[k]
            met += product == _TARGET
    if met:
        raise AssertionError("calibration equations must be unsatisfiable")
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """Mean relative machine speed over calibration samples (block seconds)."""
    return sum(NOMINAL / t for t in samples) / len(samples)


class Sampler:
    """Timer-driven calibration samples taken inside the running program."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(block())
        self.times.append(start)
        self.stolen += time.perf_counter() - start

    def clock(self) -> float:
        """Seconds on a clock that stands still while a sample is taken."""
        return time.perf_counter() - self.stolen

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, begin: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean relative machine speed over the samples taken between two
        ``time.perf_counter`` readings; over all samples if none fall there."""
        within = [t for at, t in zip(self.times, self.samples) if begin <= at <= end]
        return speed(within or self.samples or [block()])
