"""The machine's speed, measured by a fixed reference kernel, for scaling timings.

The measuring machine is a shared VM whose speed moves by up to 1.7x, for
seconds to minutes at a time, with other tenants' load.  A timing taken in
a slow phase is as much a measurement of the neighbours as of the program.
So the benchmark runs a fixed reference kernel between its requests, for a
fixed share of the time the requests take, and reports every request's
time scaled to the speed at which the kernel takes NOMINAL_S:

    scaled = measured * NOMINAL_S / (mean time of the kernel within WINDOW_S)

The kernel is exact rational arithmetic in plain Python (a dict of
Fractions, a sort, running sums), the kind of work the library does, so a
phase slows both alike.  It shares no code with stochorder: a change to the
library moves the scaled timings; a change to the machine's load does not.
Changing unit() or NOMINAL_S changes the scale of every timing, so do
neither without measuring the baseline again.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

_rng = random.Random(20260818)
ATOMS = [(Fraction(_rng.randint(-500, 500), _rng.randint(1, 9)), _rng.randint(1, 60)) for _ in range(40)]
LEVELS = [Fraction(k, 7) for k in range(1, 7)]
NOMINAL_S = 1.8e-3  # the kernel's mean time on the measuring machine (see BASELINE.md)
SHARE = 0.15  # kernel time per unit of measured time
WINDOW_S = 1.0  # a measured time is scaled by the kernel's samples this close to it


def unit() -> list[Fraction]:
    """One run of the kernel: normalize 40 weighted atoms and integrate
    their quantile function up to six levels."""
    acc: dict[Fraction, int] = {}
    for v, w in ATOMS:
        acc[v] = acc.get(v, 0) + w
    total = sum(acc.values())
    law = [(v, Fraction(acc[v], total)) for v in sorted(acc)]
    out = []
    for level in LEVELS:
        integral, cum = Fraction(0), Fraction(0)
        for v, p in law:
            take = min(cum + p, level) - cum
            if take <= 0:
                break
            integral += v * take
            cum += p
        out.append(integral)
    return out


class Meter:
    """Reference samples interleaved with the measured work.

    follow(t) is called after each measured interval of t seconds and runs
    the kernel until the kernel's time has caught up with SHARE of all
    measured time, so the samples spread over the run in proportion to
    time, as the measured work does."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._owed = 0.0

    def follow(self, seconds: float) -> None:
        self._owed += SHARE * seconds
        while self._owed > 0:
            start = time.perf_counter()
            unit()
            spent = time.perf_counter() - start
            self.samples.append((start, spent))
            self._owed -= spent

    def scale(self) -> float:
        """NOMINAL_S over the kernel's mean time in the whole run: multiply
        a measured time by this to express it at the nominal speed."""
        return NOMINAL_S * len(self.samples) / sum(d for _, d in self.samples)

    def scales_at(self, stamps: list[float]) -> list[float]:
        """The scale at each time stamp, from the kernel samples that start
        within WINDOW_S of it (the whole run's scale where there are none).
        The machine's phases last seconds to minutes, so a measured time is
        best scaled by the speed around it, not by the run's average."""
        starts = [s for s, _ in self.samples]
        summed = list(accumulate((d for _, d in self.samples), initial=0.0))
        whole = self.scale()
        out = []
        for t in stamps:
            lo, hi = bisect_left(starts, t - WINDOW_S), bisect_right(starts, t + WINDOW_S)
            out.append(NOMINAL_S * (hi - lo) / (summed[hi] - summed[lo]) if hi > lo else whole)
        return out
