"""Host-speed calibration.

The shared host this benchmark was written on changes speed by up to 2x,
in phases from a fraction of a second to tens of seconds, and process CPU
time swings with it.  So a worker times ``calibration_work``, a fixed piece
of pure-Python integer arithmetic that shares no code with flopcalc, at
least every CAL_EVERY_S while it measures, and scales each stretch between
two calibrations by ``CAL_REF_S`` over their mean.  Reported times
therefore read as seconds at one reference speed.  Time spent calibrating
is left out of every reported time.

This module imports nothing but ``time`` and ``array``, so a worker can
calibrate before it times ``import flopcalc.cli`` without pre-loading any
of its imports.  Calibrating creates no objects the garbage collector
tracks, so how often it runs cannot move the collector's pauses from one
op to another.
"""

from array import array
from time import perf_counter

# seconds calibration_work takes at the reference speed: the fast phase of
# the host the benchmark was written on (x86-64, 2 vCPUs, CPython 3.11.7)
CAL_REF_S = 0.0034
CAL_EVERY_S = 0.1


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def calibration_work():
    total = 0
    for i in range(1, 7000):
        num = (i * i + 1) * 1234567891011
        den = 2 * i + 3
        g = _gcd(num, den)
        total += (num // g) % 7 + (den // g) % 97
    return total


class Clock:
    """The calibrations of one process, and intervals scaled by them.

    Call ``tick()`` between the things measured and ``calibrate()`` once
    after the last; ``scaled`` only covers time between two calibrations.
    """

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.calibrate()

    def calibrate(self):
        t0 = perf_counter()
        calibration_work()
        self.ends.append(perf_counter())
        self.starts.append(t0)

    def tick(self):
        if perf_counter() - self.ends[-1] >= CAL_EVERY_S:
            self.calibrate()

    def _stretches(self):
        for i in range(1, len(self.starts)):
            took = (self.ends[i - 1] - self.starts[i - 1]) + (self.ends[i] - self.starts[i])
            yield self.ends[i - 1], self.starts[i], 2 * CAL_REF_S / took

    def scaled(self, start, end):
        """Seconds at the reference speed in [start, end], calibrations left out."""
        return sum((min(end, hi) - max(start, lo)) * factor
                   for lo, hi, factor in self._stretches() if min(end, hi) > max(start, lo))

    def raw(self, start, end):
        """Seconds as measured in [start, end], calibrations left out."""
        return sum(min(end, hi) - max(start, lo)
                   for lo, hi, _ in self._stretches() if min(end, hi) > max(start, lo))
