"""Host-speed calibration: a fixed piece of work timed next to each request.

On a shared host the same request can take 0.18 s in one minute and
0.34 s in the next: the machine's speed changes while the program does
not.  The benchmark therefore times a fixed task that has nothing to do
with the program (exact fraction arithmetic and dict updates, the kind of
work that fills the program's assembly) just before and just after each
request, and scales the request's wall time by

    REFERENCE_S / (mean of the two calibration times).

The scaled time reads as "seconds on a host that runs the calibration
task in REFERENCE_S"; a program change moves it exactly as it moves the
raw time, while a change of host speed moves both the request and the
calibration and so cancels out.  The calibration never imports the
program, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The calibration task's median time on a 2-core x86_64 host in one of its
# faster phases; only a scale, so that scaled times read like raw ones.
REFERENCE_S = 0.0007
REPEATS = 3


def _task():
    poly = {}
    total = Fraction(0)
    for i in range(1, 90):
        f = Fraction(i, i + 1)
        total += f * f - Fraction(1, i + 2)
        key = (i % 11, i % 7)
        poly[key] = poly.get(key, 0) + f
    return total, len(poly)


def sample() -> float:
    """Median time of REPEATS runs of the calibration task."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between calibration samples `before` and `after`,
    scaled to the reference host speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
