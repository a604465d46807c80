"""The host's pace through a run, for scaling host times.

On a small shared host the same Python code runs up to twice as slow
while neighbours compete for the host, and the host moves between such
states every few seconds (CPU time slows with wall time, so
``process_time`` does not help).  A whole-run time therefore measures the
neighbours as much as the code.

So the benchmark runs a fixed pure-Python yardstick between timed calls,
at most every ``EVERY_S``, and scales every host time by how fast the
yardsticks around it ran: a host time is reported as it would read on a
host whose yardstick takes ``REFERENCE_S``.  Library calls slow down
more than the yardstick, as a power of it, so the scale is that power of
the yardstick's slowdown: the scaled time keeps what the code costs and
drops most of what the neighbours cost (measurements in
``perfbench/README.md``).  The unscaled times are kept
in the run context.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

EVERY_S = 0.025
#: The yardstick: an integer loop (what slows when a neighbour takes the
#: core's execution units) and random lookups in a 2^17-entry dict (what
#: slows when a neighbour takes the shared caches and memory bandwidth),
#: about 1 ms together.  The library slows both ways.
LOOP = 4_000
LOOKUPS = 400
_TABLE = {key: [key] for key in range(1 << 17)}
_KEYS = random.Random(0).sample(range(1 << 17), 1 << 17)
#: The reference host: one whose yardstick takes exactly 1 ms.
REFERENCE_S = 1e-3
#: Library time grows as the yardstick time to this power: over ten runs
#: of each workload, log(library time) rose 1.5 to 2 times as fast as
#: log(yardstick time) (``perfbench/README.md``).
EXPONENT = 1.5
_offset = 0


def yardstick() -> float:
    """Seconds for a fixed piece of pure-Python work."""
    global _offset
    keys = _KEYS[_offset : _offset + LOOKUPS]
    _offset = (_offset + LOOKUPS) % (len(_KEYS) - LOOKUPS)
    started = perf_counter()
    acc = 0
    for i in range(LOOP):
        acc = (acc * 31 + i) % 1_000_003
    for key in keys:
        acc += _TABLE[key][0]
    return perf_counter() - started


class Pace:
    """Yardstick times through a run, and the scale they give a span."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.probe()

    def probe(self) -> None:
        self.at.append(perf_counter())
        self.took.append(yardstick())

    def tick(self) -> None:
        """Probe if the last probe is ``EVERY_S`` old (call between timed calls)."""
        if perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median yardstick from the last probe
        before ``start`` to the first one after ``end``, to ``EXPONENT``."""
        first = max(bisect.bisect_right(self.at, start) - 1, 0)
        last = bisect.bisect_left(self.at, end)
        pace = statistics.median(self.took[first : last + 1])
        return (REFERENCE_S / pace) ** EXPONENT
