"""Host-speed calibration: timings in reference seconds.

This benchmark runs on shared hosts whose speed drifts by a quarter or
more over minutes and changes from one second to the next.  A median
over a run's passes cannot remove drift that lasts as long as the run;
dividing by the host's speed measured alongside the work can.

:func:`calibration_loop` is a fixed pure-Python loop that uses nothing
from the program, so the program's changes never move it.  A
:class:`SpeedMeter` times one loop before each operation of a pass, and
its :meth:`~SpeedMeter.factor` converts seconds measured during that pass
into *reference seconds*: the time on a host where the loop takes
:data:`REFERENCE_S`.
"""

import statistics
import time

#: Seconds :func:`calibration_loop` takes on the reference host.
REFERENCE_S = 1.0e-3


class _Cell:
    __slots__ = ("value",)


def calibration_loop(n=3000):
    """Dict lookups on tuple keys, slot attribute updates and integer
    arithmetic: the kind of work the analyses' interpreters do."""
    cells = {}
    total = 0
    for i in range(n):
        key = (i & 127, i % 7)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell()
            cell.value = 0
        cell.value += i
        total += cell.value & 15
    return total


class SpeedMeter:
    """Calibration loops interleaved with the operations they calibrate."""

    def __init__(self):
        self.samples = []

    def tick(self):
        """Time one calibration loop."""
        start = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - start)

    def factor(self):
        """Factor from seconds measured among the ticks to reference
        seconds."""
        return REFERENCE_S / statistics.median(self.samples)
