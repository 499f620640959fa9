"""Machine speed calibration: wall times scaled to a reference speed."""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

CAL_REF_S = 0.0015     # calibration loop time that defines reference speed
CAL_WINDOW = 3
CAL_INTERVAL_S = 0.05  # speed phases last seconds; sample at most this often


def calibration_loop_s() -> float:
    """Seconds taken by a fixed integer-elimination loop, with GC off so a
    large heap in the library cannot slow the loop itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        n = 24
        a = [[(i * 7 + j * 13) % 5 - 2 for j in range(n + 2)] for i in range(n)]
        for t in range(n):
            for i in range(t + 1, n):
                f = a[i][t]
                if f:
                    a[i] = [(x * 3 - f * y) % 1000003
                            for x, y in zip(a[i], a[t])]
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Scales wall times to a reference machine speed.

    The machine this benchmark was written on is shared: one fixed library
    call took anywhere from 10 to 22 ms over a few minutes as other tenants
    came and went, in phases lasting seconds, so raw times of runs made
    minutes apart spread by 20-30%.  A fixed loop timed next to each operation
    slows by the same share (there, its ratio to the library call stayed
    within 2.5%), so ``wall x CAL_REF_S / loop time`` (median of the last
    ``CAL_WINDOW`` loops) is steady.  Raw wall times are still reported.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -CAL_INTERVAL_S
        self._scale = 1.0

    def scale(self) -> float:
        """Scale for an operation about to run in this process."""
        if perf_counter() - self._last >= CAL_INTERVAL_S:
            self.samples.append(calibration_loop_s())
            self._last = perf_counter()
            self._scale = self.scale_for(
                statistics.median(self.samples[-CAL_WINDOW:]))
        return self._scale

    def scale_for(self, loop_s: float) -> float:
        """Scale for work timed next to a loop that took ``loop_s``."""
        return CAL_REF_S / loop_s

