"""Time in reference seconds: wall time rescaled to a fixed core speed.

The 2-vCPU machine the reference figures come from shares its cores
with other tenants. For seconds at a time the same Python code runs up
to twice as slowly, and a 30 s run sees a different mix of fast and
slow phases every time, so raw wall times of identical work differ by
20 % or more between runs. `RefClock` measures the core's speed as it
goes, with a fixed pure-Python loop (`calibrate`), and advances by
`elapsed * REF_LOOP_S / loop_time`. Its reading is the time the work
would have taken on a core that runs the loop in `REF_LOOP_S` seconds.

The loop is timed at every `now()` (so at both ends of each timed
call) and, between `start_ticks()` and `stop_ticks()`, every `TICK_S`
seconds from a SIGALRM handler, so that a long call is rescaled
stretch by stretch. The loop's own time is left out of both readings.
A change to the program changes its time, not the loop's, so it shows
in reference seconds as it would in wall seconds on a quiet core.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The loop's time on a quiet core of the reference machine (2-vCPU
# x86-64 VM, Python 3.11.7): about the fastest of its runs there.
REF_LOOP_S = 0.001
TICK_S = 0.05
_LOOP_ITERATIONS = 7500


def _loop() -> int:
    s = 0
    d = {}
    for i in range(_LOOP_ITERATIONS):
        s += i * i % 7
        d[i & 1023] = s
    return s


def calibrate() -> float:
    """The loop's time now: the faster of two runs, so one interrupt is ignored."""
    best = float("inf")
    for _ in range(2):
        t = perf_counter()
        _loop()
        best = min(best, perf_counter() - t)
    return best


class RefClock:
    """Wall and reference seconds since the clock was made.

    `now()` returns `(wall, ref)`, both without the calibration loop's
    own time. Each stretch between two samples is rescaled by the mean
    core speed at its two ends.
    """

    def __init__(self):
        self._t0 = perf_counter()
        self._excluded = 0.0
        self._ref = 0.0
        self._last_wall = 0.0
        self._last_loop = None
        self._busy = False
        self._previous_handler = None
        self._sample()
        self.first_loop_s = self._last_loop

    def start_ticks(self) -> None:
        """Sample every TICK_S seconds too, until `stop_ticks()`."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def now(self) -> tuple[float, float]:
        return self._sample()

    def _on_tick(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> tuple[float, float]:
        self._busy = True
        t = perf_counter()
        wall = t - self._t0 - self._excluded
        loop = calibrate()
        if self._last_loop is not None:
            speed = 2 * REF_LOOP_S / (self._last_loop + loop)
            self._ref += (wall - self._last_wall) * speed
        self._last_wall, self._last_loop = wall, loop
        ref = self._ref
        self._excluded += perf_counter() - t
        self._busy = False
        return wall, ref
