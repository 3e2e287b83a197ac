"""The machine's current speed, from a fixed loop that never touches blowcube.

The 2-vCPU VM this benchmark was tuned on changes speed by up to 1.9x: a
fixed pure-Python loop, timed every quarter second, spreads that much, and
its speed stays correlated for about five seconds.  A wall time alone then
measures the machine as much as the program.  So a pass calibrates before
its first operation, every ``PERIOD_S`` of wall time while the operations
run (from a timer signal), and after the last one, and its times are also
reported at the reference speed, the speed at which one calibration takes
``REFERENCE_S``:

    t_ref = t * REFERENCE_S / (median of the pass's calibrations)

The time the timer's calibrations take is left out of the operations'
latencies.  Calibrating only between operations leaves the long ones
uncovered: on ``classify``, where one of six operations takes three
quarters of the time, the pass-to-pass spread of the wall time fell from
0.21 to 0.16 with calibrations between the operations, and to 0.06 with the
timer (30 passes).

The loop does integer arithmetic, dict lookups and list indexing on objects
made before it starts, so it allocates no container, triggers no garbage
collection, and its time does not depend on the state of the program that
ran before it.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.002     # one calibration at the reference speed
PERIOD_S = 0.1          # wall time between two calibrations of the sampler
_ROUNDS = 2             # a calibration is the fastest of this many loops
_STEPS = 8_000

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}
_LIST = list(range(4096))


def _loop() -> int:
    table = _TABLE
    items = _LIST
    acc = 1
    for i in range(_STEPS):
        acc = (acc * 31 + table[acc & 4095] + items[i & 4095]) & 0xFFFFFF
    return acc


def calibrate() -> float:
    """Seconds one loop takes now: the fastest of a few, which drops a loop
    that an interrupt or a context switch lengthened."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(_ROUNDS):
        start = clock()
        _loop()
        best = min(best, clock() - start)
    return best


class Sampler:
    """Calibrates every ``PERIOD_S`` while the ``with`` block runs.

    ``samples`` holds the calibrations and ``spent`` the seconds the handler
    took, which the caller subtracts from what it times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
