"""Machine-speed probe: scales wall times to a fixed reference speed.

On a shared 2-core VM the speed of the CPU a run gets drifts by up to ~60%
over tens of seconds, with every kind of code slowing down together
(interpreter loops, NumPy array passes, text formatting). That drift, not
the program, set the spread between runs: raw ``ops_per_s`` of
``long_schedule`` spread 0.23 across ten seeds. So the harness times a
fixed probe between operations, outside the timed region, for a fixed share
of the wall time, and reports each time at reference speed:

    time_at_reference = wall_time * REFERENCE_S / median(probe times near it)

The probe exercises no keysched code, so a change to the program cannot
move it, and a change to the program scales the reported time by the same
factor as the wall time. Raw wall times are printed and recorded beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

WINDOW_S = 1.0           # probes this close to an interval set its speed

# Probe duration that defines reference speed: about its median on the
# 2-core Intel Xeon VM this benchmark was written on, when unloaded.
REFERENCE_S = 0.010

_VEC = np.random.default_rng(0).standard_normal(1024)
_IMG = np.random.default_rng(1).standard_normal((128, 128))


def probe() -> float:
    """Seconds for one fixed mix of the work keysched does."""
    start = perf_counter()
    acc = 0.0
    for i in range(16000):                         # interpreter loop over NumPy scalars
        acc += _VEC[i & 1023]
    for _ in range(120):                           # whole-array passes, 128x128
        padded = np.pad(_IMG, 1, mode="edge")
        acc += float((padded[1:-1, 1:-1] * 0.5 + padded[:-2, 1:-1] * 0.25)[0, 0])
    for _ in range(2):                             # float-to-text formatting
        ",".join(f"{v:.9f}" for v in _VEC)
    return perf_counter() - start


class Probes:
    """Probe times taken during one phase of a run, with when each ended.

    Probing keeps to a duty cycle: before each operation it probes until the
    probes have taken ``duty`` of the phase's wall time so far, so a phase of
    long operations gets a burst of probes between operations and one of
    short operations a probe every few operations.
    """

    def __init__(self, duty: float):
        probe()  # the first probe in a process pays one-time costs; not kept
        self.duty = duty
        self.times: list[float] = []
        self.ends: list[float] = []
        self._start = perf_counter()

    def maybe(self) -> None:
        while not self.times or sum(self.times) < self.duty * (perf_counter() - self._start):
            self.times.append(probe())
            self.ends.append(perf_counter())

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """How much slower than reference speed the machine ran (1.0 = reference):
        over the probes within WINDOW_S of [start, end], or over all of them."""
        near = [t for t, at in zip(self.times, self.ends)
                if start is not None and start - WINDOW_S <= at <= end + WINDOW_S]
        return statistics.median(near or self.times) / REFERENCE_S

    def at_reference(self, timed: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds) interval's seconds at reference speed, scaled by
        the machine speed measured around that interval."""
        return [secs / self.slowdown(start, start + secs) for start, secs in timed]
