"""The host's speed, sampled while a timed region runs, and timings rescaled to one reference speed.

On a shared host the CPU a process runs on is slowed, by up to about 1.5x
on identical work, whenever other tenants are busy; the slow spells come
and go within a fraction of a second, and how much of a run they fill
changes over minutes.  A pass's raw wall time mixes that into the
program's cost.  `Sampler` runs a fixed allocation-free interpreter loop
from a SIGALRM handler every INTERVAL_S of wall time during the region it
wraps, and times each run of the loop.  Work done per second is
proportional to 1 / (loop time), so

    rescaled = (wall - time spent in the loop) * mean(REFERENCE_LOOP_S / loop time)

is the time the region would have taken had the whole of it run at the
speed at which the loop takes REFERENCE_LOOP_S.  The loop never calls
hschain, so a change to the program moves the rescaled time as it moves
the raw one.  See README.md for how well the two agree.

Only the standard library's builtin modules are imported here, so that a
probe timing ``import hschain.cli`` can use this module without importing
anything hschain would import anyway.
"""

from __future__ import annotations

import itertools
import signal
import time

INTERVAL_S = 0.01
LOOP_ITERATIONS = 2500
# About the loop's median time when sampled inside passes on the 2-vCPU
# host the benchmark was built on (0.114-0.121 ms across workloads), so
# that rescaled pass times read close to raw ones there; the loop runs
# faster inside an import, so rescaled import times read about 1.5x their
# raw ones.  Only a unit: both commits of a comparison are rescaled by the
# same constant.
REFERENCE_LOOP_S = 1.2e-4


def loop() -> int:
    """Fixed interpreter work that allocates nothing (results stay small ints)."""
    x = 0
    for _ in itertools.repeat(None, LOOP_ITERATIONS):
        x = (x + 3) & 127
    return x


class Sampler:
    """Context manager: times `loop` every INTERVAL_S of wall time inside it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = self.clock()
        loop()
        self.samples.append(self.clock() - start)

    def __enter__(self) -> "Sampler":
        loop()  # untimed: the interpreter specialises the loop's bytecode on its first run
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, wall: float) -> float:
        """`wall` seconds measured inside the sampler, without the loop's
        own time, at the reference speed."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken; the timed region is too short")
        relative_speed = sum(REFERENCE_LOOP_S / u for u in self.samples) / len(self.samples)
        return (wall - sum(self.samples)) * relative_speed
