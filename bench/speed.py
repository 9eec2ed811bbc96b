"""Machine-speed probe: times narxid's work in seconds at a reference speed.

On a shared virtual machine the same deterministic work takes up to half
as long again in slow spells as in fast ones, and the spells outlast a run,
so neither the fastest nor the median repeat of a raw time is steady from
one run to the next.  The probe measures the machine's speed while the work
runs: a timer signal interrupts the process every ``INTERVAL_S`` seconds of
wall time, and the handler times a fixed pure-Python kernel (a recursion
like the free-run simulator's, but not narxid's code).  A measured section
is then rescaled by the mean of ``REFERENCE_S / kernel time`` over the
samples taken in it and one taken just after it, once the handler's own
time is taken out.

The kernel does not touch narxid, so a change to narxid moves the rescaled
times, while a change of machine speed moves the kernel's time with them.
The kernel runs inside the measured work, so what that work leaves in the
caches can still move its time a little; see METRICS.md.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.05
# The kernel's time at the reference speed: about its time on a 2-core
# x86-64 virtual machine (Intel Xeon, Python 3.11) in a fast spell.
REFERENCE_S = 0.6e-3


def kernel() -> float:
    y = [0.0, 0.0]
    for t in range(2, 2500):
        y.append(1.2 * y[-1] - 0.35 * y[-2] + 0.1 * (t & 7) - 0.05 * y[-1] * y[-2])
    return y[-1]


@dataclass
class Timing:
    raw_wall: float
    wall: float  # seconds at the reference speed
    cpu: float
    speed: float  # mean REFERENCE_S / kernel time over the section's samples


class SpeedProbe:
    def __init__(self) -> None:
        kernel()  # first call allocates
        self.speeds: list[float] = []
        self.busy_wall = 0.0
        self.busy_cpu = 0.0

    def sample(self) -> None:
        # the first kernel run refills the caches the interrupted work has
        # taken over, so the timed second run depends little on that work
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        w1 = time.perf_counter()
        kernel()
        w2, c2 = time.perf_counter(), time.process_time()
        self.speeds.append(REFERENCE_S / (w2 - w1))
        self.busy_wall += w2 - w0
        self.busy_cpu += c2 - c0

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def measure(self, fn, in_process: bool = True) -> tuple:
        """Run ``fn()`` under the probe; returns (its result, a Timing).

        ``in_process`` False is for a section that waits on a child process:
        the handler then runs beside the work instead of inside it, so its
        time is not taken out.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        first, busy_wall, busy_cpu = len(self.speeds), self.busy_wall, self.busy_cpu
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            result = fn()
            raw_wall, raw_cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall, cpu = raw_wall, raw_cpu
        if in_process:
            wall -= self.busy_wall - busy_wall
            cpu -= self.busy_cpu - busy_cpu
        self.sample()  # so that a section shorter than the interval has one
        speed = statistics.fmean(self.speeds[first:])
        return result, Timing(raw_wall, wall * speed, cpu * speed, speed)


class RawClock:
    """``SpeedProbe.measure`` without the probe, for traced runs: raw times."""

    def measure(self, fn, in_process: bool = True) -> tuple:
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        return result, Timing(wall, wall, cpu, 1.0)
