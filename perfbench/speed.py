"""Machine-speed probe: a fixed reference kernel sampled while a repetition runs.

The benchmark runs on a few cores of a shared host.  The load of other
tenants changes how fast every instruction runs, by up to 2x within
seconds, and the slowdown shows in CPU time as much as in wall time.  A raw
wall time therefore measures the neighbours as much as the program.

So while a repetition runs, a SIGALRM timer runs ``kernel()`` every
``PERIOD_S`` seconds of wall time and records how long it took.  The
kernel is fixed code of this benchmark (small-array numpy calls, float
formatting, dict stores and a generator sum, like the program's per-sample
loops) and never calls the program, so a change to the program cannot
change it.  Its mean time over the repetition is the machine's slowness
during that repetition.  The repetition's wall time, less the time spent in
the kernel, is scaled by ``NOMINAL_KERNEL_S / mean kernel time``: seconds at
a fixed machine speed.  The kernel takes about 2% of the repetition.

Python runs signal handlers between bytecodes of the main thread, so the
kernel never interrupts a numpy call or a file write half-way; system calls
that a signal interrupts are retried (PEP 475).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel time that counts as nominal speed: about its time on the 2.1 GHz
# Xeon the benchmark was written on.  Only a scale; it cancels in every
# comparison between two commits.
NOMINAL_KERNEL_S = 350e-6
PERIOD_S = 0.02
# A repetition shorter than this many periods is topped up with kernel
# runs after its timed region.
MIN_SAMPLES = 5

_A = np.arange(9.0).reshape(3, 3)


def kernel() -> float:
    total, cells = 0.0, {}
    for i in range(40):
        b = _A @ _A.T + i
        total += float(np.linalg.norm(b[0]))
        cells[i % 17] = f"{total:.9g}"
        total += sum(x * 0.5 for x in range(12))
    return total


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Sampler:
    """Context manager: samples the kernel while active.

    ``normalise(elapsed)`` turns a wall time measured inside the block into
    seconds at nominal speed, and keeps the raw time and the kernel's mean
    in ``raw`` and ``kernel_means`` for the report.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.kernel_means: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        dt = timed_kernel()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, elapsed: float) -> float:
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(timed_kernel())
        mean = sum(self.samples) / len(self.samples)
        self.raw.append(elapsed)
        self.kernel_means.append(mean)
        return scaled(elapsed, self.spent, mean)


def scaled(elapsed: float, spent: float, kernel_mean: float) -> float:
    """Wall time less the kernel's own time, at nominal machine speed."""
    return (elapsed - spent) * NOMINAL_KERNEL_S / kernel_mean
