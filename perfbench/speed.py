"""How fast the shared machine runs, measured with a fixed reference kernel.

The kernel is pure-Python big-integer sums plus mpmath floating-point
arithmetic (stateless `mpmath.libmp` calls), the two kinds of work binpart
does, and does not depend on binpart.  On a shared machine its time rises
and falls with the speed every process gets.

In a worker, SpeedSampler times the kernel every SAMPLE_PERIOD_S from a
SIGALRM handler, which runs in the main thread between bytecodes.  So the
samples come from the same core and the same moments as the operations,
and the worker stays single-threaded: a second thread would switch glibc
malloc to its locking path and slow big-integer work by 15-30%.
"""

from __future__ import annotations

import signal
import time

from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_exp, mpf_pi,
                          mpf_sqrt, round_floor)

SAMPLE_PERIOD_S = 0.1
PREC = 128


def reference_kernel() -> None:
    v = [1] + [0] * 100
    for part in range(1, 101):
        for j in range(part, 101):
            v[j] += v[j - part]
    x = fzero
    pi = mpf_pi(PREC, round_floor)
    for i in range(1, 8):
        root = mpf_sqrt(from_int(i), PREC, round_floor)
        x = mpf_add(x, mpf_div(mpf_exp(root, PREC, round_floor), pi, PREC, round_floor),
                    PREC, round_floor)


def timed_kernel() -> list[float]:
    """[midpoint (time.monotonic), seconds] of one kernel run."""
    start = time.monotonic()
    reference_kernel()
    stop = time.monotonic()
    return [(start + stop) / 2, stop - start]


class SpeedSampler:
    """Kernel samples every SAMPLE_PERIOD_S while the `with` block runs,
    plus three just before and three just after it."""

    def __init__(self):
        self.samples: list[list[float]] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def __enter__(self) -> "SpeedSampler":
        reference_kernel()  # warm-up: mpmath caches pi
        self.samples += [timed_kernel() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [timed_kernel() for _ in range(3)]


def kernel_seconds(samples: list[list[float]], start: float, stop: float) -> float:
    """Mean kernel time during [start, stop], or of the two samples nearest
    to it when fewer than two fall inside."""
    inside = [s for t, s in samples if start <= t <= stop]
    if len(inside) < 2:
        middle = (start + stop) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [s for _, s in nearest[:2]]
    return sum(inside) / len(inside)
