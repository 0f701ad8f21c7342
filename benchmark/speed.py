"""Scaling measured times to a fixed machine speed.

The machines this benchmark runs on are shared: over seconds to minutes a
core's speed drifts by 10 to 40%, so raw times from runs a minute apart
differ by more than most changes worth measuring.  A fixed calibration
kernel, timed next to the operations it scales, drifts with the machine.
On a 2-core virtual machine, ten unscaled runs per workload spread by 18
to 31% (quartile distance over median) while the load on the host
changed; scaled runs spread by 2 to 12%.

Each operation's time is multiplied by ``REFERENCE_S / kernel_time``, the
factor that would make the kernel take exactly ``REFERENCE_S``.  A scaled
figure therefore reads as "on a machine where the kernel takes 1 ms".  The
kernel exercises what the program does: interpreted Python loops, dict,
str and tuple work, and numpy calls on small vectors and matrices.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.001
STALE_S = 0.25  # re-time the kernel when its last timing is older than this


_W = np.linspace(-0.01, 0.01, 32 * 185).reshape(32, 185)


def kernel() -> float:
    total = 0
    for i in range(2000):
        total += i * i
    v = np.arange(185.0)
    h = np.zeros(32)
    for _ in range(150):
        v = np.tanh(v * 0.5) + 1.0
        h = np.tanh(_W @ v + h)
    names = {str(i): (float(i),) for i in range(1500)}
    return total + float(v[0] + h[0]) + len(names)


def kernel_seconds() -> float:
    """The kernel's time now: the fastest of three back-to-back runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """The current scale factor, re-measured when it goes stale."""

    def __init__(self):
        self._scale = 1.0
        self._at = -float("inf")
        self.kernel_times: list[float] = []

    def scale(self) -> float:
        if time.perf_counter() - self._at > STALE_S:
            seconds = kernel_seconds()
            self.kernel_times.append(seconds)
            self._scale = REFERENCE_S / seconds
            self._at = time.perf_counter()
        return self._scale
