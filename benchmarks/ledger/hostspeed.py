"""Host-speed calibration: one fixed kernel, timed next to every repetition.

The sandbox is a few cores of a shared host whose effective speed drifts
by 20-30 % over minutes (README "Noise protocol": over 25 minutes the
fastest and the median repetition of a fixed workload both spread 0.20-0.26
between 27 s windows, and the halves of the experiment differed by
13-25 %). No statistic of one run's walls removes a drift that outlasts
the run, so every host time is divided by the speed the host had *while it
was taken*: a burst of this kernel runs before each repetition and after
the last, and ``factor`` of the samples on both sides of a repetition says
how much slower than the reference the host was just then. The same data
normalised this way spread 0.04-0.06, with halves within 4 %.

The kernel is interpreter work (attribute access, method calls, dict and
tuple churn) plus small NumPy matmuls and reductions, the mix the program
itself is made of. It never changes: changing it redefines every host
metric. ``REFERENCE_S`` is what one sample takes on the 2-core box at its
quiet speed, so a normalised second is a second of that box.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025
BURST = 6

_A = np.random.default_rng(0).standard_normal((64, 64))


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def bump(self, k: int) -> int:
        self.a += k
        return self.a


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    table = {}
    total = 0
    cells = [_Cell(i, i) for i in range(256)]
    for i in range(100_000):
        cell = cells[i & 255]
        total += cell.bump(i)
        table[i & 2047] = (total, cell)
    b = _A
    for _ in range(600):
        b = _A @ b
        b = b / (np.abs(b).max() + 1.0)
    return time.perf_counter() - t0


def burst(n: int = BURST) -> "list[float]":
    return [sample() for _ in range(n)]


def factor(samples) -> float:
    """How many times slower than the reference the host ran: the median
    sample over ``REFERENCE_S`` (a cold or preempted sample does not move
    a median)."""
    return statistics.median(samples) / REFERENCE_S
