"""Host-speed reference for the end-to-end timings.

On a shared host the speed of a core drifts by about ±20% over minutes, as
other tenants come and go, and a wall-clock time of admitsim's work drifts
with it.  Two fixed kernels that do not touch admitsim — an interpreter-bound
Python loop and a numpy stable argsort, the two kinds of work admitsim
does — are timed a few times before the first step of a run and after each
step of an item.  Their mean times just before and just after a step,
against their nominal times below, give the host's slowdown during that
step, and the step's time is divided by it.  The contention comes in bursts
shorter than a step, so a step's time holds the share of its time spent in
bursts; the mean of the kernel times, unlike their median, holds that
share too.  A
normalised time is thus the wall time the work would take on a host where
the reference kernels take their nominal times.  A change to admitsim moves
it as it moves the wall time; a change in the host's speed does not.

A setup probe runs in a fresh interpreter, where numpy is part of what it
times, so it times the Python kernel alone, first thing, and its slowdown
divides the probe's time.  A cold interpreter runs slower than a warm one
in the same host state, and the probe's own kernel sees that too.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Nominal kernel times, in seconds: about their medians on an idle 2-core
# x86-64 virtual machine.  They only fix the scale of the normalised times.
PYTHON_NOMINAL_S = 0.016
NUMPY_NOMINAL_S = 0.032


def python_kernel(n: int = 60_000) -> int:
    """Integer arithmetic, dict and list operations in a Python loop."""
    buckets: dict[int, list[int]] = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        buckets.setdefault(x % 997, []).append(i)
    return sum(len(b) for b in buckets.values())


@functools.cache
def _keys() -> "np.ndarray":
    import numpy as np

    return np.random.default_rng(20161228).random(1 << 18)


def numpy_kernel() -> int:
    """A stable argsort of 2^18 floats, like admitsim's ranking sorts."""
    import numpy as np

    return int(np.argsort(_keys(), kind="stable")[0])


def python_slowdown(repeats: int = 2) -> float:
    """Mean time of the Python kernel over its nominal time."""
    began = time.perf_counter()
    for _ in range(repeats):
        python_kernel()
    return (time.perf_counter() - began) / repeats / PYTHON_NOMINAL_S


class Reference:
    """Times of the reference kernels over one run, in groups of ``REPEATS``.

    Group ``g`` is timed after ``g`` steps, so the run's step ``k`` runs
    between groups ``k`` and ``k + 1``.
    """

    REPEATS = 4

    def __init__(self) -> None:
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def sample(self) -> None:
        """Time one group."""
        for _ in range(self.REPEATS):
            began = time.perf_counter()
            python_kernel()
            middle = time.perf_counter()
            numpy_kernel()
            self.python_s.append(middle - began)
            self.numpy_s.append(time.perf_counter() - middle)

    def slowdown(self, first: int = 0, stop: int | None = None) -> float:
        """Geometric mean of the two kernels' mean time over nominal, over
        groups ``first`` to ``stop - 1`` (all groups by default)."""
        lo = first * self.REPEATS
        hi = None if stop is None else stop * self.REPEATS
        return math.sqrt(
            statistics.fmean(self.python_s[lo:hi]) / PYTHON_NOMINAL_S
            * statistics.fmean(self.numpy_s[lo:hi]) / NUMPY_NOMINAL_S
        )

    def normalise(self, item_steps: list[list[float]]) -> list[float]:
        """Each item's time: the sum of its steps' times, each divided by
        the slowdown around it."""
        items = []
        k = 0
        for step_s in item_steps:
            items.append(sum(t / self.slowdown(k + j, k + j + 2) for j, t in enumerate(step_s)))
            k += len(step_s)
        return items
