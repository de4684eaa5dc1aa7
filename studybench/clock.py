"""Timing normalized to the host's momentary speed.

The development host is a shared 2-vCPU virtual machine whose speed
changes by about 1.5x over periods of seconds to minutes. The change
comes from load outside the machine. A whole run can fall in a slow
period, so wall-clock medians spread over runs by far more than any
bound worth setting.

Each timed call is therefore bracketed by a fixed pure-Python reference
loop, and its wall time is scaled by ``REFERENCE_S / reference time``,
the mean of the loop's time just before and just after the call. The
result reads as *seconds at reference speed*: the wall time where the
reference loop runs in ``REFERENCE_S``, as it does on the development
host at full speed. Over a 5-minute sample on that host, a 100-config
``explore_design_space`` call ran 1.55x slower in slow periods than in
fast ones, and 1.05x after scaling. Raw wall times and the reference
samples are kept beside the normalized times in every result file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

__all__ = ["REFERENCE_S", "Timing", "normalized", "reference_s", "timed"]

#: Duration of :func:`reference_s`'s loop at the reference speed.
REFERENCE_S = 0.010

_REFERENCE_ITERATIONS = 180_000

T = TypeVar("T")


@dataclass(frozen=True)
class Timing:
    """Wall time of one call and the reference loop's time around it."""

    wall_s: float
    reference: Tuple[float, float]  # (before, after)


def reference_s() -> float:
    """Wall time of the fixed reference loop, now."""
    start = time.perf_counter()
    total = 0
    for i in range(_REFERENCE_ITERATIONS):
        total += i * i
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def timed(call: Callable[[], T]) -> Tuple[Timing, T]:
    """Time one call, with a reference sample before and after it."""
    before = reference_s()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return Timing(wall, (before, reference_s())), result


def normalized(timing: Timing) -> float:
    """The call's seconds at reference speed."""
    return timing.wall_s * REFERENCE_S / (sum(timing.reference) / 2.0)
