"""What-if design-space exploration (Section II-C's practical case).

The paper motivates modeling for *disruptive* design questions — "a
cluster with a 10x faster network and 100x faster compute" — where the
design space is too large to simulate point by point.  This module
wraps MFACT's multi-configuration replay in a small design-space API:
declare axes (bandwidth, latency, compute speed), price the whole grid
in one replay, and query speedups, bottleneck shifts and the cheapest
configuration meeting a target.

Every axis rides the replay's configuration vector (each point carries
its own compute scale), and a replay's cost is nearly flat in the
number of configurations, so one replay of the full Cartesian grid is
the single pricing path.  The recorded max-plus tape
(:mod:`repro.sensitivity`) stays the tool for critical paths, tolerance
thresholds and curves; pricing a grid through it costs a recorded
replay *plus* the evaluation, which measures 1.2-4.8x slower than the
plain replay on the benchmark's design-grid traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.machines.config import MachineConfig
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.trace.trace import TraceSet

__all__ = ["DesignPoint", "DesignSpaceResult", "explore_design_space"]


@dataclass(frozen=True)
class DesignPoint:
    """One hypothetical machine: speed factors relative to the baseline."""

    bandwidth_factor: float
    latency_factor: float
    compute_factor: float

    def describe(self) -> str:
        return (
            f"bw x{self.bandwidth_factor:g}, lat x{self.latency_factor:g}, "
            f"compute x{self.compute_factor:g}"
        )


@dataclass
class DesignSpaceResult:
    """Predicted application time over a design grid."""

    machine: MachineConfig
    points: List[DesignPoint]
    total_time: np.ndarray  # aligned with points
    baseline_index: int

    @property
    def baseline_time(self) -> float:
        return float(self.total_time[self.baseline_index])

    def speedup(self, point: DesignPoint) -> float:
        """Baseline time divided by the point's predicted time."""
        idx = self.points.index(point)
        return self.baseline_time / float(self.total_time[idx])

    def best(self) -> Tuple[DesignPoint, float]:
        """The fastest configuration and its speedup."""
        idx = int(np.argmin(self.total_time))
        return self.points[idx], self.baseline_time / float(self.total_time[idx])

    def cheapest_meeting(
        self, target_speedup: float, rel_tol: float = 1e-9
    ) -> Optional[DesignPoint]:
        """The least aggressive upgrade achieving ``target_speedup``.

        "Least aggressive" minimizes the product of the three factors —
        a rough proxy for cost.  Returns None if no grid point reaches
        the target.

        Boundary behavior is deterministic: a point qualifies when its
        speedup reaches the target within ``rel_tol`` relative slack
        (so a speedup equal to the target except for float rounding —
        e.g. ``1.9999999999999998`` vs ``2.0`` — is not dropped), and a
        candidate replaces the incumbent only when its cost is smaller
        by more than the same relative slack — cost ties, exact or
        float-noise, keep the *first* qualifying point in grid order.
        """
        best_point = None
        best_cost = None
        threshold = target_speedup * (1.0 - rel_tol)
        for point, total in zip(self.points, self.total_time):
            if self.baseline_time / float(total) < threshold:
                continue
            cost = point.bandwidth_factor * point.compute_factor * point.latency_factor
            if best_cost is None or cost < best_cost * (1.0 - rel_tol):
                best_cost = cost
                best_point = point
        return best_point

    def amdahl_table(self) -> List[Tuple[str, float]]:
        """(description, speedup) rows sorted by speedup, descending."""
        rows = [
            (point.describe(), self.baseline_time / float(total))
            for point, total in zip(self.points, self.total_time)
        ]
        return sorted(rows, key=lambda r: -r[1])


def explore_design_space(
    trace: TraceSet,
    machine: MachineConfig,
    bandwidth_factors: Sequence[float] = (1.0, 2.0, 10.0),
    latency_factors: Sequence[float] = (1.0, 2.0, 10.0),
    compute_factors: Sequence[float] = (1.0, 10.0, 100.0),
) -> DesignSpaceResult:
    """Price a trace on every (bw, lat, compute) combination.

    One :class:`LogicalClockReplay` prices the whole grid, compute axis
    included: points are ordered compute-major, then latency, then
    bandwidth, and the replay's baseline is the (1, 1, 1) point, which
    the grid must contain.
    """
    if not all(f > 0 for f in bandwidth_factors):
        raise ValueError("bandwidth factors must be positive")
    if not all(f > 0 for f in latency_factors):
        raise ValueError("latency factors must be positive")
    if not all(f > 0 for f in compute_factors):
        raise ValueError("compute factors must be positive")
    points: List[DesignPoint] = []
    lats: List[float] = []
    bws: List[float] = []
    scales: List[float] = []
    baseline_index = None
    for cf in compute_factors:
        for lf in latency_factors:
            for bf in bandwidth_factors:
                points.append(DesignPoint(bf, lf, cf))
                lats.append(machine.latency / lf)
                bws.append(machine.bandwidth * bf)
                scales.append(machine.compute_scale / cf)
                if bf == 1.0 and lf == 1.0 and cf == 1.0:
                    baseline_index = len(points) - 1
    if baseline_index is None:
        raise ValueError(
            "the design grid must contain the baseline point (all factors 1.0)"
        )
    grid = ConfigGrid(lats, bws, scales, baseline=baseline_index)
    report = LogicalClockReplay(trace, machine, grid).run()
    return DesignSpaceResult(
        machine=machine,
        points=points,
        total_time=report.total_time,
        baseline_index=baseline_index,
    )
