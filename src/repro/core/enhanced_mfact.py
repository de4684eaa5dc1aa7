"""Enhanced MFACT: predicting the need for simulation (Section VI).

The enhancement bolts a statistical model onto MFACT: from one modeling
replay it extracts the Table III features plus the ``CL`` communication-
sensitivity classification, and a stepwise-selected logistic regression
predicts whether packet-flow simulation would disagree with modeling by
more than the 2% DIFFtotal threshold.  The paper's naive baseline —
"simulate everything MFACT calls communication-sensitive" — is also
implemented for comparison (73.4% vs. 93.2% success).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.pipeline import StudyRecord
from repro.machines.config import MachineConfig
from repro.mfact.logical_clock import model_trace
from repro.stats.logistic import LogisticModel
from repro.stats.mccv import CrossValidationResult, monte_carlo_cv
from repro.stats.metrics import ConfusionCounts, confusion
from repro.sensitivity.analysis import analyze_graph
from repro.sensitivity.graph import GraphRecorder
from repro.stats.stepwise import MAX_VARIABLES, stepwise_forward
from repro.trace.features import (
    NUMERIC_FEATURE_NAMES,
    SENSITIVITY_FEATURE_NAMES,
    extract_features,
)
from repro.trace.trace import TraceSet

__all__ = [
    "CANDIDATE_NAMES",
    "candidate_row",
    "design_matrix",
    "labels",
    "EnhancedMFACT",
    "naive_heuristic_success",
]

#: Design-matrix column names: Table III numerics, the zero-replay
#: sensitivity features, and the CL indicator (kept last).
CANDIDATE_NAMES: List[str] = (
    NUMERIC_FEATURE_NAMES + SENSITIVITY_FEATURE_NAMES + ["CL{ncs}"]
)


def _row(features: Dict[str, float], cs: bool) -> List[float]:
    row = [float(features[name]) for name in NUMERIC_FEATURE_NAMES]
    # Sensitivity features are attached by the pipeline; records
    # measured before they existed (or hand-built fixtures) may lack
    # them, in which case the column is a harmless constant 0.
    row.extend(float(features.get(name, 0.0)) for name in SENSITIVITY_FEATURE_NAMES)
    row.append(0.0 if cs else 1.0)  # CL{ncs} indicator
    return row


def design_matrix(records: Sequence[StudyRecord]) -> np.ndarray:
    """(n, 38) candidate-feature matrix for study records."""
    return np.array([_row(r.features, r.mfact_cs) for r in records], dtype=float)


def candidate_row(trace: TraceSet, machine: MachineConfig) -> np.ndarray:
    """The full candidate-feature vector of an unmeasured trace.

    One MFACT replay over the default sweep supplies ``CL`` and, through
    a :class:`GraphRecorder` riding the same replay, the sensitivity
    tape.  The row is bitwise-equal to the :func:`design_matrix` row of
    the trace's measured record, so the model predicts on exactly the
    features it was trained on.
    """
    recorder = GraphRecorder(trace.nranks, machine)
    report = model_trace(trace, machine, recorder=recorder)
    features = dict(extract_features(trace))
    features.update(
        analyze_graph(recorder.finish(), machine, lat_factors=(), bw_factors=()).features()
    )
    return np.array(_row(features, report.communication_sensitive), dtype=float)


def labels(records: Sequence[StudyRecord]) -> np.ndarray:
    """Ground-truth "requires simulation" labels (DIFFtotal > 2%)."""
    out = []
    for record in records:
        label = record.requires_simulation()
        if label is None:
            raise ValueError(f"record {record.name} lacks a packet-flow DIFFtotal")
        out.append(int(label))
    return np.array(out, dtype=int)


def naive_heuristic_success(records: Sequence[StudyRecord]) -> Tuple[float, ConfusionCounts]:
    """The naive rule: recommend simulation iff MFACT says ``cs``.

    Returns (success rate, confusion counts); the paper reports 73.4%.
    """
    y_true = labels(records)
    y_pred = np.array([int(r.mfact_cs) for r in records])
    counts = confusion(y_true, y_pred)
    return counts.success_rate, counts


@dataclass
class EnhancedMFACT:
    """MFACT plus the trained need-for-simulation predictor."""

    model: LogisticModel
    selected: Tuple[str, ...]
    cv: Optional[CrossValidationResult] = None

    @classmethod
    def train(
        cls,
        records: Sequence[StudyRecord],
        runs: int = 100,
        max_vars: int = MAX_VARIABLES,
        seed: int = 0,
        cross_validate: bool = True,
    ) -> "EnhancedMFACT":
        """Train on study records with the paper's protocol.

        Monte Carlo CV (``runs`` 80/20 partitions) estimates the
        generalization rates; the deployed model is the stepwise fit on
        the full data set.
        """
        with obs.span("enhanced"):
            with obs.span("features"):
                X = design_matrix(records)
                y = labels(records)
            with obs.span("mccv"):
                cv = (
                    monte_carlo_cv(
                        X, y, CANDIDATE_NAMES, runs=runs, max_vars=max_vars, seed=seed
                    )
                    if cross_validate
                    else None
                )
            with obs.span("fit"):
                final = stepwise_forward(X, y, CANDIDATE_NAMES, max_vars=max_vars)
        return cls(model=final.model, selected=final.selected, cv=cv)

    # -- prediction ----------------------------------------------------------

    def _select(self, row: Sequence[float]) -> np.ndarray:
        full = dict(zip(CANDIDATE_NAMES, row))
        return np.array([full[name] for name in self.selected], dtype=float)

    def _vector(self, features: Dict[str, float], cs: bool) -> np.ndarray:
        return self._select(_row(features, cs))

    def predict_record(self, record: StudyRecord) -> bool:
        """Recommend simulation for a measured study record."""
        return bool(self.model.predict(self._vector(record.features, record.mfact_cs))[0])

    def probability(self, record: StudyRecord) -> float:
        """P(simulation required) for a study record."""
        return float(self.model.predict_proba(self._vector(record.features, record.mfact_cs))[0])

    def predict_trace(self, trace: TraceSet, machine: MachineConfig) -> bool:
        """End-to-end: model the trace with MFACT, then recommend.

        This is the deployment path: one cheap modeling replay (see
        :func:`candidate_row`) decides whether the expensive simulation
        is worth running.
        """
        return bool(self.model.predict(self._select(candidate_row(trace, machine)))[0])

    def evaluate(self, records: Sequence[StudyRecord]) -> ConfusionCounts:
        """Confusion counts of the deployed model on records."""
        y_true = labels(records)
        y_pred = np.array([int(self.predict_record(r)) for r in records])
        return confusion(y_true, y_pred)

    @property
    def success_rate(self) -> float:
        """Cross-validated success rate (paper: 93.2%)."""
        if self.cv is None:
            raise ValueError("model was trained without cross-validation")
        return self.cv.success_rate
