"""Core-contribution tests: DIFFtotal, study records, enhanced MFACT."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    DIFF_THRESHOLD,
    EnhancedMFACT,
    StudyRecord,
    diff_total,
    measure_trace,
    naive_heuristic_success,
    requires_simulation,
)
from repro.core.enhanced_mfact import CANDIDATE_NAMES, candidate_row, design_matrix, labels
from repro.core.pipeline import ToolRun
from repro.machines import CIELITO, get_machine
from repro.trace.features import NUMERIC_FEATURE_NAMES, SENSITIVITY_FEATURE_NAMES
from repro.util.rng import substream
from repro.workloads import generate_npb, synthesize_ground_truth
from repro.workloads.suite import build_trace, mini_corpus_specs


class TestDiffTotal:
    def test_identity(self):
        assert diff_total(1.0, 1.0) == 0.0

    def test_symmetric_magnitude(self):
        assert diff_total(1.1, 1.0) == pytest.approx(0.1)
        assert diff_total(0.9, 1.0) == pytest.approx(0.1)

    def test_threshold_default(self):
        assert DIFF_THRESHOLD == 0.02
        assert not requires_simulation(1.019, 1.0)
        assert requires_simulation(1.021, 1.0)

    def test_custom_threshold(self):
        assert requires_simulation(1.04, 1.0, threshold=0.03)

    def test_invalid(self):
        with pytest.raises(ValueError):
            diff_total(1.0, 0.0)
        with pytest.raises(ValueError):
            diff_total(-1.0, 1.0)


def synthetic_record(index, diff, cs, rng):
    """A StudyRecord with controllable DIFFtotal and features."""
    features = {name: float(rng.normal()) for name in NUMERIC_FEATURE_NAMES}
    # PoC correlates with cs but noisily, so CL{ncs} stays the cleanest signal.
    features["PoC"] = (40.0 if cs else 10.0) + float(rng.normal(0, 15))
    mfact_total = 1.0
    record = StudyRecord(
        name=f"r{index}",
        app="X",
        suite="NPB",
        machine="cielito",
        nranks=64,
        spec_index=index,
        measured_total=1.2,
        measured_comm=0.2,
        comm_fraction=0.2,
        features=features,
    )
    record.mfact = ToolRun(True, total_time=mfact_total, comm_time=0.1, walltime=0.01)
    record.mfact_cs = cs
    record.mfact_class = "bandwidth-bound" if cs else "computation-bound"
    record.sims["packet-flow"] = ToolRun(
        True, total_time=mfact_total * (1 + diff), comm_time=0.1, walltime=0.1
    )
    return record


def synthetic_corpus(n=120, flip=0.05, seed=0):
    """cs records have large DIFF, ncs small, with a few label flips."""
    rng = substream(seed, "core-test")
    records = []
    for i in range(n):
        cs = i % 2 == 0
        noisy = rng.random() < flip
        big = cs != noisy
        diff = rng.uniform(0.05, 0.2) if big else rng.uniform(0.0, 0.015)
        records.append(synthetic_record(i, diff, cs, rng))
    return records


class TestStudyRecord:
    def test_diff_total(self):
        rng = substream(1, "x")
        record = synthetic_record(0, 0.10, True, rng)
        assert record.diff_total() == pytest.approx(0.10)
        assert record.requires_simulation() is True

    def test_missing_sim_gives_none(self):
        rng = substream(1, "x")
        record = synthetic_record(0, 0.10, True, rng)
        record.sims.clear()
        assert record.diff_total() is None
        assert record.requires_simulation() is None

    def test_failed_sim_gives_none(self):
        rng = substream(1, "x")
        record = synthetic_record(0, 0.10, True, rng)
        record.sims["packet-flow"] = ToolRun(False, error="nope")
        assert record.diff_total() is None

    def test_json_roundtrip(self):
        rng = substream(1, "x")
        record = synthetic_record(3, 0.04, False, rng)
        again = StudyRecord.from_json(record.to_json())
        assert again.name == record.name
        assert again.diff_total() == pytest.approx(record.diff_total())
        assert again.mfact.walltime == record.mfact.walltime


class TestDesignMatrix:
    def test_shape_and_names(self):
        records = synthetic_corpus(20)
        X = design_matrix(records)
        assert X.shape == (20, len(CANDIDATE_NAMES))
        assert CANDIDATE_NAMES[-1] == "CL{ncs}"

    def test_cl_indicator(self):
        records = synthetic_corpus(4)
        X = design_matrix(records)
        for row, record in zip(X, records):
            assert row[-1] == (0.0 if record.mfact_cs else 1.0)

    def test_labels(self):
        records = synthetic_corpus(20)
        y = labels(records)
        assert set(np.unique(y)) <= {0, 1}

    def test_labels_missing_sim_raises(self):
        records = synthetic_corpus(5)
        records[2].sims.clear()
        with pytest.raises(ValueError):
            labels(records)


class TestNaiveHeuristic:
    def test_high_success_when_cs_aligned(self):
        rate, counts = naive_heuristic_success(synthetic_corpus(flip=0.0))
        assert rate == 1.0

    def test_flips_reduce_success(self):
        rate, _ = naive_heuristic_success(synthetic_corpus(flip=0.25, seed=3))
        assert 0.5 < rate < 0.95


class TestEnhancedMFACT:
    def test_beats_naive_on_feature_rich_corpus(self):
        records = synthetic_corpus(n=160, flip=0.15, seed=5)
        # Make a numeric feature explain the flips so the model can win.
        for record in records:
            record.features["PoSYN"] = (
                50.0 if record.requires_simulation() else 5.0
            ) + float(substream(record.spec_index, "n").normal(0, 2))
        enhanced = EnhancedMFACT.train(records, runs=20, seed=1)
        naive_rate, _ = naive_heuristic_success(records)
        assert enhanced.success_rate > naive_rate

    def test_cl_selected_for_aligned_corpus(self):
        records = synthetic_corpus(n=160, flip=0.05, seed=2)
        enhanced = EnhancedMFACT.train(records, runs=10, seed=0)
        assert "CL{ncs}" in enhanced.selected
        idx = enhanced.selected.index("CL{ncs}")
        assert enhanced.model.coef[idx + 1] < 0  # ncs -> no simulation

    def test_predict_record(self):
        records = synthetic_corpus(n=120, flip=0.0, seed=4)
        enhanced = EnhancedMFACT.train(records, runs=5, seed=0)
        preds = [enhanced.predict_record(r) for r in records]
        truth = [r.requires_simulation() for r in records]
        acc = np.mean([p == t for p, t in zip(preds, truth)])
        assert acc > 0.9

    def test_probability_in_range(self):
        records = synthetic_corpus(n=80, seed=6)
        enhanced = EnhancedMFACT.train(records, runs=5, seed=0)
        p = enhanced.probability(records[0])
        assert 0.0 <= p <= 1.0

    def test_evaluate_counts(self):
        records = synthetic_corpus(n=80, seed=7)
        enhanced = EnhancedMFACT.train(records, runs=5, seed=0)
        counts = enhanced.evaluate(records)
        assert counts.total == 80

    def test_success_rate_requires_cv(self):
        records = synthetic_corpus(n=80, seed=8)
        enhanced = EnhancedMFACT.train(records, cross_validate=False)
        with pytest.raises(ValueError):
            _ = enhanced.success_rate

    def test_predict_trace_end_to_end(self):
        trace = generate_npb("EP", 8, CIELITO, seed=2, compute_per_iter=0.01,
                             ranks_per_node=2)
        synthesize_ground_truth(trace, CIELITO, seed=2)
        records = synthetic_corpus(n=100, seed=9)
        enhanced = EnhancedMFACT.train(records, runs=5, seed=0)
        decision = enhanced.predict_trace(trace, CIELITO)
        assert decision in (True, False)

    def test_predict_trace_costs_one_replay(self):
        trace = generate_npb("CG", 8, CIELITO, seed=3, compute_per_iter=0.002,
                             ranks_per_node=2)
        synthesize_ground_truth(trace, CIELITO, seed=3)
        enhanced = EnhancedMFACT.train(synthetic_corpus(n=100, seed=9), runs=5, seed=0)
        with obs.collect_task() as reg:
            enhanced.predict_trace(trace, CIELITO)
            replays = reg.snapshot().counters["repro_mfact_replays_total"]
        assert replays == 1

    def test_prediction_row_matches_training_row(self):
        # Training features come from measure_trace, prediction features
        # from predict_trace's single replay: they must be the same bits.
        trace = build_trace(mini_corpus_specs(count=1, nranks=8)[0])
        record = measure_trace(trace, engines=())
        row = candidate_row(trace, get_machine(trace.machine))
        assert np.array_equal(row, design_matrix([record])[0])


class TestMeasureTrace:
    def test_full_measurement(self):
        trace = generate_npb("CG", 8, CIELITO, seed=3, compute_per_iter=0.002,
                             ranks_per_node=2)
        synthesize_ground_truth(trace, CIELITO, seed=3)
        record = measure_trace(trace)
        assert record.mfact.completed
        assert set(record.sims) == {"packet", "flow", "packet-flow"}
        assert all(run.completed for run in record.sims.values())
        assert record.diff_total() is not None
        # Table III numerics plus the zero-replay sensitivity features.
        assert set(record.features) == set(
            NUMERIC_FEATURE_NAMES + SENSITIVITY_FEATURE_NAMES
        )
        assert all(
            np.isfinite(record.features[n]) for n in SENSITIVITY_FEATURE_NAMES
        )

    def test_engine_failures_recorded(self):
        trace = generate_npb(
            "CG", 8, CIELITO, seed=3, compute_per_iter=0.002,
            ranks_per_node=2, use_threads=True,
        )
        synthesize_ground_truth(trace, CIELITO, seed=3)
        record = measure_trace(trace)
        assert not record.sims["packet"].completed
        assert not record.sims["flow"].completed
        assert record.sims["packet-flow"].completed
        assert "thread" in record.sims["packet"].error
