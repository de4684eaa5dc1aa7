"""Differential suite: analytic (recorded-tape) sensitivity results vs
brute-force replays, across the seeded mini-corpus.

The sensitivity package documents a ``1e-6`` relative agreement band
between tape evaluation and a real replay; this suite holds the much
tighter ``1e-9`` observed in practice so any structural regression in
the recorder (a missing edge, a mis-folded cost) fails loudly rather
than hiding inside the documented band.
"""

import numpy as np
import pytest

from repro.core.pipeline import SIM_MODELS, measure_trace
from repro.machines.presets import get_machine
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay, model_trace
from repro.mfact.whatif import DesignSpaceResult, explore_design_space
from repro.sensitivity import GraphRecorder, bandwidth_curve, latency_curve, record_graph
from repro.trace.features import SENSITIVITY_FEATURE_NAMES
from repro.workloads.suite import build_trace, mini_corpus_specs

REL_BAND = 1e-9

BW_FACTORS = (0.25, 1.0, 4.0)
LAT_FACTORS = (1.0, 8.0)
COMPUTE_FACTORS = (1.0, 10.0)


@pytest.fixture(scope="module")
def corpus():
    """(trace, machine) for a small seeded mini-corpus slice."""
    out = []
    for spec in mini_corpus_specs(count=4, nranks=8):
        trace = build_trace(spec)
        out.append((trace, get_machine(trace.machine)))
    return out


def _tape_grid(trace, machine):
    """Tape-priced totals over the design grid, in explore_design_space's
    point order (compute-major, then latency, then bandwidth)."""
    graph, _ = record_graph(trace, machine)
    cf, lf, bf = np.meshgrid(COMPUTE_FACTORS, LAT_FACTORS, BW_FACTORS, indexing="ij")
    return graph.evaluate(
        machine.latency / lf.ravel(),
        machine.bandwidth * bf.ravel(),
        machine.compute_scale / cf.ravel(),
    )


class TestAnalyticDesignSpace:
    def test_grid_matches_replayed_path(self, corpus):
        for trace, machine in corpus:
            replayed = explore_design_space(
                trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
            )
            np.testing.assert_allclose(
                _tape_grid(trace, machine), replayed.total_time, rtol=REL_BAND
            )

    def test_derived_queries_agree(self, corpus):
        trace, machine = corpus[0]
        replayed = explore_design_space(
            trace, machine, BW_FACTORS, LAT_FACTORS, COMPUTE_FACTORS
        )
        analytic = DesignSpaceResult(
            machine=machine,
            points=replayed.points,
            total_time=_tape_grid(trace, machine),
            baseline_index=replayed.baseline_index,
        )
        assert analytic.best()[0] == replayed.best()[0]
        assert analytic.cheapest_meeting(2.0) == replayed.cheapest_meeting(2.0)
        assert analytic.baseline_time == pytest.approx(
            replayed.baseline_time, rel=REL_BAND
        )

    def test_rejects_gridless_baseline(self, corpus):
        trace, machine = corpus[0]
        with pytest.raises(ValueError, match="baseline"):
            explore_design_space(trace, machine, (2.0,), (1.0,), (1.0,))


class TestCurveFidelity:
    def test_latency_curve_matches_per_point_replays(self, corpus):
        for trace, machine in corpus:
            graph, _ = record_graph(trace, machine)
            for factor, total in latency_curve(graph, machine, (1.0, 4.0, 64.0)):
                grid = ConfigGrid(
                    [machine.latency * factor],
                    [machine.bandwidth],
                    [machine.compute_scale],
                )
                replayed = float(
                    LogicalClockReplay(trace, machine, grid).run().total_time[0]
                )
                assert total == pytest.approx(replayed, rel=REL_BAND)

    def test_bandwidth_curve_matches_per_point_replays(self, corpus):
        trace, machine = corpus[0]
        graph, _ = record_graph(trace, machine)
        for factor, total in bandwidth_curve(graph, machine, (0.125, 1.0, 8.0)):
            grid = ConfigGrid(
                [machine.latency],
                [machine.bandwidth * factor],
                [machine.compute_scale],
            )
            replayed = float(
                LogicalClockReplay(trace, machine, grid).run().total_time[0]
            )
            assert total == pytest.approx(replayed, rel=REL_BAND)


class TestFeatureStability:
    def test_features_identical_across_engines_and_sim_modes(self, corpus):
        """The sensitivity features come from MFACT's modeling replay
        alone, so engine choice and scalar/vectorized sim mode must not
        move them by a single bit."""
        trace, _ = corpus[0]
        variants = [
            measure_trace(trace, engines=SIM_MODELS, sim_vectorized=True),
            measure_trace(trace, engines=SIM_MODELS, sim_vectorized=False),
            measure_trace(trace, engines=["packet-flow"], sim_vectorized=True),
            measure_trace(trace, engines=["flow"], sim_vectorized=False),
        ]
        reference = {
            name: variants[0].features[name] for name in SENSITIVITY_FEATURE_NAMES
        }
        for record in variants[1:]:
            for name in SENSITIVITY_FEATURE_NAMES:
                assert record.features[name] == reference[name]

    def test_tape_independent_of_replay_grid(self, corpus):
        """The recorder's hooks see only trace structure, so the tape
        recorded on MFACT's default sweep is record_graph's tape."""
        for trace, machine in corpus:
            single, _ = record_graph(trace, machine)
            recorder = GraphRecorder(trace.nranks, machine)
            model_trace(trace, machine, recorder=recorder)
            swept = recorder.finish()
            assert swept.terminal == single.terminal
            for name in ("pred", "const", "alpha", "nbytes", "compute", "starts", "node_rank"):
                assert np.array_equal(getattr(swept, name), getattr(single, name)), name
