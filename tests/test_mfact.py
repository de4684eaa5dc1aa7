"""MFACT modeling engine tests: Hockney grid, replay semantics,
counters, classification."""

import re

import numpy as np
import pytest

from repro.analysis import lint_trace
from repro.machines import CIELITO, EDISON, MachineConfig
from repro.mfact import (
    AppClass,
    ConfigGrid,
    CounterSet,
    LogicalClockReplay,
    ReplayDeadlockError,
    model_trace,
)
from repro.mfact.classify import bandwidth_sensitivity, latency_sensitivity
from repro.sim import simulate_trace
from repro.sim.mpi_replay import ReplayShared
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet, TraceValidationError
from repro.workloads import synthesize_ground_truth


class TestConfigGrid:
    def test_single(self):
        grid = ConfigGrid.single(CIELITO)
        assert len(grid) == 1
        assert grid.baseline == 0
        assert grid.bandwidth[0] == CIELITO.bandwidth

    def test_sweep_contains_baseline(self):
        grid = ConfigGrid.sweep(CIELITO)
        assert grid.latency[grid.baseline] == CIELITO.latency
        assert grid.bandwidth[grid.baseline] == CIELITO.bandwidth

    def test_sweep_size(self):
        grid = ConfigGrid.sweep(CIELITO, bw_factors=(0.5, 1, 2), lat_factors=(1,))
        assert len(grid) == 3

    def test_find(self):
        grid = ConfigGrid.sweep(CIELITO)
        idx = grid.find(0.125, 1.0, CIELITO)
        assert grid.bandwidth[idx] == pytest.approx(CIELITO.bandwidth / 8)

    def test_find_missing_raises(self):
        grid = ConfigGrid.single(CIELITO)
        with pytest.raises(KeyError):
            grid.find(0.125, 1.0, CIELITO)

    def test_find_matches_compute_scale(self):
        # Same network twice; only the second runs at the machine's own
        # compute speed, so it is the one at factors (1, 1).
        scale = CIELITO.compute_scale
        grid = ConfigGrid(
            [CIELITO.latency] * 2, [CIELITO.bandwidth] * 2, [2 * scale, scale]
        )
        assert grid.find(1.0, 1.0, CIELITO) == 1

    def test_lat_factor_slows_latency(self):
        grid = ConfigGrid.sweep(CIELITO, bw_factors=(1.0,), lat_factors=(0.125, 1.0))
        idx = grid.find(1.0, 0.125, CIELITO)
        assert grid.latency[idx] == pytest.approx(CIELITO.latency * 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ConfigGrid([1e-6], [1e9, 2e9])
        with pytest.raises(ValueError):
            ConfigGrid([-1.0], [1e9])
        with pytest.raises(ValueError):
            ConfigGrid([1e-6], [1e9], baseline=5)


class TestCounterSet:
    def test_shapes(self):
        c = CounterSet(4, 3)
        assert c.compute.shape == (4, 3)
        assert c.communication.shape == (4, 3)

    def test_communication_sum(self):
        c = CounterSet(2, 2)
        c.latency += 1.0
        c.bandwidth += 2.0
        c.wait += 3.0
        assert np.all(c.communication == 6.0)

    def test_mean_over_ranks(self):
        c = CounterSet(2, 1)
        c.compute[0, 0] = 2.0
        assert c.mean_over_ranks(0)["compute"] == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            CounterSet(0, 1)


def simple_trace(nbytes=1 << 20, compute=0.5):
    r0 = [make_compute(compute), Op(OpKind.SEND, peer=1, nbytes=nbytes, tag=0)]
    r1 = [Op(OpKind.RECV, peer=0, nbytes=nbytes, tag=0)]
    return TraceSet("simple", "T", [r0, r1])


class TestReplaySemantics:
    def test_blocking_pair_time(self):
        trace = simple_trace()
        rep = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO))
        # Receiver finishes at compute + overheads + alpha + m/B.
        expected = 0.5 + CIELITO.latency + (1 << 20) / CIELITO.bandwidth
        assert rep.baseline_total_time == pytest.approx(expected, rel=0.01)

    def test_receiver_wait_counter(self):
        rep = model_trace(simple_trace(), CIELITO, ConfigGrid.single(CIELITO))
        # Rank 1 waits ~0.5 s for rank 0's compute.
        assert rep.baseline_counters["wait"] == pytest.approx(0.25, rel=0.05)

    def test_compute_scales(self):
        machine = CIELITO
        grid = ConfigGrid(
            [machine.latency] * 2,
            [machine.bandwidth] * 2,
            compute_scale=[1.0, 2.0],
        )
        rep = model_trace(simple_trace(), machine, grid)
        assert rep.total_time[1] > rep.total_time[0]

    def test_bandwidth_config_changes_time(self):
        grid = ConfigGrid.sweep(CIELITO, bw_factors=(0.125, 1.0), lat_factors=(1.0,))
        rep = model_trace(simple_trace(nbytes=8 << 20, compute=0.0), CIELITO, grid)
        slow = rep.time_at(0.125, 1.0, CIELITO)
        base = rep.baseline_total_time
        assert slow > 5 * base  # 8x less bandwidth on a bw-bound trace

    def test_isend_overlaps_compute(self):
        # Sender posts isend then computes; receiver should not wait for
        # the sender's compute.
        r0 = [
            Op(OpKind.ISEND, peer=1, nbytes=1024, tag=0, req=1),
            make_compute(1.0),
            Op(OpKind.WAIT, req=1),
        ]
        r1 = [Op(OpKind.RECV, peer=0, nbytes=1024, tag=0)]
        rep = model_trace(TraceSet("t", "T", [r0, r1]), CIELITO, ConfigGrid.single(CIELITO))
        assert rep.per_rank_total[1] < 0.01

    def test_irecv_wait_order_any(self):
        # Waits posted out of arrival order still complete.
        r0 = [
            Op(OpKind.ISEND, peer=1, nbytes=512, tag=1, req=1),
            Op(OpKind.ISEND, peer=1, nbytes=512, tag=2, req=2),
            Op(OpKind.WAIT, req=2),
            Op(OpKind.WAIT, req=1),
        ]
        r1 = [
            Op(OpKind.IRECV, peer=0, nbytes=512, tag=2, req=1),
            Op(OpKind.IRECV, peer=0, nbytes=512, tag=1, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
        ]
        rep = model_trace(TraceSet("t", "T", [r0, r1]), CIELITO)
        assert rep.baseline_total_time > 0

    def test_sender_nic_serializes_isends(self):
        machine = CIELITO
        nbytes = 4 << 20
        r0 = [
            Op(OpKind.ISEND, peer=1, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.ISEND, peer=1, nbytes=nbytes, tag=2, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
        ]
        r1 = [
            Op(OpKind.IRECV, peer=0, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.IRECV, peer=0, nbytes=nbytes, tag=2, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
        ]
        rep = model_trace(TraceSet("t", "T", [r0, r1]), machine, ConfigGrid.single(machine))
        two_transfers = 2 * nbytes / machine.bandwidth
        assert rep.baseline_total_time >= two_transfers

    def test_receiver_nic_serializes_incast(self):
        machine = CIELITO
        nbytes = 4 << 20
        senders = [[Op(OpKind.SEND, peer=0, nbytes=nbytes, tag=1)] for _ in range(3)]
        recvs = [Op(OpKind.RECV, peer=s, nbytes=nbytes, tag=1) for s in (1, 2, 3)]
        trace = TraceSet("t", "T", [recvs] + senders)
        rep = model_trace(trace, machine, ConfigGrid.single(machine))
        assert rep.baseline_total_time >= 3 * nbytes / machine.bandwidth

    def test_collective_synchronizes(self):
        ranks = [
            [make_compute(1.0), Op(OpKind.BARRIER)],
            [Op(OpKind.BARRIER)],
        ]
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO, ConfigGrid.single(CIELITO))
        assert rep.per_rank_total[1] >= 1.0

    def test_bcast_root_does_not_wait_for_members(self):
        ranks = [
            [Op(OpKind.BCAST, peer=0, nbytes=64)],
            [make_compute(1.0), Op(OpKind.BCAST, peer=0, nbytes=64)],
        ]
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO, ConfigGrid.single(CIELITO))
        assert rep.per_rank_total[0] < 0.1

    def test_reduce_root_waits_for_members(self):
        ranks = [
            [Op(OpKind.REDUCE, peer=0, nbytes=64)],
            [make_compute(1.0), Op(OpKind.REDUCE, peer=0, nbytes=64)],
        ]
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO, ConfigGrid.single(CIELITO))
        assert rep.per_rank_total[0] >= 1.0

    def test_subcommunicator_collective(self):
        ranks = [
            [Op(OpKind.ALLREDUCE, nbytes=64, comm=1)],
            [Op(OpKind.ALLREDUCE, nbytes=64, comm=1)],
            [make_compute(0.2)],
        ]
        trace = TraceSet("t", "T", ranks, comms={1: (0, 1)})
        rep = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO))
        # Rank 2 is independent of the subcomm collective.
        assert rep.per_rank_total[0] < 0.1

    def test_deadlock_detected(self):
        ranks = [
            [Op(OpKind.RECV, peer=1, nbytes=8, tag=0)],
            [Op(OpKind.RECV, peer=0, nbytes=8, tag=0)],
        ]
        with pytest.raises(ReplayDeadlockError):
            model_trace(TraceSet("t", "T", ranks), CIELITO)

    def test_wait_unknown_request(self):
        ranks = [[Op(OpKind.WAIT, req=9)], []]
        with pytest.raises(ReplayDeadlockError, match="unknown request"):
            model_trace(TraceSet("t", "T", ranks), CIELITO)

    def test_wait_unknown_request_in_synthesis(self):
        ranks = [[Op(OpKind.WAIT, req=9)], []]
        with pytest.raises(ReplayDeadlockError, match="unknown request"):
            synthesize_ground_truth(TraceSet("t", "T", ranks), CIELITO, 1)

    def test_clock_monotone_per_rank(self):
        trace = simple_trace()
        replay = LogicalClockReplay(trace, CIELITO)
        replay.run()
        assert np.all(replay.clk >= 0)

    def test_counters_roughly_decompose_total(self):
        trace = simple_trace()
        replay = LogicalClockReplay(trace, CIELITO, ConfigGrid.single(CIELITO))
        replay.run()
        c = replay.counters
        decomposed = (c.compute + c.communication)[:, 0]
        assert np.all(decomposed <= replay.clk[:, 0] * 1.05 + 1e-6)


class TestClassification:
    def test_compute_bound(self):
        ranks = [[make_compute(1.0), Op(OpKind.BARRIER)] for _ in range(4)]
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO)
        assert rep.classification == AppClass.COMPUTATION_BOUND
        assert not rep.communication_sensitive

    def test_load_imbalance_bound(self):
        ranks = [
            [make_compute(1.0 + 0.6 * r), Op(OpKind.BARRIER)] for r in range(4)
        ]
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO)
        assert rep.classification == AppClass.LOAD_IMBALANCE_BOUND

    def test_bandwidth_bound(self):
        n = 4
        ranks = []
        for r in range(n):
            ranks.append([
                Op(OpKind.IRECV, peer=(r - 1) % n, nbytes=8 << 20, tag=1, req=1),
                Op(OpKind.ISEND, peer=(r + 1) % n, nbytes=8 << 20, tag=1, req=2),
                Op(OpKind.WAIT, req=1),
                Op(OpKind.WAIT, req=2),
            ])
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO)
        assert rep.classification in (AppClass.BANDWIDTH_BOUND, AppClass.COMMUNICATION_BOUND)
        assert rep.communication_sensitive

    def test_latency_bound(self):
        n = 2
        ranks = [[], []]
        for _ in range(200):
            ranks[0].append(Op(OpKind.SEND, peer=1, nbytes=8, tag=1))
            ranks[0].append(Op(OpKind.RECV, peer=1, nbytes=8, tag=2))
            ranks[1].append(Op(OpKind.RECV, peer=0, nbytes=8, tag=1))
            ranks[1].append(Op(OpKind.SEND, peer=0, nbytes=8, tag=2))
        rep = model_trace(TraceSet("t", "T", ranks), CIELITO)
        assert rep.classification in (AppClass.LATENCY_BOUND, AppClass.COMMUNICATION_BOUND)

    def test_sensitivity_values(self):
        ranks = [[make_compute(1.0), Op(OpKind.BARRIER)] for _ in range(4)]
        trace = TraceSet("t", "T", ranks)
        replay = LogicalClockReplay(trace, CIELITO)
        rep = replay.run()
        s_bw = bandwidth_sensitivity(CIELITO, rep.grid, rep.total_time)
        s_lat = latency_sensitivity(CIELITO, rep.grid, rep.total_time)
        assert abs(s_bw) < 0.01
        assert abs(s_lat) < 0.01

    def test_network_sensitive_property(self):
        assert AppClass.BANDWIDTH_BOUND.network_sensitive
        assert not AppClass.COMPUTATION_BOUND.network_sensitive


class TestReport:
    def test_walltime_recorded(self):
        rep = model_trace(simple_trace(), CIELITO)
        assert rep.walltime > 0

    def test_machine_identity(self):
        rep = model_trace(simple_trace(), EDISON)
        assert rep.machine == "edison"

    def test_comm_plus_compute_close_to_total(self):
        rep = model_trace(simple_trace(), CIELITO)
        approx_total = rep.baseline_counters["compute"] + rep.baseline_comm_time
        assert approx_total <= rep.baseline_total_time * 1.6


def cross_comm_trace():
    """Rank 0 sends tag 5 on comm 1; rank 1 receives tag 5 on comm 0."""
    ranks = [
        [Op(OpKind.SEND, peer=1, nbytes=64, tag=5, comm=1)],
        [Op(OpKind.RECV, peer=0, nbytes=64, tag=5, comm=0)],
    ]
    return TraceSet("xcomm", "T", ranks, machine="cielito", ranks_per_node=1,
                    comms={1: (0, 1)})


class TestCommunicatorIsPartOfTheEnvelope:
    """MPI matches on (src, dst, tag, comm): a send on one communicator
    never satisfies a receive posted on another."""

    RECV_CHANNEL = "rank 1 in blocking recv on channel (src=0, dst=1, tag=5) on comm 0"

    def test_validate_rejects(self):
        with pytest.raises(TraceValidationError, match="unmatched p2p channels"):
            cross_comm_trace().validate()

    def test_mfact_deadlocks(self):
        with pytest.raises(ReplayDeadlockError, match=re.escape(self.RECV_CHANNEL)) as err:
            model_trace(cross_comm_trace(), CIELITO)
        assert "oldest unmatched channel (src=0, dst=1, tag=5) on comm 1" in str(err.value)

    def test_synthesis_deadlocks(self):
        with pytest.raises(ReplayDeadlockError, match=re.escape(self.RECV_CHANNEL)):
            synthesize_ground_truth(cross_comm_trace(), CIELITO, 1)

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("model", ["packet", "flow", "packet-flow"])
    def test_engines_deadlock(self, model, share):
        trace = cross_comm_trace()
        shared = ReplayShared(trace, CIELITO) if share else None
        with pytest.raises(ReplayDeadlockError, match=re.escape(self.RECV_CHANNEL)) as err:
            simulate_trace(trace, CIELITO, model, shared=shared)
        assert "oldest unmatched channel (src=0, dst=1, tag=5) on comm 1" in str(err.value)

    def test_tracelint_reports_mismatch_and_deadlock(self):
        fired = [d.rule for d in lint_trace(cross_comm_trace()).diagnostics]
        assert fired.count("trace/unmatched-p2p") == 2
        assert "trace/deadlock" in fired
