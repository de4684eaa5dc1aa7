"""Tests for the extension features: what-if exploration, bottleneck
analysis, multi-job interference, trace compression, trace CLI."""

import numpy as np
import pytest

from repro import obs
from repro.machines import CIELITO
from repro.mfact import analyze_bottlenecks, explore_design_space
from repro.mfact.hockney import ConfigGrid
from repro.mfact.logical_clock import LogicalClockReplay
from repro.mfact.whatif import DesignPoint
from repro.sim import merge_traces, simulate_multijob
from repro.trace import compress_trace, decompress_trace, write_trace
from repro.trace.cli import main as trace_cli
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet
from repro.workloads import generate_doe, generate_npb, synthesize_ground_truth


@pytest.fixture(scope="module")
def comm_trace():
    t = generate_doe("Nekbone", 16, CIELITO, seed=91, compute_per_iter=0.00005,
                     ranks_per_node=1)
    return synthesize_ground_truth(t, CIELITO, seed=91)


@pytest.fixture(scope="module")
def comp_trace():
    t = generate_npb("EP", 8, CIELITO, seed=92, compute_per_iter=0.02,
                     ranks_per_node=1, imbalance=0.4)
    return synthesize_ground_truth(t, CIELITO, seed=92)


class TestDesignSpace:
    def test_grid_shape(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        assert len(result.points) == 3 * 3 * 3
        assert result.total_time.shape == (27,)

    def test_baseline_speedup_is_one(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        assert result.speedup(DesignPoint(1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_all_upgrades_help(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        best_point, best_speedup = result.best()
        assert best_speedup >= 1.0
        # The all-maxed machine is at least as good as any single upgrade.
        assert best_speedup >= result.speedup(DesignPoint(10.0, 1.0, 1.0)) - 1e-9

    def test_comm_bound_app_prefers_network(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        net = result.speedup(DesignPoint(10.0, 10.0, 1.0))
        cpu = result.speedup(DesignPoint(1.0, 1.0, 10.0))
        assert net > cpu

    def test_compute_bound_app_prefers_cpu(self, comp_trace):
        result = explore_design_space(comp_trace, CIELITO)
        net = result.speedup(DesignPoint(10.0, 10.0, 1.0))
        cpu = result.speedup(DesignPoint(1.0, 1.0, 10.0))
        assert cpu > net

    def test_cheapest_meeting_target(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        point = result.cheapest_meeting(1.01)
        assert point is not None
        assert result.speedup(point) >= 1.01

    def test_unreachable_target(self, comm_trace):
        result = explore_design_space(comm_trace, CIELITO)
        assert result.cheapest_meeting(1e6) is None

    def test_amdahl_table_sorted(self, comm_trace):
        rows = explore_design_space(comm_trace, CIELITO).amdahl_table()
        speedups = [s for _, s in rows]
        assert speedups == sorted(speedups, reverse=True)

    def test_requires_baseline_point(self, comm_trace):
        with pytest.raises(ValueError, match="baseline"):
            explore_design_space(comm_trace, CIELITO, bandwidth_factors=(2.0,),
                                 latency_factors=(1.0,), compute_factors=(1.0,))

    def test_rejects_nonpositive_factors(self, comm_trace):
        with pytest.raises(ValueError):
            explore_design_space(comm_trace, CIELITO, bandwidth_factors=(0.0, 1.0))

    def test_one_replay_prices_the_whole_grid(self, comm_trace):
        with obs.collect_task() as reg:
            explore_design_space(comm_trace, CIELITO, compute_factors=(1.0, 10.0, 100.0))
            replays = reg.snapshot().counters["repro_mfact_replays_total"]
        assert replays == 1

    def test_totals_match_per_compute_factor_replays(self, comm_trace):
        bw, lat, cpu = (1.0, 2.0, 10.0), (1.0, 2.0, 10.0), (1.0, 10.0, 100.0)
        result = explore_design_space(comm_trace, CIELITO, bw, lat, cpu)
        expected = []
        for cf in cpu:
            lats = [CIELITO.latency / lf for lf in lat for _ in bw]
            bws = [CIELITO.bandwidth * bf for _ in lat for bf in bw]
            grid = ConfigGrid(lats, bws, [CIELITO.compute_scale / cf] * len(lats))
            expected.append(LogicalClockReplay(comm_trace, CIELITO, grid).run().total_time)
        assert np.array_equal(result.total_time, np.concatenate(expected))


class TestBottleneckAnalysis:
    def test_decomposition_covers_ranks(self, comm_trace):
        report = analyze_bottlenecks(comm_trace, CIELITO)
        assert len(report.ranks) == comm_trace.nranks
        for r in report.ranks:
            assert r.total >= 0
            assert r.comm == pytest.approx(r.latency + r.bandwidth + r.wait)

    def test_comm_bound_recommends_network(self, comm_trace):
        report = analyze_bottlenecks(comm_trace, CIELITO)
        assert report.bandwidth_headroom > 1.02
        assert "bandwidth" in report.recommendation() or "latency" in report.recommendation()

    def test_imbalanced_app_recommends_balance(self, comp_trace):
        report = analyze_bottlenecks(comp_trace, CIELITO)
        assert report.balance_headroom > report.bandwidth_headroom
        assert "imbalance" in report.recommendation() or "compute-limited" in report.recommendation()

    def test_stragglers_detected(self, comp_trace):
        report = analyze_bottlenecks(comp_trace, CIELITO)
        assert len(report.stragglers) >= 1
        assert len(report.stragglers) < comp_trace.nranks

    def test_dominant_component(self, comp_trace):
        report = analyze_bottlenecks(comp_trace, CIELITO)
        assert report.dominant_component() in ("compute", "wait")

    def test_invalid_upgrade_factor(self, comm_trace):
        with pytest.raises(ValueError):
            analyze_bottlenecks(comm_trace, CIELITO, upgrade_factor=1.0)


def small_job(name_seed, nbytes=1 << 19, n=8, displacement=1):
    # Different displacements give the jobs different route shapes, so
    # co-scheduled jobs genuinely share fabric links (two identical
    # translated patterns would use disjoint, translated link sets).
    ranks = []
    for r in range(n):
        ranks.append([
            make_compute(0.0005),
            Op(OpKind.IRECV, peer=(r - displacement) % n, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.ISEND, peer=(r + displacement) % n, nbytes=nbytes, tag=1, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
            Op(OpKind.ALLREDUCE, nbytes=64),
        ])
    return TraceSet(f"job{name_seed}", "JOB", ranks, machine="cielito",
                    ranks_per_node=1)


class TestMultiJob:
    def test_merge_disjoint_spaces(self):
        merged, ranges = merge_traces([small_job(1), small_job(2)])
        assert merged.nranks == 16
        assert ranges == [(0, 8), (8, 8)]
        merged.validate()

    def test_merge_keeps_collectives_job_local(self):
        merged, _ = merge_traces([small_job(1), small_job(2)])
        comm_sizes = {len(m) for m in merged.comms.values()}
        assert 8 in comm_sizes  # per-job world comms
        # No collective op uses comm 0 (the merged world).
        assert all(op.comm != 0 for s in merged.ranks for op in s if op.is_collective)

    def test_interference_slows_jobs(self):
        jobs = [
            small_job(1, nbytes=1 << 21, displacement=1),
            small_job(2, nbytes=1 << 21, displacement=3),
        ]
        result = simulate_multijob(jobs, CIELITO, placement="scattered")
        assert len(result.jobs) == 2
        for job in result.jobs:
            assert job.slowdown >= 0.99
        assert result.worst_slowdown > 1.0

    def test_block_placement_less_interference(self):
        jobs = [
            small_job(1, nbytes=1 << 21, displacement=1),
            small_job(2, nbytes=1 << 21, displacement=3),
        ]
        scattered = simulate_multijob(jobs, CIELITO, placement="scattered")
        block = simulate_multijob(jobs, CIELITO, placement="block")
        assert block.worst_slowdown <= scattered.worst_slowdown + 0.15

    def test_interleaved_on_torus_partitions_planes(self):
        # Id-interleaving + dimension-order routing separates the jobs
        # into disjoint planes: an instructive zero-interference case.
        jobs = [
            small_job(1, nbytes=1 << 21, displacement=1),
            small_job(2, nbytes=1 << 21, displacement=3),
        ]
        result = simulate_multijob(jobs, CIELITO, placement="interleaved")
        assert result.worst_slowdown == pytest.approx(1.0, abs=1e-9)

    def test_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            simulate_multijob([small_job(1)], CIELITO, placement="random")

    def test_empty_jobs(self):
        with pytest.raises(ValueError):
            simulate_multijob([], CIELITO)


class TestCompression:
    @pytest.fixture(scope="class")
    def trace(self):
        # No inserted compute: iterations are structurally identical.
        return generate_doe("MiniFE", 8, CIELITO, seed=93, compute_per_iter=0.0,
                            ranks_per_node=2)

    def test_iterative_trace_compresses(self, trace):
        compressed = compress_trace(trace)
        assert compressed.compression_ratio > 2.0

    def test_lossy_time_mode_compresses_jittered_trace(self):
        jittered = generate_doe("MiniFE", 8, CIELITO, seed=93,
                                compute_per_iter=0.001, ranks_per_node=2)
        exact = compress_trace(jittered)
        lossy = compress_trace(jittered, duration_quantum=0.01)
        assert lossy.compression_ratio > 2.0 > exact.compression_ratio
        decompress_trace(lossy).validate()

    def test_roundtrip_structure(self, trace):
        again = decompress_trace(compress_trace(trace))
        assert again.op_count() == trace.op_count()
        again.validate()
        # Same message multiset per rank (requests renumbered).
        for s1, s2 in zip(trace.ranks, again.ranks):
            m1 = [(op.kind, op.peer, op.nbytes, op.tag) for op in s1 if op.is_p2p]
            m2 = [(op.kind, op.peer, op.nbytes, op.tag) for op in s2 if op.is_p2p]
            assert m1 == m2

    def test_roundtrip_replays_identically(self, trace):
        from repro.mfact import ConfigGrid, model_trace

        t1 = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
        again = decompress_trace(compress_trace(trace))
        t2 = model_trace(again, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_incompressible_stream(self):
        ranks = [[make_compute(0.001 * (i + 1)) for i in range(10)]]
        trace = TraceSet("t", "T", ranks)
        compressed = compress_trace(trace)
        assert compressed.compression_ratio == pytest.approx(1.0)
        assert decompress_trace(compressed).op_count() == 10

    def test_request_spanning_blocks_safe(self):
        # irecv and wait separated by a compute: any folding must keep
        # the wiring intact.
        ops0 = []
        for i in range(4):
            ops0.append(Op(OpKind.IRECV, peer=1, nbytes=64, tag=1, req=i + 1))
            ops0.append(make_compute(0.001))
            ops0.append(Op(OpKind.WAIT, req=i + 1))
        ops1 = [Op(OpKind.SEND, peer=0, nbytes=64, tag=1) for _ in range(4)]
        trace = TraceSet("t", "T", [ops0, ops1])
        again = decompress_trace(compress_trace(trace))
        again.validate()

    def test_invalid_max_block(self):
        with pytest.raises(ValueError):
            compress_trace(TraceSet("t", "T", [[]]), max_block=0)


class TestTraceCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        trace = generate_npb("CG", 8, CIELITO, seed=94, compute_per_iter=0.001,
                             ranks_per_node=2)
        synthesize_ground_truth(trace, CIELITO, seed=94)
        return str(write_trace(trace, tmp_path / "cg.dmp"))

    def test_info(self, trace_file, capsys):
        assert trace_cli(["info", trace_file]) == 0
        out = capsys.readouterr().out
        assert "ranks" in out and "measured total" in out

    def test_validate(self, trace_file, capsys):
        assert trace_cli(["validate", trace_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_features(self, trace_file, capsys):
        assert trace_cli(["features", trace_file]) == 0
        assert "PoC" in capsys.readouterr().out

    def test_compress_stats(self, trace_file, capsys):
        assert trace_cli(["compress-stats", trace_file]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_sensitivity(self, trace_file, capsys):
        assert trace_cli(["sensitivity", trace_file]) == 0
        out = capsys.readouterr().out
        assert "latency tolerance" in out
        assert "critical path" in out

    def test_sensitivity_json(self, trace_file, capsys):
        import json

        assert trace_cli(["sensitivity", trace_file, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob["features"]) == {
            "lat_tolerance", "bw_sensitivity", "critical_path_frac"
        }
        assert blob["graph"]["nodes"] > 0
