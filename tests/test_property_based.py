"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_trace
from repro.collectives import collective_cost, schedule_collective
from repro.machines import CIELITO
from repro.mfact import ConfigGrid, ReplayDeadlockError, model_trace
from repro.sim import MODEL_CLASSES, simulate_trace
from repro.sim.mpi_replay import ReplayShared
from repro.trace.dumpi import dumps, loads
from repro.trace.events import Op, OpKind, make_compute
from repro.trace.trace import TraceSet
from repro.topology import Dragonfly, FatTree, Torus3D
from repro.util.stats import fraction_within, trimmed_mean
from repro.util.units import format_time
from repro.workloads.synthesis import synthesize_ground_truth

COLLECTIVES = [
    OpKind.BARRIER,
    OpKind.BCAST,
    OpKind.REDUCE,
    OpKind.ALLREDUCE,
    OpKind.ALLGATHER,
    OpKind.ALLTOALL,
    OpKind.GATHER,
    OpKind.SCATTER,
    OpKind.REDUCE_SCATTER,
]

slow = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestCollectiveProperties:
    @given(
        kind=st.sampled_from(COLLECTIVES),
        p=st.integers(min_value=1, max_value=40),
        nbytes=st.integers(min_value=0, max_value=1 << 20),
        root_idx=st.integers(min_value=0, max_value=39),
    )
    @slow
    def test_schedule_always_matches(self, kind, p, nbytes, root_idx):
        ranks = tuple(range(100, 100 + p))
        root = ranks[root_idx % p]
        sched = schedule_collective(kind, ranks, nbytes, root=root)
        sends = {}
        recvs = {}
        for rank, phases in sched.items():
            for phase in phases:
                for peer, size in phase.sends:
                    sends[(rank, peer, size)] = sends.get((rank, peer, size), 0) + 1
                for peer, size in phase.recvs:
                    recvs[(peer, rank, size)] = recvs.get((peer, rank, size), 0) + 1
        assert sends == recvs

    @given(
        kind=st.sampled_from(COLLECTIVES),
        p=st.integers(min_value=2, max_value=64),
        nbytes=st.integers(min_value=1, max_value=1 << 22),
    )
    @slow
    def test_cost_monotone_in_bytes(self, kind, p, nbytes):
        from repro.collectives import ALLTOALL_BRUCK_MAX_BYTES

        if kind == OpKind.ALLTOALL:
            # Crossing the Bruck/pairwise threshold switches algorithms
            # (implementations switch precisely because the other one is
            # cheaper), so monotonicity only holds within one algorithm.
            crosses = nbytes <= ALLTOALL_BRUCK_MAX_BYTES < nbytes * 2
            if crosses:
                return
        small = collective_cost(kind, p, nbytes)
        large = collective_cost(kind, p, nbytes * 2)
        assert large.bytes_on_wire >= small.bytes_on_wire
        assert large.alpha_count == small.alpha_count

    @given(p=st.integers(min_value=2, max_value=128))
    @slow
    def test_barrier_cost_grows_with_p(self, p):
        assert (
            collective_cost(OpKind.BARRIER, 2 * p, 0).alpha_count
            >= collective_cost(OpKind.BARRIER, p, 0).alpha_count
        )


class TestTopologyProperties:
    @given(
        dims=st.tuples(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6),
        ),
        data=st.data(),
    )
    @slow
    def test_torus_routes_reach_destination(self, dims, data):
        topo = Torus3D(dims)
        src = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        by_link = {link: (u, v) for u, v, link in topo._edges()}
        here = src
        for link in topo.route(src, dst):
            u, v = by_link[link]
            assert u == here
            here = v
        assert here == dst

    @given(
        dims=st.tuples(
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=5),
        ),
        data=st.data(),
    )
    @slow
    def test_torus_hop_count_within_diameter(self, dims, data):
        topo = Torus3D(dims)
        src = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        diameter = sum(d // 2 for d in dims)
        assert topo.hop_count(src, dst) <= diameter

    @given(
        p=st.integers(min_value=1, max_value=3),
        a_half=st.integers(min_value=1, max_value=3),
        g=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    @slow
    def test_dragonfly_routes_valid(self, p, a_half, g, data):
        a, h = 2 * a_half, a_half
        if g > a * h + 1:
            g = a * h + 1
        topo = Dragonfly(p, a, h, g)
        src = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        by_link = {link: (u, v) for u, v, link in topo._edges()}
        sg, sr = topo.locate(src)
        dg, dr = topo.locate(dst)
        here = ("r", sg, sr)
        route = topo.route(src, dst)
        assert len(route) <= 3
        for link in route:
            u, v = by_link[link]
            assert u == here
            here = v
        assert here == ("r", dg, dr)

    @given(
        m=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=6),
        r=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @slow
    def test_fattree_routes_valid(self, m, n, r, data):
        topo = FatTree(m, n, r)
        src = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=topo.nnodes - 1))
        if src == dst:
            assert topo.route(src, dst) == ()
            return
        by_link = {link: (u, v) for u, v, link in topo._edges()}
        here = ("node", src)
        for link in topo.route(src, dst):
            u, v = by_link[link]
            assert u == here
            here = v
        assert here == ("node", dst)


def ring_trace_strategy(ranks_per_node=2):
    return st.builds(
        lambda n, nbytes, comp: _ring_trace(n, nbytes, comp, ranks_per_node),
        n=st.integers(min_value=2, max_value=10),
        nbytes=st.integers(min_value=1, max_value=1 << 18),
        comp=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    )


def _ring_trace(n, nbytes, comp, ranks_per_node=2):
    ranks = []
    for r in range(n):
        ops = [make_compute(comp * (1 + r / n))] if comp > 0 else []
        ops += [
            Op(OpKind.IRECV, peer=(r - 1) % n, nbytes=nbytes, tag=1, req=1),
            Op(OpKind.ISEND, peer=(r + 1) % n, nbytes=nbytes, tag=1, req=2),
            Op(OpKind.WAIT, req=1),
            Op(OpKind.WAIT, req=2),
            Op(OpKind.BARRIER),
        ]
        ranks.append(ops)
    return TraceSet("ring", "R", ranks, machine="cielito", ranks_per_node=ranks_per_node)


#: Receive envelopes a p2p program draws for each send: mostly the
#: matching one, so most channels match and ordering alone decides
#: whether the program deadlocks.
_RECV_VARIANTS = ("match",) * 7 + ("tag", "comm", "none")


@st.composite
def p2p_programs(draw):
    """Small point-to-point programs: 2-4 ranks, SEND/ISEND/RECV/IRECV/
    WAIT/COMPUTE, tags {0, 1}, communicators {0, 1}.

    Every ISEND/IRECV gets a unique request id and exactly one later
    WAIT.  Ops are placed by drawn sort keys, so program order within a
    rank is arbitrary.
    """
    n = draw(st.integers(min_value=2, max_value=4))
    placed = [[] for _ in range(n)]
    reqs = [0] * n

    def post(rank, kind, key, **fields):
        if kind in (OpKind.ISEND, OpKind.IRECV):
            reqs[rank] += 1
            placed[rank].append((key, len(placed[rank]), Op(kind, req=reqs[rank], **fields)))
            wait_key = key + draw(st.integers(min_value=0, max_value=3))
            placed[rank].append((wait_key, len(placed[rank]), Op(OpKind.WAIT, req=reqs[rank])))
        else:
            placed[rank].append((key, len(placed[rank]), Op(kind, **fields)))

    keys = st.integers(min_value=0, max_value=6)
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = (src + draw(st.integers(min_value=1, max_value=n - 1))) % n
        tag = draw(st.sampled_from((0, 1)))
        comm = draw(st.sampled_from((0, 1)))
        nbytes = draw(st.sampled_from((8, 4096)))
        send = draw(st.sampled_from((OpKind.SEND, OpKind.ISEND)))
        post(src, send, draw(keys), peer=dst, nbytes=nbytes, tag=tag, comm=comm)
        variant = draw(st.sampled_from(_RECV_VARIANTS))
        if variant == "none":
            continue
        recv = draw(st.sampled_from((OpKind.RECV, OpKind.IRECV)))
        post(
            dst,
            recv,
            draw(keys),
            peer=src,
            nbytes=nbytes,
            tag=1 - tag if variant == "tag" else tag,
            comm=1 - comm if variant == "comm" else comm,
        )
    for rank in range(n):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            post(rank, OpKind.COMPUTE, draw(keys), duration=1e-6)
    ranks = [[op for _, _, op in sorted(items, key=lambda t: t[:2])] for items in placed]
    return TraceSet(
        "p2p", "P", ranks, machine="cielito", ranks_per_node=2, comms={1: tuple(range(n))}
    )


def _outcome(run, trace):
    """None if ``run(trace)`` completes, else the stuck ranks its
    deadlock diagnostic names."""
    try:
        run(trace)
    except ReplayDeadlockError as exc:
        listed = re.search(r"ranks \[([\d, ]*)\]", str(exc)).group(1)
        return {int(r) for r in listed.split(",")}
    return None


class TestReplayProperties:
    @given(trace=p2p_programs())
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tools_agree_on_deadlock(self, trace):
        """MFACT, ground-truth synthesis, tracelint and the three
        engines agree on whether a program deadlocks, and MFACT and
        tracelint name the same stuck ranks.  All of them share one
        matching kernel; this guards each tool's time algebra against
        changing what matches (the engines once kept their own copy)."""
        mfact = _outcome(lambda t: model_trace(t, CIELITO, ConfigGrid.single(CIELITO)), trace)
        diagnostics = [d for d in lint_trace(trace).diagnostics if d.rule == "trace/deadlock"]
        lint_stuck = {
            int(r) for d in diagnostics for r in re.findall(r"rank (\d+) blocks", d.message)
        }
        assert (mfact is not None) == bool(diagnostics)
        assert (mfact or set()) == lint_stuck
        shared = ReplayShared(trace, CIELITO)
        for model in ("packet", "flow", "packet-flow"):
            for prep in (None, shared):  # per-engine and shared collective expansion
                sim = _outcome(lambda t: simulate_trace(t, CIELITO, model, shared=prep), trace)
                assert (sim is not None) == (mfact is not None), model
        # Last: synthesis stamps (mutates) the trace.
        synthesis = _outcome(lambda t: synthesize_ground_truth(t, CIELITO, 1), trace)
        assert (synthesis is not None) == (mfact is not None)

    @given(trace=ring_trace_strategy())
    @settings(max_examples=15, deadline=None)
    def test_mfact_total_bounds(self, trace):
        """Total time is at least the compute of the slowest rank and at
        least any single message's Hockney time."""
        rep = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO))
        slowest_compute = max(
            sum(op.duration for op in ops if op.kind == OpKind.COMPUTE)
            for ops in trace.ranks
        )
        assert rep.baseline_total_time >= slowest_compute
        assert rep.baseline_total_time > 0

    @given(trace=ring_trace_strategy())
    @settings(max_examples=10, deadline=None)
    def test_mfact_monotone_in_bandwidth(self, trace):
        grid = ConfigGrid.sweep(CIELITO, bw_factors=(0.5, 1.0, 2.0), lat_factors=(1.0,))
        rep = model_trace(trace, CIELITO, grid)
        t_slow = rep.time_at(0.5, 1.0, CIELITO)
        t_base = rep.baseline_total_time
        t_fast = rep.time_at(2.0, 1.0, CIELITO)
        assert t_slow >= t_base - 1e-12
        assert t_base >= t_fast - 1e-12

    @given(trace=ring_trace_strategy(ranks_per_node=1))
    @example(trace=_ring_trace(2, 57992, 0.0, ranks_per_node=1))
    @example(trace=_ring_trace(5, 1, 0.0, ranks_per_node=1))
    @settings(max_examples=6, deadline=None)
    def test_sim_and_model_agree_on_ring(self, trace):
        """Uncontended rings with one rank per node: modeling and
        simulation agree within 35% plus a small absolute allowance
        (microsecond-scale traces are dominated by per-hop latencies
        only the simulator models).  ``approx`` allows the larger of the
        two, so the floor must cover the largest gap outside the 35%
        band: over n 2-10, 1 B-256 KiB and 0-10 ms of compute that gap
        measured 14.0us, at 9 ranks with a few microseconds of compute;
        the floor is 20us.  Co-located ranks are another matter: see
        the next test."""
        mfact = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
        sim = simulate_trace(trace, CIELITO, "packet-flow").total_time
        assert sim == pytest.approx(mfact, rel=0.35, abs=20e-6)

    def test_colocated_ring_mfact_ignores_placement(self):
        """Two ranks on one node: the engines price the ring's traffic
        through the fabric's intra-node path, while MFACT's Hockney cost
        ignores placement.  So every engine is faster than MFACT, and
        the gap grows with message size."""
        gaps = []
        for nbytes in (4096, 57992, 1 << 18):
            trace = _ring_trace(2, nbytes, 0.0)
            mfact = model_trace(trace, CIELITO, ConfigGrid.single(CIELITO)).baseline_total_time
            sims = [simulate_trace(trace, CIELITO, m).total_time for m in MODEL_CLASSES]
            assert max(sims) < mfact, nbytes
            gaps.append(mfact - max(sims))
        assert gaps[0] < gaps[1] < gaps[2]


class TestTraceSerializationProperties:
    @given(
        n=st.integers(min_value=1, max_value=5),
        seeds=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @slow
    def test_roundtrip_arbitrary_compute_traces(self, n, seeds):
        rng = np.random.default_rng(seeds)
        ranks = [
            [make_compute(float(rng.random())) for _ in range(int(rng.integers(0, 5)))]
            for _ in range(n)
        ]
        trace = TraceSet("t", "A", ranks, metadata={"s": int(seeds)})
        again = loads(dumps(trace))
        assert again.op_count() == trace.op_count()
        for s1, s2 in zip(trace.ranks, again.ranks):
            assert s1 == s2


class TestUtilProperties:
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @slow
    def test_trimmed_mean_within_range(self, values):
        t = trimmed_mean(values)
        assert min(values) - 1e-9 <= t <= max(values) + 1e-9

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
        threshold=st.floats(min_value=0, max_value=100),
    )
    @slow
    def test_fraction_within_monotone(self, values, threshold):
        assert fraction_within(values, threshold) <= fraction_within(values, threshold + 1.0)

    @given(x=st.floats(min_value=1e-12, max_value=1e6))
    @slow
    def test_format_time_parses_back_roughly(self, x):
        text = format_time(x)
        assert any(text.endswith(u) for u in ("s", "ms", "us", "ns"))
