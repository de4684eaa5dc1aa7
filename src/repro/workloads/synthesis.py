"""Ground-truth timestamp synthesis.

The paper's traces carry *measured* timestamps from real machines; we
do not have those machines, so this module plays the role of the real
system: it replays a generated program once on the target machine with
effects **neither tool fully models** and stamps every op's
``t_entry``/``t_exit``:

* per-MPI-call software cost several times the tools' modeled overhead
  (real MPI stacks do protocol work, tag matching, memory registration);
* an MPI transfer-time inflation factor ``kappa`` (real latency and
  effective bandwidth are worse than the published Hockney parameters);
* message-granularity queueing on the actual route (link reservation),
  which the simulators partially capture and the modeling tool not at
  all;
* OS noise on computation segments (written back into the trace as the
  measured compute durations, exactly as DUMPI would record them).

The net effect reproduces Section V-C's observation: both tools predict
*below* the measured time, with the simulator closer (it models the
contention part) and MFACT lower still.

Message matching and progress come from the shared kernel
(:class:`repro.replay.MatchingReplay`); this module supplies scalar
clocks, route queueing and the ``t_entry``/``t_exit`` stamps.  Ranks
run lowest-clock-first (see :meth:`GroundTruthSynthesizer._wake`).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.collectives.cost_models import collective_cost
from repro.machines.config import MachineConfig
from repro.replay import MatchingReplay
from repro.sim.network import Fabric
from repro.trace.events import _SYNC_COLLECTIVES, Op, OpKind
from repro.trace.trace import TraceSet
from repro.util.rng import substream

__all__ = [
    "GroundTruthSynthesizer",
    "synthesize_ground_truth",
    "inject_defect",
    "DEFECT_KINDS",
]


class GroundTruthSynthesizer(MatchingReplay):
    """Stamps measured timestamps onto a generated trace, in place.

    A message's payload is ``(availability time, sent bytes)``.
    """

    #: Multiplier on the machine's modeled per-call software overhead.
    OVERHEAD_FACTOR = 4.0
    #: Weight of route-queueing delays added on top of the Hockney time.
    QUEUE_WEIGHT = 0.45
    #: Mean / spread of the per-trace MPI transfer inflation ``kappa``.
    KAPPA_MEAN = 1.35
    KAPPA_SIGMA = 0.08
    #: OS-noise fraction on computation segments.
    COMPUTE_NOISE = 0.02

    def __init__(self, trace: TraceSet, machine: MachineConfig, seed: int):
        super().__init__(trace)
        self.machine = machine
        rng = substream(seed, "ground-truth", trace.name)
        self.rng = rng
        self.kappa = float(rng.lognormal(np.log(self.KAPPA_MEAN), self.KAPPA_SIGMA))
        n = trace.nranks
        self.fabric = Fabric(trace, machine)
        self.clk = [0.0] * n
        self._inj = [0.0] * n
        self._ej = [0.0] * n
        self._free = np.zeros(self.fabric.nresources)
        self._ready = []  # heap of (clock when queued, rank)
        self._overhead = machine.software_overhead * self.OVERHEAD_FACTOR
        self._inv_bw = self.kappa / machine.bandwidth
        self._lat = self.kappa * machine.latency

    # -- network cost with queueing ------------------------------------------

    def _transfer_avail(self, src: int, dst: int, nbytes: int, start: float) -> float:
        """Fully-injected + queued header time for one message."""
        inj_start = max(self._inj[src], start)
        bw_term = nbytes * self._inv_bw
        self._inj[src] = inj_start + bw_term
        route = self.fabric.route(src, dst)
        t = inj_start
        queue_delay = 0.0
        free = self._free
        for resource in route:
            if free[resource] > t:
                queue_delay += free[resource] - t
                t = free[resource]
            free[resource] = t + bw_term
        return inj_start + self.QUEUE_WEIGHT * queue_delay + self._lat

    # -- scheduling ------------------------------------------------------------

    def _wake(self, rank: int) -> None:
        # Ranks are scheduled lowest-clock-first so shared resource state
        # (link free times) is touched in near-virtual-time order; a FIFO
        # here would let one rank race ahead and see messages from its
        # own future, inflating queue delays unboundedly.
        if not self._queued[rank]:
            self._queued[rank] = True
            heapq.heappush(self._ready, (self.clk[rank], rank))

    def _pop(self) -> int:
        return heapq.heappop(self._ready)[1]

    def _step(self, rank: int) -> bool:
        """Stamp ``t_entry`` and run one op; a rank that overtakes the
        next-lowest clock in the ready queue yields to it."""
        self._ops[rank][self.ip[rank]].t_entry = self.clk[rank]
        if not MatchingReplay._step(self, rank):
            return False
        ready = self._ready
        if ready and self.clk[rank] > ready[0][0]:
            self._wake(rank)
            return False
        return True

    # -- time algebra ------------------------------------------------------------

    def _compute(self, rank: int, op: Op) -> None:
        noise = 1.0 + abs(self.rng.normal(0.0, self.COMPUTE_NOISE))
        measured = op.duration * self.machine.compute_scale * noise
        op.duration = measured
        self.clk[rank] += measured
        op.t_exit = self.clk[rank]

    def _send(self, rank: int, op: Op):
        start = self.clk[rank] + self._overhead
        avail = self._transfer_avail(rank, op.peer, op.nbytes, start)
        # A blocking send returns once injected; an ISEND right away.
        self.clk[rank] = self._inj[rank] if op.kind == OpKind.SEND else start
        op.t_exit = self.clk[rank]
        return avail, op.nbytes

    def _post(self, rank: int, op: Op) -> None:
        """Posting an IRECV, or a WAIT on an ISEND, costs one overhead."""
        self.clk[rank] += self._overhead
        op.t_exit = self.clk[rank]

    _sent = _post

    def _recv(self, rank: int, op: Op, rop: Op, msg) -> None:
        avail, nbytes = msg
        arrived = max(avail, self._ej[rank]) + nbytes * self._inv_bw
        self._ej[rank] = arrived
        done = max(self.clk[rank] + self._overhead, arrived)
        self.clk[rank] = done
        op.t_exit = done

    def _arrive(self, rank: int, op: Op) -> float:
        return self.clk[rank]

    def _collective(self, op, members, arrived) -> None:
        p = len(members)
        cost = collective_cost(op.kind, p, op.nbytes)
        total = self.kappa * cost.time(self.machine.latency, self.machine.bandwidth)
        total += self._overhead
        # Real collectives suffer mildly superlinear congestion at scale.
        total *= 1.0 + 0.02 * np.log2(max(2, p))
        if op.kind in _SYNC_COLLECTIVES:
            peak = max(arrived.values())
            done = {r: peak + total for r in members}
        elif op.kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = arrived[op.peer] + total
            done = {
                r: root_done if r == op.peer else max(arrived[r] + self._overhead, root_done)
                for r in members
            }
        else:
            peak = max(arrived.values())
            own = self._lat + op.nbytes * self._inv_bw + self._overhead
            done = {r: peak + total if r == op.peer else arrived[r] + own for r in members}
        # Every member is still parked at its own collective op.
        for r in members:
            self._ops[r][self.ip[r]].t_exit = done[r]
            self.clk[r] = done[r]

    def run(self) -> TraceSet:
        """Stamp the trace; returns it for chaining."""
        stuck = self.drain()
        if stuck:
            raise self.deadlock_error(stuck)
        return self.trace


def synthesize_ground_truth(trace: TraceSet, machine: MachineConfig, seed: int) -> TraceSet:
    """Stamp measured timestamps onto ``trace`` (mutates and returns it)."""
    return GroundTruthSynthesizer(trace, machine, seed).run()


# -- fault injection ----------------------------------------------------------

#: Defect kinds :func:`inject_defect` can plant (each targets one
#: tracelint rule; see ``repro.analysis.lint`` for the rule catalogue).
DEFECT_KINDS = (
    "deadlock",  # send/recv wait-for cycle between two ranks
    "unmatched-send",  # a send no rank ever receives
    "unmatched-recv",  # a recv no rank ever satisfies
    "byte-mismatch",  # matched pair disagreeing on payload size
    "lost-wait",  # an IRECV request that is never waited
    "reordered-collectives",  # one rank swaps two collective calls
    "root-divergence",  # one rank disagrees on a collective's arguments
    "time-travel",  # a measured timestamp goes backwards
)

#: Tag space for injected p2p traffic (above generator tags, below the
#: collective-expansion tag base of ``1 << 20``).
_DEFECT_TAG_BASE = 1 << 19


def _clone_trace(trace: TraceSet) -> TraceSet:
    """Deep copy: fresh Op objects so injection never mutates the input."""
    ranks = [
        [
            Op(
                op.kind,
                peer=op.peer,
                nbytes=op.nbytes,
                tag=op.tag,
                comm=op.comm,
                req=op.req,
                duration=op.duration,
                t_entry=op.t_entry,
                t_exit=op.t_exit,
            )
            for op in stream
        ]
        for stream in trace.ranks
    ]
    return TraceSet(
        name=trace.name,
        app=trace.app,
        ranks=ranks,
        machine=trace.machine,
        ranks_per_node=trace.ranks_per_node,
        comms=dict(trace.comms),
        uses_comm_split=trace.uses_comm_split,
        uses_threads=trace.uses_threads,
        metadata=dict(trace.metadata),
    )


def inject_defect(trace: TraceSet, kind: str, seed: int = 0) -> TraceSet:
    """Return a copy of ``trace`` with one known structural defect.

    ``kind`` is one of :data:`DEFECT_KINDS`.  The defect site is chosen
    deterministically from ``seed``, and the copy's metadata records the
    injection (``injected_defect``) so downstream tooling can assert a
    linter flags exactly what was planted.  Structural kinds add
    *unstamped* ops, so injecting into a stamped trace additionally
    trips the timestamp-consistency rule; inject before ground-truth
    synthesis when that matters.  ``time-travel`` requires a stamped
    trace.  Used by the tracelint test-suite and intended for future
    fault-injection studies.
    """
    if kind not in DEFECT_KINDS:
        known = ", ".join(DEFECT_KINDS)
        raise ValueError(f"unknown defect kind {kind!r} (known: {known})")
    if trace.nranks < 2:
        raise ValueError("defect injection needs at least two ranks")
    out = _clone_trace(trace)
    rng = substream(seed, "defect", kind, trace.name)
    a, b = (int(r) for r in rng.choice(out.nranks, size=2, replace=False))
    tag = _DEFECT_TAG_BASE + int(rng.integers(0, 1024))
    if kind == "deadlock":
        # Both ranks first receive from each other, and only send after:
        # counts match on every channel, yet neither recv can ever be
        # satisfied — a two-rank wait-for cycle.
        out.ranks[a].insert(0, Op(OpKind.RECV, peer=b, nbytes=64, tag=tag))
        out.ranks[b].insert(0, Op(OpKind.RECV, peer=a, nbytes=64, tag=tag + 1))
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=64, tag=tag + 1))
        out.ranks[b].append(Op(OpKind.SEND, peer=a, nbytes=64, tag=tag))
    elif kind == "unmatched-send":
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=256, tag=tag))
    elif kind == "unmatched-recv":
        out.ranks[a].append(Op(OpKind.RECV, peer=b, nbytes=256, tag=tag))
    elif kind == "byte-mismatch":
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=1024, tag=tag))
        out.ranks[b].append(Op(OpKind.RECV, peer=a, nbytes=512, tag=tag))
    elif kind == "lost-wait":
        req = 1 + max(
            (op.req for op in out.ranks[b] if op.req >= 0), default=0
        )
        out.ranks[b].append(Op(OpKind.IRECV, peer=a, nbytes=128, tag=tag, req=req))
        out.ranks[a].append(Op(OpKind.SEND, peer=b, nbytes=128, tag=tag))
    elif kind == "reordered-collectives":
        idx = [i for i, op in enumerate(out.ranks[a]) if op.is_collective]
        swap = None
        for i in idx:
            for j in idx:
                if j <= i:
                    continue
                x, y = out.ranks[a][i], out.ranks[a][j]
                if (x.kind, x.peer, x.nbytes) != (y.kind, y.peer, y.nbytes):
                    swap = (i, j)
                    break
            if swap:
                break
        if swap is None:
            raise ValueError(
                f"trace {trace.name!r} has no two distinct collectives to reorder"
            )
        i, j = swap
        out.ranks[a][i], out.ranks[a][j] = out.ranks[a][j], out.ranks[a][i]
    elif kind == "root-divergence":
        for op in out.ranks[a]:
            if op.is_collective and len(out.comms.get(op.comm, ())) > 1:
                op.nbytes += 8  # one rank now disagrees on the payload
                break
        else:
            raise ValueError(f"trace {trace.name!r} has no collective to perturb")
    elif kind == "time-travel":
        if not trace.has_timestamps():
            raise ValueError("time-travel injection needs a stamped trace")
        stream = out.ranks[a]
        i = int(rng.integers(0, len(stream)))
        op = stream[i]
        op.t_entry, op.t_exit = op.t_exit, op.t_entry - 1.0
    out.metadata["injected_defect"] = kind
    out.metadata["defect_seed"] = int(seed)
    return out
