"""MPI replay layer driving a network model.

Replays a trace through the discrete-event engine: per-rank scalar
virtual clocks, MPI message matching, eager buffered sends (senders
block only for NIC injection), and collectives expanded into their
Thakur–Gropp point-to-point schedules (:func:`expand_collectives`) —
the same decomposition SST/Macro's MPI layer performs before handing
traffic to its congestion model.

Per-rank communication time (time spent inside MPI calls) is
accumulated so simulated total *and* communication time can be compared
with MFACT's counters.

Matching is the shared kernel's (:class:`repro.replay.MatchingReplay`):
FIFO channels keyed by the MPI envelope ``(src, dst, tag, comm)``,
matched in send order.  :class:`SimReplay` supplies only the time
algebra: a send hands the network model an in-flight message whose
arrival time the model's delivery event fills in, and a receive
matched to a message still in flight parks its rank until then.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Type

from repro import obs
from repro.collectives.algorithms import schedule_collective
from repro.machines.config import MachineConfig
from repro.replay import MatchingReplay
from repro.sim import modes
from repro.sim.engine import DEFAULT_MAX_EVENTS, EventEngine
from repro.util.budget import Budget
from repro.sim.flow import FlowModel
from repro.sim.network import Fabric, NetworkModel
from repro.sim.packet import PacketModel
from repro.sim.packetflow import PacketFlowModel
from repro.sim.results import SimResult
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet

__all__ = [
    "expand_collectives",
    "ReplayShared",
    "SimReplay",
    "simulate_trace",
    "MODEL_CLASSES",
]

#: Tag space reserved for expanded collective traffic.
COLLECTIVE_TAG_BASE = 1 << 20
#: Request-id space reserved for expanded collective traffic.
COLLECTIVE_REQ_BASE = 1 << 30

_SEND = OpKind.SEND

MODEL_CLASSES: Dict[str, Type[NetworkModel]] = {
    "packet": PacketModel,
    "flow": FlowModel,
    "packet-flow": PacketFlowModel,
}


def expand_collectives(trace: TraceSet) -> TraceSet:
    """Rewrite collectives into point-to-point phases.

    Every collective instance gets a unique tag from the reserved space,
    so expanded traffic never interferes with application messages.
    Phases become IRECV / ISEND pairs followed by WAITs, which lets both
    directions of an exchange progress and keeps pairwise patterns
    deadlock-free.
    """
    new_ranks: List[List[Op]] = [[] for _ in range(trace.nranks)]
    instance_ids: Dict[Tuple[int, int], int] = {}
    schedules: Dict[int, dict] = {}
    occurrence: List[Dict[int, int]] = [dict() for _ in range(trace.nranks)]
    req_counter = [COLLECTIVE_REQ_BASE] * trace.nranks
    next_instance = [0]

    def instance_of(comm: int, occ: int, op: Op) -> int:
        key = (comm, occ)
        inst = instance_ids.get(key)
        if inst is None:
            inst = instance_ids[key] = next_instance[0]
            next_instance[0] += 1
            members = trace.comm_ranks(comm)
            schedules[inst] = schedule_collective(op.kind, members, op.nbytes, op.peer)
        return inst

    for rank, stream in enumerate(trace.ranks):
        out = new_ranks[rank]
        for op in stream:
            if not op.is_collective:
                out.append(op)
                continue
            occ = occurrence[rank].get(op.comm, 0)
            occurrence[rank][op.comm] = occ + 1
            inst = instance_of(op.comm, occ, op)
            tag = COLLECTIVE_TAG_BASE + inst
            for phase in schedules[inst].get(rank, []):
                reqs: List[int] = []
                for peer, size in phase.recvs:
                    req = req_counter[rank]
                    req_counter[rank] += 1
                    out.append(Op(OpKind.IRECV, peer=peer, nbytes=size, tag=tag, req=req))
                    reqs.append(req)
                for peer, size in phase.sends:
                    req = req_counter[rank]
                    req_counter[rank] += 1
                    out.append(Op(OpKind.ISEND, peer=peer, nbytes=size, tag=tag, req=req))
                    reqs.append(req)
                for req in reqs:
                    out.append(Op(OpKind.WAIT, req=req))
    return TraceSet(
        name=trace.name,
        app=trace.app,
        ranks=new_ranks,
        machine=trace.machine,
        ranks_per_node=trace.ranks_per_node,
        comms=dict(trace.comms),
        uses_comm_split=trace.uses_comm_split,
        uses_threads=trace.uses_threads,
        metadata=dict(trace.metadata),
    )


class ReplayShared:
    """Per-(trace, machine) precomputation shared across engines.

    The vectorized measurement path builds one of these per record and
    hands it to every :class:`SimReplay`: collective expansion and the
    fabric (topology + routing, read-only during replay) are identical
    across the packet, flow and packet-flow replays of one trace, so the
    scalar path's once-per-engine cost collapses to once per record.
    """

    __slots__ = ("trace", "machine", "expanded", "fabric")

    def __init__(self, trace: TraceSet, machine: MachineConfig):
        self.trace = trace
        self.machine = machine
        self.expanded = expand_collectives(trace)
        self.fabric = Fabric(trace, machine)


class _InFlight:
    """A sent message: its arrival time once the network delivers it,
    and the rank parked on it until then.  It is its own delivery
    callback: the network model calls it with the delivery time."""

    __slots__ = ("replay", "arrival", "waiter")

    def __init__(self, replay: SimReplay):
        self.replay = replay
        self.arrival: Optional[float] = None
        self.waiter: Optional[int] = None

    def __call__(self, when: float) -> None:
        self.arrival = when
        if self.waiter is not None:
            self.replay._delivered(self.waiter, when)


class SimReplay(MatchingReplay):
    """Replay one trace through one network model."""

    def __init__(
        self,
        trace: TraceSet,
        machine: MachineConfig,
        model: str = "packet-flow",
        fabric: Optional[Fabric] = None,
        vectorized: Optional[bool] = None,
        shared: Optional[ReplayShared] = None,
        **model_kwargs,
    ):
        try:
            model_cls = MODEL_CLASSES[model]
        except KeyError:
            known = ", ".join(sorted(MODEL_CLASSES))
            raise ValueError(f"unknown model {model!r} (known: {known})") from None
        self.original = trace
        self.machine = machine
        self.vectorized = modes.resolve(vectorized)
        self.engine = EventEngine(vectorized=self.vectorized)
        if shared is not None and fabric is None:
            fabric = shared.fabric
        self.fabric = fabric if fabric is not None else Fabric(trace, machine)
        self.model = model_cls(self.fabric, self.engine, **model_kwargs)
        self.model.check_trace(trace)
        # ``shared`` must have been built from this same (trace, machine)
        # pair; it saves re-expanding the collectives per engine.
        super().__init__(shared.expanded if shared is not None else expand_collectives(trace))
        n = trace.nranks
        self.clk = [0.0] * n
        self.comm_time = [0.0] * n
        self.compute_time = [0.0] * n
        self._overhead = machine.software_overhead
        self._inj_rate = machine.effective_injection_bandwidth
        self._scale = machine.compute_scale
        self._transfer = self.model.transfer
        # Per-OpKind [count, seconds] tallies, flushed to the metrics
        # registry when run() completes; None keeps the kernel's step
        # unwrapped while metrics are disabled.
        self._kind_obs: Optional[Dict[OpKind, List[float]]] = (
            {} if obs.enabled() else None
        )
        if self._kind_obs is not None:
            self._step = self._timed_step

    def _timed_step(self, rank: int) -> bool:
        kind = self._ops[rank][self.ip[rank]].kind
        t0 = time.perf_counter()
        progressed = MatchingReplay._step(self, rank)
        ent = self._kind_obs.get(kind)
        if ent is None:
            ent = self._kind_obs[kind] = [0, 0.0]
        ent[0] += 1
        ent[1] += time.perf_counter() - t0
        return progressed

    # -- time algebra ----------------------------------------------------------

    def _compute(self, rank: int, op: Op) -> None:
        work = op.duration * self._scale
        self.clk[rank] += work
        self.compute_time[rank] += work

    def _send(self, rank: int, op: Op) -> _InFlight:
        """Overhead, plus the injection for an eager SEND; the network
        model fills in the returned message's arrival time."""
        o = self._overhead
        start = self.clk[rank] + o
        self.comm_time[rank] += o
        if op.kind == _SEND:
            inject = op.nbytes / self._inj_rate
            self.clk[rank] = start + inject
            self.comm_time[rank] += inject
        else:
            self.clk[rank] = start
        msg = _InFlight(self)
        self._transfer(rank, op.peer, op.nbytes, start, msg)
        return msg

    def _post(self, rank: int, op: Op) -> None:
        self.comm_time[rank] += self._overhead
        self.clk[rank] += self._overhead

    _sent = _post

    def _recv(self, rank: int, op: Op, rop: Op, msg: _InFlight) -> bool:
        """Overhead, then wait for the data; True parks the rank while
        the message is still in flight."""
        self.comm_time[rank] += self._overhead
        self.clk[rank] += self._overhead
        if msg.arrival is None:
            msg.waiter = rank
            return True
        self._wait_until(rank, msg.arrival)
        return False

    def _wait_until(self, rank: int, when: float) -> None:
        c = self.clk[rank]
        if when > c:
            self.comm_time[rank] += when - c
            self.clk[rank] = when

    def _delivered(self, rank: int, when: float) -> None:
        """The message ``rank`` is parked on arrived at ``when``."""
        self._wait_until(rank, when)
        self._resume(rank)
        self._run_ready()

    # -- driver ----------------------------------------------------------------

    def run(self, budget: Optional[Budget] = None) -> SimResult:
        """Simulate the whole trace and report times and tool cost.

        ``budget`` caps the attempt: its wall deadline is armed before
        the initial rank advance (so model scheduling loops are covered
        too) and its event cap bounds the engine run; exceeding either
        raises a :class:`~repro.util.budget.BudgetExceeded` subclass.
        """
        with obs.span(f"sim/{self.model.name}"):
            wall_start = time.perf_counter()
            budget = budget if budget is not None else Budget()
            self.engine.set_wall_deadline(budget.wall_seconds)
            self.drain()
            self.engine.run(
                max_events=budget.events if budget.events is not None else DEFAULT_MAX_EVENTS
            )
            stuck = self._unfinished()
            if stuck:
                raise self.deadlock_error(stuck)
            walltime = time.perf_counter() - wall_start
            n = self.original.nranks
            self._flush_metrics()
            return SimResult(
                trace_name=self.original.name,
                app=self.original.app,
                machine=self.machine.name,
                model=self.model.name,
                total_time=max(self.clk),
                comm_time=sum(self.comm_time) / n,
                compute_time=sum(self.compute_time) / n,
                walltime=walltime,
                events=self.engine.events_processed,
                messages=self.model.messages_sent,
                bytes_sent=self.model.bytes_sent,
            )

    def _flush_metrics(self) -> None:
        """Publish per-OpKind tallies and traffic totals for this replay.

        Called only on successful completion: a budget abort stops at a
        schedule- or wall-dependent op, and partial tallies would poison
        the serial-vs-parallel determinism guarantee.
        """
        if self._kind_obs is None:
            return
        engine = self.model.name
        for kind in sorted(self._kind_obs, key=lambda k: k.name):
            count, seconds = self._kind_obs[kind]
            obs.counter(
                "repro_dispatch_ops_total", engine=engine, kind=kind.name
            ).inc(int(count))
            obs.counter(
                "repro_dispatch_seconds_total", engine=engine, kind=kind.name
            ).inc(seconds)
        obs.counter("repro_sim_messages_total", engine=engine).inc(self.model.messages_sent)
        obs.counter("repro_sim_bytes_total", engine=engine).inc(self.model.bytes_sent)
        self._kind_obs = {}


def simulate_trace(
    trace: TraceSet,
    machine: MachineConfig,
    model: str = "packet-flow",
    budget: Optional[Budget] = None,
    vectorized: Optional[bool] = None,
    shared: Optional[ReplayShared] = None,
    **model_kwargs,
) -> SimResult:
    """Convenience wrapper: simulate ``trace`` on ``machine`` with ``model``.

    ``budget`` (wall seconds / event cap) bounds the attempt; see
    :meth:`SimReplay.run`.  ``vectorized`` picks the scalar or
    vectorized simulation paths (``None``: process default, see
    :mod:`repro.sim.modes`); ``shared`` reuses a
    :class:`ReplayShared` built for this same (trace, machine) pair.
    """
    return SimReplay(
        trace, machine, model, vectorized=vectorized, shared=shared, **model_kwargs
    ).run(budget=budget)
