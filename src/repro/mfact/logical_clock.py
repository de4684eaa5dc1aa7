"""MFACT's logical-clock trace replay engine.

The engine replays a trace once while maintaining, for every rank, one
Lamport-style logical clock **per network configuration** (an extension
of Lamport's scheme with non-unit computation and communication times,
Section IV-A).  Clocks are numpy vectors over the :class:`ConfigGrid`,
so a single replay prices the application on every configuration.

Semantics
---------
* computation: ``clk += duration * compute_scale``
* blocking send: sender pays software overhead plus the bandwidth term
  (eager, buffered); the message becomes available to the receiver at
  the sender's post-overhead clock
* non-blocking send: sender pays only overhead; the transfer overlaps
* receive completion (blocking recv, or wait on an irecv): the transfer
  costs Hockney ``alpha + m/B`` once both sides are ready; the clock
  advance is decomposed into the four counters (wait / latency /
  bandwidth, with computation tracked separately)
* collectives: priced with the Thakur–Gropp closed forms of
  :mod:`repro.collectives.cost_models`; synchronizing collectives
  complete at the member-wise max clock plus the collective cost

Message matching, request binding, collective rendezvous and deadlock
diagnostics come from the shared kernel
(:class:`repro.replay.MatchingReplay`); this module supplies only the
clock algebra.  Ranks run in FIFO ready-queue order.

An optional ``recorder`` (duck-typed; see
:class:`repro.sensitivity.graph.GraphRecorder`) observes every clock
update through ``on_*`` hooks, turning one replay into a reusable
max-plus dependency graph for zero-replay sensitivity analytics.  The
tape node of each message travels with the message through the
kernel's channels, next to its availability clocks.  With
``recorder=None`` (the default) the hooks cost one predicate per op.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.collectives.cost_models import collective_cost
from repro.machines.config import MachineConfig
from repro.mfact.counters import CounterSet
from repro.mfact.hockney import ConfigGrid
from repro.mfact.report import MFACTReport
from repro.replay import MatchingReplay, ReplayDeadlockError
from repro.trace.events import _SYNC_COLLECTIVES, Op, OpKind
from repro.trace.trace import TraceSet

__all__ = ["LogicalClockReplay", "model_trace", "ReplayDeadlockError"]


class LogicalClockReplay(MatchingReplay):
    """One MFACT replay of a trace on a machine over a configuration grid.

    A message's payload is ``(availability clocks, recorder node, sent
    bytes, their bandwidth term)``; the receive reuses the term when its
    own byte count matches.
    """

    def __init__(
        self,
        trace: TraceSet,
        machine: MachineConfig,
        grid: Optional[ConfigGrid] = None,
        recorder=None,
    ):
        super().__init__(trace)
        self.machine = machine
        self.grid = grid if grid is not None else ConfigGrid.sweep(machine)
        self._rec = recorder
        n = trace.nranks
        k = len(self.grid)
        self._lat = self.grid.latency.copy()
        self._inv_bw = 1.0 / self.grid.bandwidth
        self._scale = self.grid.compute_scale.copy()
        self._overhead = machine.software_overhead
        self.clk = np.zeros((n, k))
        self._inj = np.zeros((n, k))  # per-rank outgoing NIC serialization
        self._ej = np.zeros((n, k))  # per-rank incoming NIC serialization
        self.counters = CounterSet(n, k)
        # The hooks run once per op on rows of K floats, where numpy's
        # per-call cost dominates: they update per-rank row views in
        # place and add the overhead as a vector (a Python-float operand
        # costs a scalar conversion per call).
        self._o_vec = np.full(k, self._overhead)
        self._zeros = np.zeros(k)
        c = self.counters
        self._clk_rows = list(self.clk)
        self._inj_rows = list(self._inj)
        self._ej_rows = list(self._ej)
        self._compute_rows = list(c.compute)
        self._lat_rows = list(c.latency)
        self._bw_rows = list(c.bandwidth)
        self._wait_rows = list(c.wait)

    # -- point-to-point ------------------------------------------------------

    def _compute(self, rank: int, op: Op) -> None:
        work = op.duration * self._scale
        self._clk_rows[rank] += work
        self._compute_rows[rank] += work
        if self._rec is not None:
            self._rec.on_compute(rank, op.duration)

    def _send(self, rank: int, op: Op):
        bw_term = op.nbytes * self._inv_bw
        clk = self._clk_rows[rank]
        inj = self._inj_rows[rank]
        blocking = op.kind == OpKind.SEND
        if blocking:
            # The rank's NIC serializes its outgoing messages; a blocking
            # send returns once the payload is fully injected.
            start = clk + self._o_vec
            inj_start = np.maximum(inj, start)
            inj[:] = inj_start + bw_term
            self._bw_rows[rank] += bw_term
            self._wait_rows[rank] += inj_start - start
            clk[:] = inj
        else:
            # Injection overlaps with local progress; only overhead is paid.
            clk += self._o_vec
            inj_start = np.maximum(inj, clk)
            inj[:] = inj_start + bw_term
        node = None
        if self._rec is not None:
            node = self._rec.on_send(rank, op.nbytes, blocking)
        # Header reaches the receiver one wire latency after injection
        # starts; the receiver pays the bandwidth term while draining.
        return inj_start + self._lat, node, op.nbytes, bw_term

    def _post(self, rank: int, op: Op) -> None:
        """Posting an IRECV, or a WAIT on an ISEND, costs one overhead."""
        self._clk_rows[rank] += self._o_vec
        if self._rec is not None:
            self._rec.on_overhead(rank)

    _sent = _post

    def _recv(self, rank: int, op: Op, rop: Op, msg) -> None:
        """Advance ``rank``'s clock past a message and attribute counters.

        ``avail`` is the header-at-receiver time (injection start plus
        wire latency, added by the sender); the payload then drains
        serially through the receiving rank's NIC.  The clock advance is
        decomposed into the wait / latency / bandwidth counters for
        sensitivity tracking.  The receive's own byte count prices it.
        """
        avail, node, sent_nbytes, bw_term = msg
        nbytes = rop.nbytes
        if nbytes != sent_nbytes:
            bw_term = nbytes * self._inv_bw
        clk = self._clk_rows[rank]
        ready = clk + self._o_vec
        arrived = np.maximum(avail, self._ej_rows[rank]) + bw_term
        self._ej_rows[rank][:] = arrived
        clk[:] = np.maximum(ready, arrived)
        delta = clk - ready
        bw_part = np.minimum(delta, bw_term)
        lat_part = np.minimum(np.maximum(delta - bw_term, self._zeros), self._lat)
        self._bw_rows[rank] += bw_part
        self._lat_rows[rank] += lat_part
        self._wait_rows[rank] += delta - bw_part - lat_part
        if self._rec is not None:
            self._rec.on_recv(rank, node, nbytes)

    # -- collectives -----------------------------------------------------------

    def _arrive(self, rank: int, op: Op) -> np.ndarray:
        return self.clk[rank].copy()

    def _collective(self, op: Op, members: Tuple[int, ...], arrived: Dict[int, np.ndarray]) -> None:
        p = len(members)
        cost = collective_cost(op.kind, p, op.nbytes)
        o = self._overhead
        lat_share = cost.alpha_count * self._lat
        bw_share = cost.bytes_on_wire * self._inv_bw
        total = lat_share + bw_share
        c = self.counters
        if self._rec is not None:
            self._rec.on_collective(
                op.kind, members, op.peer, op.nbytes, cost.alpha_count, cost.bytes_on_wire
            )
        if op.kind in _SYNC_COLLECTIVES:
            peak = None
            for clk in arrived.values():
                peak = clk if peak is None else np.maximum(peak, clk)
            for r in members:
                start = arrived[r] + o
                done = np.maximum(peak + o, start) + total
                c.wait[r] += done - start - total
                c.latency[r] += lat_share
                c.bandwidth[r] += bw_share
                self.clk[r] = done
            return
        root = op.peer
        if op.kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = arrived[root] + o + total
            for r in members:
                start = arrived[r] + o
                if r == root:
                    done = root_done
                    c.latency[r] += lat_share
                    c.bandwidth[r] += bw_share
                else:
                    done = np.maximum(start, root_done)
                    delta = done - start
                    bw_part = np.minimum(delta, bw_share)
                    lat_part = np.clip(delta - bw_share, 0.0, lat_share)
                    c.bandwidth[r] += bw_part
                    c.latency[r] += lat_part
                    c.wait[r] += delta - bw_part - lat_part
                self.clk[r] = done
            return
        # REDUCE / GATHER: root completes after everyone plus the tree cost;
        # non-roots leave after contributing their own single message.
        own = self._lat + op.nbytes * self._inv_bw
        peak = None
        for clk in arrived.values():
            peak = clk if peak is None else np.maximum(peak, clk)
        for r in members:
            start = arrived[r] + o
            if r == root:
                done = np.maximum(peak + o, start) + total
                c.wait[r] += done - start - total
                c.latency[r] += lat_share
                c.bandwidth[r] += bw_share
            else:
                done = start + own
                c.latency[r] += self._lat
                c.bandwidth[r] += op.nbytes * self._inv_bw
            self.clk[r] = done

    # -- main loop -----------------------------------------------------------

    def run(self) -> MFACTReport:
        """Replay the whole trace and assemble the report."""
        with obs.span("mfact"):
            start = time.perf_counter()
            with obs.span("replay"):
                stuck = self.drain()
                if stuck:
                    raise self.deadlock_error(stuck)
            if obs.enabled():
                obs.counter("repro_mfact_steps_total").inc(self.steps)
                obs.counter("repro_mfact_replays_total").inc()
            walltime = time.perf_counter() - start
            with obs.span("report"):
                return MFACTReport.from_replay(self, walltime)


def model_trace(
    trace: TraceSet,
    machine: MachineConfig,
    grid: Optional[ConfigGrid] = None,
    recorder=None,
) -> MFACTReport:
    """Convenience wrapper: replay ``trace`` on ``machine`` and report.

    ``recorder`` (duck-typed, see :class:`LogicalClockReplay`) rides the
    same replay — the hooks are structural (ranks, tags, bytes,
    durations), so the recorded tape is independent of ``grid``.
    """
    return LogicalClockReplay(trace, machine, grid, recorder=recorder).run()
