"""The recorded happens-before graph and its max-plus evaluator.

Graph model
-----------

Every node is one *clock value* produced during the replay — a rank's
clock after an op, a NIC injection/ejection milestone, a message's
availability time, or a collective's completion.  A node's value is

``value(v) = max over incoming edges (u, c) of  value(u) + cost(c)``

where each edge cost is affine in the network configuration::

    cost = const + alpha_count * latency + bytes / bandwidth
                 + compute_seconds * compute_scale

``const`` carries the software overhead ``o``; ``alpha_count`` counts
wire latencies; ``bytes`` are the bytes serialized through a NIC or a
collective's on-wire volume; ``compute_seconds`` are unscaled measured
compute durations.  Because ``max`` and ``+`` are monotone, evaluating
the recorded tape bottom-up (nodes are created in topological order)
reproduces the replay's clocks for any configuration.

Two deliberate reassociations keep the tape small and fast — they are
the only sources of float divergence from a real replay, both bounded
by a few ulps per op (see the package docstring's accuracy contract):

* consecutive additive advances on one rank (compute ops, ISEND/WAIT
  overheads) are *folded* into the next edge that reads the clock
  instead of materializing a node each;
* the replay's ``max(a, b) + c`` is recorded as ``max(a + c, b + c)``.

The recorder keeps no matching state of its own: ``on_send`` returns
the message's availability node, the replay carries it inside the
message payload through the shared matching kernel
(:mod:`repro.replay`), and ``on_recv`` receives it back at the
completion that message satisfies.  So the tape's happens-before edges
are exactly the replay's own matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.machines.config import MachineConfig
from repro.trace.events import _SYNC_COLLECTIVES, OpKind

__all__ = ["CriticalPath", "DependencyGraph", "GraphRecorder"]

#: Configs per evaluation chunk are sized so one value matrix stays
#: around 32 MB regardless of graph size.
_CHUNK_FLOATS = 4_000_000


@dataclass(frozen=True)
class CriticalPath:
    """The binding chain from the epoch to the terminal node.

    Along the chain every node's value equals its predecessor's value
    plus the edge cost (the max was achieved there), so ``total`` is
    exactly the sum of the traversed edge costs and decomposes into the
    four components with no slack term.
    """

    total: float
    compute_time: float
    latency_time: float
    bandwidth_time: float
    overhead_time: float
    alpha_count: float
    bytes_on_wire: float
    n_edges: int

    @property
    def comm_time(self) -> float:
        """Non-compute time on the path (latency + bandwidth + overhead)."""
        return self.latency_time + self.bandwidth_time + self.overhead_time

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "compute_time": self.compute_time,
            "latency_time": self.latency_time,
            "bandwidth_time": self.bandwidth_time,
            "overhead_time": self.overhead_time,
            "alpha_count": self.alpha_count,
            "bytes_on_wire": self.bytes_on_wire,
            "n_edges": self.n_edges,
        }


class DependencyGraph:
    """Frozen max-plus tape of one recorded replay."""

    def __init__(
        self,
        pred: np.ndarray,
        const: np.ndarray,
        alpha: np.ndarray,
        nbytes: np.ndarray,
        compute: np.ndarray,
        starts: np.ndarray,
        node_rank: np.ndarray,
        terminal: int,
        baseline: Tuple[float, float, float],
    ):
        self.pred = pred
        self.const = const
        self.alpha = alpha
        self.nbytes = nbytes
        self.compute = compute
        self.starts = starts  # len n_nodes + 1; edges of node i are starts[i]:starts[i+1]
        self.node_rank = node_rank  # -1 epoch/terminal, -2 shared collective completion
        self.terminal = int(terminal)
        self.baseline = baseline  # (latency, bandwidth, compute_scale)
        # Plain-list views: the evaluation loops index element-wise, and
        # list indexing is several times cheaper than ndarray indexing.
        self._starts_list = self.starts.tolist()
        self._pred_list = self.pred.tolist()

    @property
    def n_nodes(self) -> int:
        return int(self.node_rank.size)

    @property
    def n_edges(self) -> int:
        return int(self.pred.size)

    # -- evaluation --------------------------------------------------------

    def _broadcast(self, latency, bandwidth, compute_scale):
        lat = np.atleast_1d(np.asarray(latency, dtype=float))
        bw = np.atleast_1d(np.asarray(bandwidth, dtype=float))
        scale = np.atleast_1d(np.asarray(compute_scale, dtype=float))
        lat, bw, scale = np.broadcast_arrays(lat, bw, scale)
        return np.ascontiguousarray(lat), np.ascontiguousarray(bw), np.ascontiguousarray(scale)

    def _values(self, lat: np.ndarray, bw: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Full (n_nodes, K) value matrix for one configuration batch."""
        k = lat.size
        if k == 1:
            return self._values_scalar(float(lat[0]), float(bw[0]), float(scale[0]))
        inv_bw = 1.0 / bw
        cost = (
            self.const[:, None]
            + self.alpha[:, None] * lat[None, :]
            + self.nbytes[:, None] * inv_bw[None, :]
            + self.compute[:, None] * scale[None, :]
        )
        vals = np.zeros((self.n_nodes, k))
        starts = self._starts_list
        pred = self._pred_list
        for i in range(self.n_nodes):
            s, e = starts[i], starts[i + 1]
            if e == s:  # the epoch node: value 0
                continue
            row = vals[i]
            np.add(vals[pred[s]], cost[s], out=row)
            for j in range(s + 1, e):
                np.maximum(row, vals[pred[j]] + cost[j], out=row)
        return vals

    def _values_scalar(self, lat: float, bw: float, scale: float) -> np.ndarray:
        """Single-configuration value pass on plain Python floats.

        Per-element ndarray arithmetic costs ~1us an op; for K=1 the
        same adds and maxes on list floats are an order of magnitude
        cheaper.  The operations (and hence the rounding) are identical
        to the batched path, so both return bitwise-equal values.
        """
        cost = (
            self.const
            + self.alpha * lat
            + self.nbytes * (1.0 / bw)
            + self.compute * scale
        ).tolist()
        vals = [0.0] * self.n_nodes
        starts = self._starts_list
        pred = self._pred_list
        for i in range(self.n_nodes):
            s, e = starts[i], starts[i + 1]
            if e == s:  # the epoch node: value 0
                continue
            best = vals[pred[s]] + cost[s]
            for j in range(s + 1, e):
                v = vals[pred[j]] + cost[j]
                if v > best:
                    best = v
            vals[i] = best
        return np.asarray(vals)[:, None]

    def evaluate(self, latency, bandwidth, compute_scale) -> np.ndarray:
        """Predicted application total for each configuration.

        Arguments broadcast against each other: scalars price one
        configuration, equal-length arrays price a batch in one pass.
        Always returns a 1-D array aligned with the broadcast shape.
        """
        lat, bw, scale = self._broadcast(latency, bandwidth, compute_scale)
        k = lat.size
        chunk = max(1, _CHUNK_FLOATS // max(self.n_nodes, 1))
        totals = np.empty(k)
        with obs.span("sensitivity_solve"):
            for lo in range(0, k, chunk):
                hi = min(lo + chunk, k)
                vals = self._values(lat[lo:hi], bw[lo:hi], scale[lo:hi])
                totals[lo:hi] = vals[self.terminal]
        if obs.enabled():
            obs.counter("repro_sensitivity_configs_total").inc(k)
        return totals

    def critical_path(
        self, latency=None, bandwidth=None, compute_scale=None
    ) -> CriticalPath:
        """Backtrack the binding chain at one configuration (default:
        the recorded machine's baseline) and decompose its cost.

        Ties between equally-binding edges keep the lowest edge index,
        so the path is deterministic.
        """
        lat0, bw0, scale0 = self.baseline
        lat = float(latency) if latency is not None else lat0
        bw = float(bandwidth) if bandwidth is not None else bw0
        scale = float(compute_scale) if compute_scale is not None else scale0
        vals = self._values(np.array([lat]), np.array([bw]), np.array([scale]))[:, 0]
        inv_bw = 1.0 / bw
        cost = (
            self.const
            + self.alpha * lat
            + self.nbytes * inv_bw
            + self.compute * scale
        ).tolist()
        starts = self._starts_list
        pred = self._pred_list
        node = self.terminal
        comp_t = lat_t = bw_t = ovh_t = 0.0
        alphas = wire_bytes = 0.0
        n_edges = 0
        while True:
            s, e = starts[node], starts[node + 1]
            if e == s:
                break  # reached the epoch
            best_j = s
            best_val = vals[pred[s]] + cost[s]
            for j in range(s + 1, e):
                v = vals[pred[j]] + cost[j]
                if v > best_val:
                    best_val = v
                    best_j = j
            j = best_j
            comp_t += self.compute[j] * scale
            lat_t += self.alpha[j] * lat
            bw_t += self.nbytes[j] * inv_bw
            ovh_t += self.const[j]
            alphas += self.alpha[j]
            wire_bytes += self.nbytes[j]
            n_edges += 1
            node = pred[j]
        return CriticalPath(
            total=float(vals[self.terminal]),
            compute_time=comp_t,
            latency_time=lat_t,
            bandwidth_time=bw_t,
            overhead_time=ovh_t,
            alpha_count=alphas,
            bytes_on_wire=wire_bytes,
            n_edges=n_edges,
        )


class GraphRecorder:
    """Builds a :class:`DependencyGraph` from replay hook calls.

    :class:`~repro.mfact.logical_clock.LogicalClockReplay` calls the
    ``on_*`` hooks (duck-typed; the replay never imports this module)
    at every clock update.  Per-rank pending additive costs
    (``_pend_const`` / ``_pend_comp``) fold chains of compute and
    overhead advances into the next edge that reads the clock.
    """

    def __init__(self, nranks: int, machine: MachineConfig):
        self.nranks = int(nranks)
        self._o = machine.software_overhead
        self._baseline = (machine.latency, machine.bandwidth, machine.compute_scale)
        # Flat edge arrays; node i's edges occupy _starts[i]:_starts[i+1].
        self._ep: List[int] = []
        self._ec: List[float] = []
        self._ea: List[float] = []
        self._eb: List[float] = []
        self._ew: List[float] = []
        self._starts: List[int] = [0]
        self._rank_of: List[int] = []
        epoch = self._new_node(-1, ())
        self._clk = [epoch] * self.nranks
        self._inj = [epoch] * self.nranks
        self._ej = [epoch] * self.nranks
        self._pend_const = [0.0] * self.nranks
        self._pend_comp = [0.0] * self.nranks

    # -- node construction -------------------------------------------------

    def _new_node(self, rank: int, edges: Sequence[Tuple[int, float, float, float, float]]) -> int:
        for p, c, a, b, w in edges:
            self._ep.append(p)
            self._ec.append(c)
            self._ea.append(a)
            self._eb.append(b)
            self._ew.append(w)
        self._starts.append(len(self._ep))
        self._rank_of.append(rank)
        return len(self._rank_of) - 1

    def _clk_edge(
        self, rank: int, const: float = 0.0, alpha: float = 0.0, nbytes: float = 0.0
    ) -> Tuple[int, float, float, float, float]:
        """Edge from ``rank``'s current clock plus extra cost, with the
        rank's pending additive advances folded in."""
        return (
            self._clk[rank],
            const + self._pend_const[rank],
            alpha,
            nbytes,
            self._pend_comp[rank],
        )

    def _set_clk(self, rank: int, node: int) -> None:
        self._clk[rank] = node
        self._pend_const[rank] = 0.0
        self._pend_comp[rank] = 0.0

    # -- replay hooks ------------------------------------------------------

    def on_compute(self, rank: int, duration: float) -> None:
        self._pend_comp[rank] += duration

    def on_overhead(self, rank: int) -> None:
        self._pend_const[rank] += self._o

    def on_send(self, rank: int, nbytes: int, blocking: bool) -> int:
        """Record a send; returns the message's availability node, which
        the replay hands back to :meth:`on_recv` with the message."""
        b = float(nbytes)
        inj_start = self._new_node(
            rank,
            ((self._inj[rank], 0.0, 0.0, 0.0, 0.0), self._clk_edge(rank, const=self._o)),
        )
        inj_done = self._new_node(rank, ((inj_start, 0.0, 0.0, b, 0.0),))
        self._inj[rank] = inj_done
        avail = self._new_node(rank, ((inj_start, 0.0, 1.0, 0.0, 0.0),))
        if blocking:
            self._set_clk(rank, inj_done)
        else:
            self._pend_const[rank] += self._o
        return avail

    def on_recv(self, rank: int, avail: int, nbytes: int) -> None:
        """A receive on ``rank`` completed with the message whose
        availability node is ``avail``."""
        b = float(nbytes)
        arrived = self._new_node(
            rank,
            ((avail, 0.0, 0.0, b, 0.0), (self._ej[rank], 0.0, 0.0, b, 0.0)),
        )
        self._ej[rank] = arrived
        done = self._new_node(
            rank,
            (self._clk_edge(rank, const=self._o), (arrived, 0.0, 0.0, 0.0, 0.0)),
        )
        self._set_clk(rank, done)

    def on_collective(
        self,
        kind: OpKind,
        members: Sequence[int],
        root: int,
        nbytes: int,
        alpha_count: float,
        bytes_on_wire: float,
    ) -> None:
        o = self._o
        a = float(alpha_count)
        b = float(bytes_on_wire)
        if kind in _SYNC_COLLECTIVES:
            # Every member completes at max over members of
            # clk + o + alpha_count*L + bytes/B: one shared node.
            done = self._new_node(
                -2, tuple(self._clk_edge(m, const=o, alpha=a, nbytes=b) for m in members)
            )
            for m in members:
                self._set_clk(m, done)
        elif kind in (OpKind.BCAST, OpKind.SCATTER):
            root_done = self._new_node(root, (self._clk_edge(root, const=o, alpha=a, nbytes=b),))
            for m in members:
                if m == root:
                    self._set_clk(m, root_done)
                else:
                    done = self._new_node(
                        m, (self._clk_edge(m, const=o), (root_done, 0.0, 0.0, 0.0, 0.0))
                    )
                    self._set_clk(m, done)
        else:  # REDUCE / GATHER
            root_done = self._new_node(
                -2, tuple(self._clk_edge(m, const=o, alpha=a, nbytes=b) for m in members)
            )
            for m in members:
                if m == root:
                    self._set_clk(m, root_done)
                else:
                    done = self._new_node(
                        m, (self._clk_edge(m, const=o, alpha=1.0, nbytes=float(nbytes)),)
                    )
                    self._set_clk(m, done)

    # -- finalization ------------------------------------------------------

    def finish(self) -> DependencyGraph:
        """Seal the tape: add the terminal node (the application's total
        is the max over every rank's final clock) and freeze the arrays."""
        terminal = self._new_node(-1, tuple(self._clk_edge(r) for r in range(self.nranks)))
        graph = DependencyGraph(
            pred=np.asarray(self._ep, dtype=np.int64),
            const=np.asarray(self._ec, dtype=float),
            alpha=np.asarray(self._ea, dtype=float),
            nbytes=np.asarray(self._eb, dtype=float),
            compute=np.asarray(self._ew, dtype=float),
            starts=np.asarray(self._starts, dtype=np.int64),
            node_rank=np.asarray(self._rank_of, dtype=np.int64),
            terminal=terminal,
            baseline=self._baseline,
        )
        if obs.enabled():
            obs.counter("repro_sensitivity_graphs_total").inc()
            obs.counter("repro_sensitivity_nodes_total").inc(graph.n_nodes)
            obs.counter("repro_sensitivity_edges_total").inc(graph.n_edges)
        return graph
