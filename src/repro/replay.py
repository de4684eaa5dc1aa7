"""The MPI matching kernel shared by every trace replay.

One replay of a trace advances each rank through its program-ordered
op stream until the rank finishes or blocks.  What the ops *mean* for
message matching and progress is the same for every tool, so it lives
here once:

* per-rank instruction pointers and a ready queue of runnable ranks;
* FIFO channels keyed by the MPI envelope ``(src, dst, tag, comm)``:
  sends match posted receives in send order, so a later message never
  overtakes an earlier one on the same channel (eager, buffered sends
  never block on their receiver);
* the per-rank request table: an ISEND request completes at its WAIT,
  an IRECV request binds to the channel's next message and completes
  at its WAIT once bound;
* collective rendezvous by ``(comm, instance)``: the k-th collective a
  rank issues on a communicator meets the k-th of every other member;
* the blocked-reason table, stuck-rank detection, the wait-for graph
  and the single :class:`ReplayDeadlockError` diagnostic.

A tool subclasses :class:`MatchingReplay` and supplies only its *time
algebra* through the hook methods (``_compute``, ``_send``, ``_post``,
``_recv``, ``_sent``, ``_arrive``, ``_collective``).  The payload a
``_send`` hook returns travels through the channel untouched and is
handed to the matching ``_recv``, so a tool can carry anything with a
message: availability clocks, byte counts, dependency-tape nodes.  The
base class's hooks do nothing, which makes it a time-free replay of the
matching semantics on its own (tracelint's deadlock rule).  MFACT,
ground-truth synthesis and the simulator's :class:`SimReplay` are the
other users.

A receive can be *matched* before its data has *arrived*.  The
simulator's payload is an in-flight message whose arrival time the
network model fills in later, from an event.  Its ``_recv`` returns a
true value while the message is still in flight; the kernel then parks
the rank with an ``("arrival", channel)`` reason, and the tool's
delivery callback completes the receive, calls :meth:`_resume` and
re-enters the ready-queue loop (:meth:`_run_ready`).  That re-entry is
safe because the loop holds no state across calls and every network
model schedules its deliveries as events: a delivery never runs inside
the ``_send`` that caused it.

The ready queue is FIFO.  A tool whose time algebra depends on the
order ranks run in overrides ``_wake`` and ``_pop``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet

__all__ = ["MatchingReplay", "ReplayDeadlockError"]

_COMPUTE = OpKind.COMPUTE
_SEND = OpKind.SEND
_ISEND = OpKind.ISEND
_RECV = OpKind.RECV
_IRECV = OpKind.IRECV
_WAIT = OpKind.WAIT

#: Request-table entry of an ISEND (eager: complete once issued).
_SENT = object()
#: Payload of an IRECV request that no message has bound yet.
_UNBOUND = object()

#: Stuck ranks a deadlock diagnostic names one by one.
_SHOWN = 8


class ReplayDeadlockError(RuntimeError):
    """Raised when a trace cannot make progress (invalid matching)."""


class _Posted:
    """A posted receive: a parked RECV, or an IRECV request."""

    __slots__ = ("rank", "op", "msg")

    def __init__(self, rank: int, op: Op):
        self.rank = rank
        self.op = op
        self.msg = _UNBOUND


class _Channels(dict):
    """Envelope key -> (queued payloads, posted receives); a key's
    channel is created on first use, so iteration is first-use order."""

    def __missing__(self, key: Tuple[int, int, int, int]) -> Tuple[Deque, Deque[_Posted]]:
        chan = self[key] = (deque(), deque())
        return chan


def _channel_name(key: Tuple[int, int, int, int]) -> str:
    """``(src=…, dst=…, tag=…) on comm …`` for one envelope key."""
    src, dst, tag, comm = key
    return f"(src={src}, dst={dst}, tag={tag}) on comm {comm}"


def _find_cycle(edges: Dict[int, Tuple[int, ...]]) -> Optional[List[int]]:
    """One cycle in the wait-for digraph, as a rank list, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {r: WHITE for r in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        stack: List[Tuple[int, Iterator[int]]] = [(start, iter(edges.get(start, ())))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if color[nxt] == GRAY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


class MatchingReplay:
    """MPI matching and progress over per-rank op streams.

    ``streams`` defaults to ``trace.ranks``; a caller may pass a
    filtered copy (one list per rank) to replay a subset of the ops.
    """

    def __init__(self, trace: TraceSet, streams: Optional[Sequence[List[Op]]] = None):
        self.trace = trace
        self._ops = trace.ranks if streams is None else streams
        n = trace.nranks
        self.ip = [0] * n
        #: Why each parked rank waits: ("recv", envelope key),
        #: ("wait", posted IRECV), ("arrival", envelope key) or
        #: ("coll", (comm, instance)).
        self.blocked: List[Optional[Tuple]] = [None] * n
        self._channels = _Channels()
        self._requests: List[Dict[int, object]] = [{} for _ in range(n)]
        self._coll: Dict[Tuple[int, int], Dict[int, object]] = {}
        self._coll_instance: List[Dict[int, int]] = [{} for _ in range(n)]
        self._ready = deque()
        self._queued = [False] * n
        self._done = [False] * n
        self.steps = 0

    # -- time algebra (hooks; the base replay keeps no time) ----------------

    def _compute(self, rank: int, op: Op) -> None:
        """A COMPUTE op ran on ``rank``."""

    def _send(self, rank: int, op: Op):
        """A SEND or ISEND was issued; returns the message payload."""
        return None

    def _post(self, rank: int, op: Op) -> None:
        """An IRECV was posted (before it binds to any message)."""

    def _recv(self, rank: int, op: Op, rop: Op, msg) -> Optional[bool]:
        """A receive matched: ``op`` (the RECV, or the WAIT on an IRECV)
        returns with ``msg``, the payload matched by ``rop``.  A true
        result means the payload is still in flight: the rank stays
        parked until the tool resumes it."""

    def _sent(self, rank: int, op: Op) -> None:
        """A WAIT on an ISEND request returned."""

    def _arrive(self, rank: int, op: Op):
        """``rank`` reached a collective; returns its arrival token."""
        return None

    def _collective(self, op: Op, members: Tuple[int, ...], arrived: Dict[int, object]) -> None:
        """Every member arrived (``arrived`` maps rank -> token, in
        arrival order); each member is still parked at its own op."""

    # -- scheduling ----------------------------------------------------------

    def _wake(self, rank: int) -> None:
        if not self._queued[rank]:
            self._queued[rank] = True
            self._ready.append(rank)

    def _pop(self) -> int:
        return self._ready.popleft()

    # -- matching ------------------------------------------------------------

    def _resume(self, rank: int) -> None:
        """``rank``'s parked op completed: step past it and requeue."""
        self.blocked[rank] = None
        self.ip[rank] += 1
        self._wake(rank)

    def _deliver(self, key: Tuple[int, int, int, int], msg) -> None:
        """A send's payload reached channel ``key``: match it or queue it."""
        queued, posted = self._channels[key]
        if not posted:
            queued.append(msg)
            return
        slot = posted.popleft()
        rank = slot.rank
        if slot.op.kind == _RECV:
            op = slot.op
        else:
            slot.msg = msg
            why = self.blocked[rank]
            if why is None or why[1] is not slot:
                return
            del self._requests[rank][slot.op.req]
            op = self._ops[rank][self.ip[rank]]
        if self._recv(rank, op, slot.op, msg):
            self.blocked[rank] = ("arrival", key)
        else:
            self._resume(rank)

    def _rendezvous(self, rank: int, op: Op) -> bool:
        """Register arrival; fire the collective when all members arrived."""
        comm = op.comm
        members = self.trace.comm_ranks(comm)
        inst = self._coll_instance[rank].get(comm, 0)
        key = (comm, inst)
        arrived = self._coll.setdefault(key, {})
        arrived[rank] = self._arrive(rank, op)
        if len(arrived) < len(members):
            self.blocked[rank] = ("coll", key)
            return False
        self._collective(op, members, arrived)
        del self._coll[key]
        for r in members:
            self._coll_instance[r][comm] = inst + 1
            self.blocked[r] = None
            self.ip[r] += 1
            if r != rank:
                self._wake(r)
        return True

    def _step(self, rank: int) -> bool:
        """Execute ``rank``'s next op; return False if the rank blocked."""
        op = self._ops[rank][self.ip[rank]]
        kind = op.kind
        if kind == _COMPUTE:
            self._compute(rank, op)
        elif kind == _SEND:
            self._deliver((rank, op.peer, op.tag, op.comm), self._send(rank, op))
        elif kind == _ISEND:
            self._requests[rank][op.req] = _SENT
            self._deliver((rank, op.peer, op.tag, op.comm), self._send(rank, op))
        elif kind == _RECV:
            key = (op.peer, rank, op.tag, op.comm)
            queued, posted = self._channels[key]
            if not queued:
                posted.append(_Posted(rank, op))
                self.blocked[rank] = ("recv", key)
                return False
            if self._recv(rank, op, op, queued.popleft()):
                self.blocked[rank] = ("arrival", key)
                return False
        elif kind == _IRECV:
            self._post(rank, op)
            slot = _Posted(rank, op)
            queued, posted = self._channels[op.peer, rank, op.tag, op.comm]
            if queued:
                slot.msg = queued.popleft()
            else:
                posted.append(slot)
            self._requests[rank][op.req] = slot
        elif kind == _WAIT:
            requests = self._requests[rank]
            slot = requests.get(op.req)
            if slot is None:
                raise ReplayDeadlockError(
                    f"rank {rank} waits on unknown request {op.req} in {self.trace.name}"
                )
            if slot is _SENT:
                del requests[op.req]
                self._sent(rank, op)
            elif slot.msg is not _UNBOUND:
                del requests[op.req]
                if self._recv(rank, op, slot.op, slot.msg):
                    rop = slot.op
                    self.blocked[rank] = ("arrival", (rop.peer, rank, rop.tag, rop.comm))
                    return False
            else:
                self.blocked[rank] = ("wait", slot)
                return False
        elif op.is_collective:
            return self._rendezvous(rank, op)
        else:  # pragma: no cover - OpKind is closed
            raise ValueError(f"unhandled op kind {kind!r}")
        self.ip[rank] += 1
        return True

    def drain(self) -> List[int]:
        """Run every rank until it finishes or blocks for good; return
        the ranks that never finished (empty unless deadlocked)."""
        for rank in range(len(self._ops)):
            self._wake(rank)
        self._run_ready()
        return self._unfinished()

    def _run_ready(self) -> None:
        """Run queued ranks until the ready queue is empty.

        Re-entrant: a tool that resumes a rank from outside the loop (a
        delivery callback) calls it again.
        """
        ops = self._ops
        ip = self.ip
        blocked = self.blocked
        queued = self._queued
        ready = self._ready
        done = self._done
        step = self._step
        pop = self._pop
        steps = 0
        while ready:
            rank = pop()
            queued[rank] = False
            if done[rank] or blocked[rank] is not None:
                continue
            end = len(ops[rank])
            while ip[rank] < end:
                steps += 1
                if not step(rank):
                    break
            if ip[rank] >= end:
                done[rank] = True
        self.steps += steps

    def _unfinished(self) -> List[int]:
        return [r for r, done in enumerate(self._done) if not done]

    # -- diagnostics ---------------------------------------------------------

    def waits_on(self, rank: int) -> Tuple[int, ...]:
        """Ranks whose progress would unblock ``rank``."""
        why = self.blocked[rank]
        if why is None:
            return ()
        kind, what = why
        if kind == "recv" or kind == "arrival":
            return (what[0],)
        if kind == "wait":
            return (what.op.peer,)
        arrived = self._coll.get(what, {})
        return tuple(r for r in self.trace.comm_ranks(what[0]) if r not in arrived)

    def wait_for_cycle(self, stuck: Sequence[int]) -> Optional[List[int]]:
        """One cycle of the wait-for graph among ``stuck`` ranks, or None."""
        return _find_cycle({r: self.waits_on(r) for r in stuck})

    def deadlock_error(self, stuck: Sequence[int]) -> ReplayDeadlockError:
        """Actionable diagnostic: why each stuck rank is parked, the
        wait-for cycle if there is one, and the oldest unmatched channel.
        """
        shown = list(stuck[:_SHOWN])
        reasons = []
        for r in shown:
            kind, what = self.blocked[r]
            if kind == "recv":
                reasons.append(f"rank {r} in blocking recv on channel {_channel_name(what)}")
            elif kind == "arrival":
                reasons.append(f"rank {r} awaiting a message in flight on {_channel_name(what)}")
            elif kind == "wait":
                reasons.append(f"rank {r} waiting on request {what.op.req}")
            else:
                reasons.append(f"rank {r} at collective rendezvous on comm {what[0]}")
        cycle = self.wait_for_cycle(stuck)
        if cycle is not None:
            reasons.append(f"wait-for cycle among ranks {cycle}")
        # Channels sit in first-use order, so the first with queued
        # sends or posted receives is usually the root mismatch.
        for key, (queued, posted) in self._channels.items():
            if queued or posted:
                reasons.append(
                    f"oldest unmatched channel {_channel_name(key)}: "
                    f"{len(queued)} queued send(s), {len(posted)} posted receive(s)"
                )
                break
        return ReplayDeadlockError(
            f"replay of {self.trace.name} deadlocked with ranks {shown} blocked: "
            + "; ".join(reasons)
        )
