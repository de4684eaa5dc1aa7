"""Rule-based static analysis over MPI traces — no simulation required.

``tracelint`` walks a :class:`~repro.trace.trace.TraceSet` once per rule
and reports typed :class:`~repro.analysis.diagnostics.Diagnostic`
records instead of raising on the first violation the way
:meth:`TraceSet.validate` does.  The pass is purely structural: no
virtual clocks, no network model, no event heap — a 64-rank trace lints
in a small fraction of the cheapest replay's walltime, which is the
whole point: catch malformed, deadlocking or engine-incompatible traces
*before* any simulator burns cycles on them.

Rules
-----
``trace/invalid-peer``
    P2P peer rank outside ``[0, nranks)``.
``trace/comm-membership``
    Collective on an unknown communicator, issued by a non-member, or
    rooted at a non-member.
``trace/unmatched-p2p``
    Send/recv count mismatch on a ``(src, dst, tag, comm)`` channel,
    with a tag/communicator-mismatch hint when a sibling channel has the
    opposite surplus.
``trace/byte-asymmetry``
    Matched channel whose k-th send and k-th recv disagree on payload.
``trace/request-discipline``
    ISEND/IRECV requests reused before completion, WAITs on unknown
    requests, and requests never waited.
``trace/collective-order``
    Ranks of one communicator issuing different collective sequences.
``trace/collective-args``
    Same collective sequence but inconsistent root or byte count.
``trace/deadlock``
    Wait-for-graph cycle over blocking ops: the shared matching kernel
    (:mod:`repro.replay`) replays the trace with no time at all, and
    the ranks it leaves parked induce the graph (reports the cycle).
``trace/timestamps``
    Non-monotonic ``t_entry``/``t_exit`` per rank, negative call
    durations, partially stamped streams.
``trace/model-support``
    Statically predicts the :class:`UnsupportedTraceError` conditions
    of the packet and flow engines (threads, complex grouping) so a
    study can route traces before failing mid-replay.
"""

from __future__ import annotations

from math import isnan
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.replay import MatchingReplay
from repro.trace.events import Op, OpKind, _ROOTED
from repro.trace.trace import TraceSet

__all__ = ["lint_trace", "TRACE_RULES", "LintGateError"]

#: Registered rule functions, each ``fn(trace) -> Iterator[Diagnostic]``.
TRACE_RULES: List = []

#: Cap on diagnostics a single rule emits for one trace (keeps reports
#: readable on badly broken wide traces; the cap itself is reported).
MAX_PER_RULE = 25

#: Tolerance for timestamp monotonicity (seconds).
_TIME_TOL = 1e-9


class LintGateError(RuntimeError):
    """A pre-replay lint gate rejected a trace (see :mod:`repro.core.pipeline`)."""

    def __init__(self, report: LintReport):
        errors = [d for d in report.diagnostics if d.severity >= Severity.ERROR]
        super().__init__(
            f"trace {report.subject!r} failed lint with {len(errors)} error(s): "
            + "; ".join(d.message for d in errors[:3])
        )
        self.report = report


def _rule(fn):
    TRACE_RULES.append(fn)
    return fn


def _channel_walk(trace: TraceSet):
    """Collect per-channel send/recv postings: key -> [(rank, op_index, nbytes)]."""
    sends: Dict[Tuple[int, int, int, int], List[Tuple[int, int, int]]] = {}
    recvs: Dict[Tuple[int, int, int, int], List[Tuple[int, int, int]]] = {}
    n = trace.nranks
    for rank, stream in enumerate(trace.ranks):
        for i, op in enumerate(stream):
            if not op.is_p2p or not (0 <= op.peer < n):
                continue
            if op.is_send_like:
                sends.setdefault((rank, op.peer, op.tag, op.comm), []).append(
                    (rank, i, op.nbytes)
                )
            else:
                recvs.setdefault((op.peer, rank, op.tag, op.comm), []).append(
                    (rank, i, op.nbytes)
                )
    return sends, recvs


# -- structural rules -----------------------------------------------------


@_rule
def check_peers(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/invalid-peer``: p2p peers must name existing ranks."""
    n = trace.nranks
    emitted = 0
    for rank, stream in enumerate(trace.ranks):
        for i, op in enumerate(stream):
            if op.is_p2p and not (0 <= op.peer < n):
                yield Diagnostic(
                    "trace/invalid-peer",
                    Severity.ERROR,
                    f"{op.kind.name} targets rank {op.peer} outside [0, {n})",
                    rank=rank,
                    op_index=i,
                    hint="peer ranks must index into the trace's rank list",
                )
                emitted += 1
                if emitted >= MAX_PER_RULE:
                    return


@_rule
def check_comm_membership(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/comm-membership``: collectives run inside their communicator."""
    emitted = 0
    for rank, stream in enumerate(trace.ranks):
        for i, op in enumerate(stream):
            if not op.is_collective:
                continue
            members = trace.comms.get(op.comm)
            if members is None:
                msg = f"{op.kind.name} on unknown communicator {op.comm}"
                hint = "register the communicator in TraceSet.comms"
            elif rank not in members:
                msg = f"rank calls {op.kind.name} on comm {op.comm} it does not belong to"
                hint = "only communicator members may issue its collectives"
            elif op.kind in _ROOTED and op.peer not in members:
                msg = (
                    f"{op.kind.name} on comm {op.comm} rooted at rank {op.peer}, "
                    f"which is not a member"
                )
                hint = "the root of a rooted collective must be in the communicator"
            else:
                continue
            yield Diagnostic(
                "trace/comm-membership", Severity.ERROR, msg, rank=rank, op_index=i, hint=hint
            )
            emitted += 1
            if emitted >= MAX_PER_RULE:
                return


@_rule
def check_p2p_matching(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/unmatched-p2p`` and ``trace/byte-asymmetry``."""
    sends, recvs = _channel_walk(trace)
    surplus_sends: Dict[Tuple[int, int], List[Tuple]] = {}
    surplus_recvs: Dict[Tuple[int, int], List[Tuple]] = {}
    for key in sends.keys() | recvs.keys():
        s, r = sends.get(key, []), recvs.get(key, [])
        if len(s) > len(r):
            surplus_sends.setdefault(key[:2], []).append((key, s[len(r)]))
        elif len(r) > len(s):
            surplus_recvs.setdefault(key[:2], []).append((key, r[len(s)]))
    emitted = 0
    for key in sorted(sends.keys() | recvs.keys()):
        src, dst, tag, comm = key
        s, r = sends.get(key, []), recvs.get(key, [])
        if len(s) != len(r):
            hint = ""
            # A sibling channel with the opposite surplus on the same
            # (src, dst) pair usually means a tag or communicator typo.
            opposite = surplus_recvs if len(s) > len(r) else surplus_sends
            for sib_key, _ in opposite.get((src, dst), []):
                if sib_key != key:
                    hint = (
                        f"channel {src}->{dst} also has the opposite surplus on "
                        f"tag {sib_key[2]} comm {sib_key[3]} — tag/comm mismatch?"
                    )
                    break
            anchor = s[len(r)] if len(s) > len(r) else r[len(s)]
            yield Diagnostic(
                "trace/unmatched-p2p",
                Severity.ERROR,
                f"channel {src}->{dst} tag {tag} comm {comm}: "
                f"{len(s)} send(s) vs {len(r)} recv(s)",
                rank=anchor[0],
                op_index=anchor[1],
                hint=hint or "every send needs a matching recv posted at the destination",
            )
            emitted += 1
        else:
            for (s_rank, s_i, s_bytes), (r_rank, r_i, r_bytes) in zip(s, r):
                if s_bytes != r_bytes:
                    yield Diagnostic(
                        "trace/byte-asymmetry",
                        Severity.ERROR,
                        f"channel {src}->{dst} tag {tag} comm {comm}: send of "
                        f"{s_bytes} B (rank {s_rank} op {s_i}) matched by recv of "
                        f"{r_bytes} B",
                        rank=r_rank,
                        op_index=r_i,
                        hint="matched send/recv pairs must agree on payload size",
                    )
                    emitted += 1
                    break  # one report per channel
        if emitted >= MAX_PER_RULE:
            return


@_rule
def check_request_discipline(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/request-discipline``: every nonblocking request completes once."""
    emitted = 0
    for rank, stream in enumerate(trace.ranks):
        pending: Dict[int, Tuple[OpKind, int]] = {}
        for i, op in enumerate(stream):
            if op.kind in (OpKind.ISEND, OpKind.IRECV):
                if op.req in pending:
                    prev_kind, prev_i = pending[op.req]
                    yield Diagnostic(
                        "trace/request-discipline",
                        Severity.ERROR,
                        f"request {op.req} reissued by {op.kind.name} before the "
                        f"{prev_kind.name} at op {prev_i} completed",
                        rank=rank,
                        op_index=i,
                        hint="WAIT on the outstanding request before reusing its id",
                    )
                    emitted += 1
                pending[op.req] = (op.kind, i)
            elif op.kind == OpKind.WAIT:
                if op.req not in pending:
                    yield Diagnostic(
                        "trace/request-discipline",
                        Severity.ERROR,
                        f"WAIT on unknown request {op.req}",
                        rank=rank,
                        op_index=i,
                        hint="WAITs must follow the ISEND/IRECV that created the request",
                    )
                    emitted += 1
                else:
                    del pending[op.req]
        for req, (kind, i) in sorted(pending.items()):
            yield Diagnostic(
                "trace/request-discipline",
                Severity.ERROR,
                f"{kind.name} request {req} is never waited",
                rank=rank,
                op_index=i,
                hint="append a WAIT for every outstanding request",
            )
            emitted += 1
        if emitted >= MAX_PER_RULE:
            return


@_rule
def check_collective_order(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/collective-order`` and ``trace/collective-args``."""
    seq: Dict[int, Dict[int, List[Tuple[int, int, int, int]]]] = {}
    for rank, stream in enumerate(trace.ranks):
        for i, op in enumerate(stream):
            if op.is_collective and rank in trace.comms.get(op.comm, ()):
                seq.setdefault(op.comm, {}).setdefault(rank, []).append(
                    (int(op.kind), op.peer, op.nbytes, i)
                )
    emitted = 0
    for comm in sorted(seq):
        members = trace.comms[comm]
        ref_rank = members[0]
        ref = seq[comm].get(ref_rank, [])
        for rank in members[1:]:
            mine = seq[comm].get(rank, [])
            if len(mine) != len(ref):
                yield Diagnostic(
                    "trace/collective-order",
                    Severity.ERROR,
                    f"comm {comm}: rank {rank} issues {len(mine)} collective(s) but "
                    f"rank {ref_rank} issues {len(ref)}",
                    rank=rank,
                    op_index=mine[-1][3] if mine else -1,
                    hint="all members of a communicator must run the same collectives",
                )
                emitted += 1
            for (k_ref, root_ref, b_ref, _), (k, root, b, i) in zip(ref, mine):
                if k != k_ref:
                    yield Diagnostic(
                        "trace/collective-order",
                        Severity.ERROR,
                        f"comm {comm}: rank {rank} issues {OpKind(k).name} where rank "
                        f"{ref_rank} issues {OpKind(k_ref).name}",
                        rank=rank,
                        op_index=i,
                        hint="reordered collectives deadlock or corrupt data at runtime",
                    )
                    emitted += 1
                    break
                if root != root_ref or b != b_ref:
                    yield Diagnostic(
                        "trace/collective-args",
                        Severity.ERROR,
                        f"comm {comm}: {OpKind(k).name} called with root={root} "
                        f"nbytes={b} on rank {rank} but root={root_ref} "
                        f"nbytes={b_ref} on rank {ref_rank}",
                        rank=rank,
                        op_index=i,
                        hint="collective arguments must match across the communicator",
                    )
                    emitted += 1
                    break
            if emitted >= MAX_PER_RULE:
                return


# -- deadlock analysis ----------------------------------------------------


def _deadlock_streams(trace: TraceSet) -> Tuple[List[List[Op]], List[List[int]]]:
    """Each rank's ops minus the ones other rules own, plus each kept
    op's index in the original stream.

    Dropped: p2p ops on invalid peers (``trace/invalid-peer``), WAITs
    on requests the rank never issued (``trace/request-discipline``)
    and collectives outside their communicator
    (``trace/comm-membership``).  None of them names a rank the caller
    could wait on, so dropping them keeps every real wait-for edge.
    """
    n = trace.nranks
    streams: List[List[Op]] = []
    where: List[List[int]] = []
    for rank, stream in enumerate(trace.ranks):
        kept: List[Op] = []
        index: List[int] = []
        live = set()
        for i, op in enumerate(stream):
            if op.is_p2p:
                if not 0 <= op.peer < n:
                    continue
                if op.kind in (OpKind.ISEND, OpKind.IRECV):
                    live.add(op.req)
            elif op.kind == OpKind.WAIT:
                if op.req not in live:
                    continue
                live.discard(op.req)
            elif op.is_collective and rank not in trace.comms.get(op.comm, ()):
                continue
            kept.append(op)
            index.append(i)
        streams.append(kept)
        where.append(index)
    return streams, where


@_rule
def check_deadlock(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/deadlock``: wait-for-graph cycle analysis over blocking ops."""
    streams, where = _deadlock_streams(trace)
    replay = MatchingReplay(trace, streams)
    stuck = replay.drain()
    if not stuck:
        return
    at = {r: where[r][replay.ip[r]] for r in stuck}
    cycle = replay.wait_for_cycle(stuck)
    if cycle is not None:
        detail = [
            f"rank {r} blocks at op {at[r]} ({trace.ranks[r][at[r]].kind.name})" for r in cycle
        ]
        yield Diagnostic(
            "trace/deadlock",
            Severity.ERROR,
            f"wait-for cycle among ranks {cycle}: " + "; ".join(detail),
            rank=cycle[0],
            op_index=at[cycle[0]],
            hint="break the cycle by reordering the blocking ops on one rank",
        )
    for r in stuck[:8]:
        if cycle is not None and r in cycle:
            continue
        kind = trace.ranks[r][at[r]].kind.name
        waits = ", ".join(str(w) for w in replay.waits_on(r)) or "nothing"
        yield Diagnostic(
            "trace/deadlock",
            Severity.ERROR,
            f"rank {r} blocks forever at op {at[r]} ({kind}), waiting on "
            f"rank(s) {waits}",
            rank=r,
            op_index=at[r],
            hint="the peer never posts the matching operation",
        )
    if len(stuck) > 8:
        yield Diagnostic(
            "trace/deadlock",
            Severity.ERROR,
            f"{len(stuck) - 8} further rank(s) also never finish",
        )


# -- timestamp and model rules --------------------------------------------


def _stamped(op: Op) -> bool:
    return not (isnan(op.t_entry) or isnan(op.t_exit))


@_rule
def check_timestamps(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/timestamps``: measured times must be sane if present."""
    any_stamped = any(_stamped(op) for stream in trace.ranks for op in stream)
    if not any_stamped:
        return  # unstamped traces (pre-synthesis) are fine
    emitted = 0
    for rank, stream in enumerate(trace.ranks):
        prev_exit = 0.0
        for i, op in enumerate(stream):
            if not _stamped(op):
                yield Diagnostic(
                    "trace/timestamps",
                    Severity.ERROR,
                    f"op {op.kind.name} is unstamped in an otherwise stamped trace",
                    rank=rank,
                    op_index=i,
                    hint="run the ground-truth synthesizer over the whole trace",
                )
                emitted += 1
            else:
                if op.t_exit < op.t_entry - _TIME_TOL:
                    yield Diagnostic(
                        "trace/timestamps",
                        Severity.ERROR,
                        f"{op.kind.name} exits at {op.t_exit:.9g} before its entry "
                        f"{op.t_entry:.9g}",
                        rank=rank,
                        op_index=i,
                        hint="t_exit must be >= t_entry",
                    )
                    emitted += 1
                if op.t_entry < prev_exit - _TIME_TOL:
                    yield Diagnostic(
                        "trace/timestamps",
                        Severity.ERROR,
                        f"{op.kind.name} enters at {op.t_entry:.9g}, a negative gap "
                        f"after the previous op's exit {prev_exit:.9g}",
                        rank=rank,
                        op_index=i,
                        hint="per-rank timestamps must be monotonically non-decreasing",
                    )
                    emitted += 1
                prev_exit = max(prev_exit, op.t_exit)
            if emitted >= MAX_PER_RULE:
                return


@_rule
def check_model_support(trace: TraceSet) -> Iterator[Diagnostic]:
    """``trace/model-support``: predict per-engine UnsupportedTraceError."""
    if trace.uses_threads:
        yield Diagnostic(
            "trace/model-support",
            Severity.NOTE,
            "multi-threaded trace: the packet and flow engines raise "
            "UnsupportedTraceError; only packet-flow completes",
            hint="route this trace straight to the packet-flow engine",
        )
    if trace.uses_comm_split:
        yield Diagnostic(
            "trace/model-support",
            Severity.NOTE,
            "complex MPI grouping: the flow engine raises UnsupportedTraceError",
            hint="use the packet or packet-flow engine",
        )
    if not trace.uses_comm_split and len(trace.comms) > 1:
        yield Diagnostic(
            "trace/model-support",
            Severity.WARNING,
            f"trace defines {len(trace.comms) - 1} sub-communicator(s) but "
            f"uses_comm_split is False, so engine applicability checks will not "
            f"reject it",
            hint="set uses_comm_split=True on traces with sub-communicators",
        )


def lint_trace(trace: TraceSet, rules: Optional[Iterable] = None) -> LintReport:
    """Run every registered rule over ``trace`` and collect diagnostics."""
    report = LintReport(subject=trace.name)
    for fn in (TRACE_RULES if rules is None else rules):
        report.extend(fn(trace))
    return report
