"""Study coordinator: lease-based sharding with heartbeats and a journal.

One :class:`Coordinator` owns the authoritative state of every
submitted study.  Specs are sharded across registered workers by
**rendezvous hashing on the spec cache key** (the same key the record
cache uses), so the shard map is stable under worker churn and a
re-submitted study lands on the same hosts' warm caches.  Work is
pull-based: a worker's ``ready`` request leases it one spec — its
preferred shard when one is pending, any pending spec otherwise (work
stealing keeps a dead shard from stalling the study).

Robustness invariants:

* **Leases, not locks.**  An assignment is a lease ``(worker_id,
  deadline, generation)``; heartbeats extend it.  When a worker's
  heartbeats stop past ``heartbeat_timeout`` (SIGKILL, partition) or a
  lease deadline passes, the tick loop reclaims the spec — back to
  pending at the next lease generation, ready for reassignment.
* **Exactly-once completion, at-least-once delivery.**  The first
  result for a spec wins and is journaled; duplicates (a worker
  resending after a connection drop, or a reclaimed lease whose
  original worker was merely slow) are acknowledged and counted, never
  double-recorded.  Records are idempotent by cache key, so the wasted
  work is a cache hit.
* **Crash-consistent restart.**  Every completion is fsync'd to the
  :class:`~repro.serve.journal.Journal` before it is acknowledged; a
  restarted coordinator replays the journal and resumes each study
  from its finished entries rather than restarting it.
* **Graceful degradation.**  A study whose pending specs see no live
  worker for ``fallback_grace`` seconds is driven locally, in-process,
  through the identical :func:`~repro.core.executor.drive_spec` path —
  a coordinator with zero workers is just a slow serial executor.

Lease deadlines, heartbeat ages and tick timers are monotonic-clock
state kept in memory only; nothing time-derived is serialized into
protocol replies or journal events (walltimes inside manifest entries
are measured by the executor and arrive as plain data).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import threading
from pathlib import Path
from time import monotonic as _now
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.executor import drive_spec, spec_cache_key, study_options
from repro.core.pipeline import SIM_MODELS
from repro.core.resilience import QuarantineRegistry, RetryPolicy
from repro.serve import protocol
from repro.serve.journal import Journal
from repro.util.fingerprint import code_version
from repro.util.manifest import ManifestEntry, RunManifest

__all__ = ["Coordinator", "spec_from_json", "spec_to_json"]

#: Suggested delay (seconds) a worker should wait before re-asking for
#: work when nothing is pending.
_WAIT_BACKOFF = 0.1

#: Accept timeout doubling as the tick cadence for lease/heartbeat
#: expiry and the local-fallback check.
_ACCEPT_TICK = 0.05

#: Cap on memoized cheap-query replies (each is a small JSON dict).
_QUERY_CACHE_MAX = 128


def spec_to_json(spec) -> dict:
    """A :class:`~repro.workloads.suite.TraceSpec` as a wire object."""
    return dataclasses.asdict(spec)


def spec_from_json(data: dict):
    """Rebuild a spec from :func:`spec_to_json` output (tolerant of
    unknown future fields, like the manifest loader)."""
    from repro.workloads.suite import TraceSpec

    known = {f.name for f in dataclasses.fields(TraceSpec)}
    return TraceSpec(**{k: v for k, v in data.items() if k in known})


@dataclasses.dataclass
class _Slot:
    """One spec's scheduling state inside a study."""

    index: int
    spec: object
    key: str  # spec cache key — the shard key
    state: str = "pending"  # pending | leased | done
    lease_worker: str = ""
    lease_gen: int = 0  # bumped every reclaim; stamped on the entry
    lease_deadline: float = 0.0  # monotonic; in-memory only
    entry: Optional[dict] = None
    record: Optional[dict] = None


@dataclasses.dataclass
class _Study:
    study_id: str
    specs: List[object]
    options: dict
    seed: Optional[int]
    retry: dict
    slots: Dict[int, _Slot]
    metrics: Optional[obs.MetricsRegistry] = None
    local_running: bool = False

    @property
    def done(self) -> int:
        return sum(1 for s in self.slots.values() if s.state == "done")

    @property
    def complete(self) -> bool:
        return all(s.state == "done" for s in self.slots.values())


@dataclasses.dataclass
class _WorkerSeat:
    worker_id: str
    last_seen: float  # monotonic; in-memory only
    connected: bool = True


class Coordinator:
    """Shards studies across workers; survives their deaths (and its own)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_root: Optional[Union[str, "object"]] = None,
        quarantine_root: Optional[Union[str, "object"]] = None,
        journal_path: Optional[Union[str, "object"]] = None,
        lease_timeout: float = 10.0,
        heartbeat_timeout: Optional[float] = None,
        fallback_grace: float = 2.0,
        retry: Optional[RetryPolicy] = None,
        collect_metrics: bool = False,
        conn_timeout: float = protocol.DEFAULT_TIMEOUT,
    ):
        self._host = host
        self._port = port
        self.cache_root = str(cache_root) if cache_root is not None else None
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_timeout = float(
            heartbeat_timeout if heartbeat_timeout is not None else lease_timeout
        )
        self.fallback_grace = float(fallback_grace)
        self.retry = retry if retry is not None else RetryPolicy()
        self.collect_metrics = bool(collect_metrics)
        self.conn_timeout = float(conn_timeout)
        self.address: Optional[Tuple[str, int]] = None

        self._lock = threading.RLock()
        self._studies: Dict[str, _Study] = {}
        self._workers: Dict[str, _WorkerSeat] = {}
        # Memoized cheap-query replies keyed by spec cache key
        # (insertion-ordered; oldest entry evicted past the cap).
        self._query_cache: Dict[str, dict] = {}
        self._draining = False
        self._running = False
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._seen_any_worker = False
        self._started_at = 0.0
        #: Set once draining has finished every submitted study.
        self.drained = threading.Event()
        # Requests between receipt and reply; stop() lets them finish.
        self._inflight = 0
        self._idle = threading.Condition()

        self.metrics = obs.MetricsRegistry() if self.collect_metrics else None
        self.quarantine: Optional[QuarantineRegistry] = None
        self.quarantine_pruned = 0
        if quarantine_root is not None or self.cache_root is not None:
            root = (
                quarantine_root
                if quarantine_root is not None
                else Path(self.cache_root).parent / "quarantine"
            )
            self.quarantine = QuarantineRegistry(root)
            self.quarantine_pruned = self.quarantine.prune_stale(code_version())

        self.journal: Optional[Journal] = None
        if journal_path is not None:
            self.journal = Journal(journal_path)
            self._replay(self.journal.replay())

    # -- journal replay ----------------------------------------------------

    def _replay(self, events: Sequence[dict]) -> None:
        """Rebuild study state from journal events (crash recovery)."""
        for event in events:
            kind = event.get("event")
            if kind == "study":
                try:
                    specs = [spec_from_json(s) for s in event["specs"]]
                    self._register_study(
                        event["study_id"],
                        specs,
                        dict(event["options"]),
                        event.get("seed"),
                        dict(event.get("retry") or {}),
                        journal=False,
                    )
                except (KeyError, TypeError, ValueError):
                    continue  # torn or legacy event: skip, the study can resubmit
            elif kind == "entry":
                study = self._studies.get(event.get("study_id", ""))
                if study is None:
                    continue
                slot = study.slots.get(event.get("index", -1))
                if slot is None or slot.state == "done":
                    continue
                slot.state = "done"
                slot.entry = event.get("entry")
                slot.record = event.get("record")
                slot.lease_gen = int(event.get("lease", slot.lease_gen))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen, and run the accept/tick loop in a thread."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.settimeout(_ACCEPT_TICK)
        sock.bind((self._host, self._port))
        sock.listen(64)
        self._sock = sock
        self.address = sock.getsockname()[:2]
        self._running = True
        self._started_at = _now()
        self._thread = threading.Thread(
            target=self._serve_loop, name="repro-serve-coordinator", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._running = False
        # A request being handled still gets its reply: the drain request
        # that set ``drained`` is usually one, and the process serving
        # this coordinator exits as soon as stop() returns.
        with self._idle:
            self._idle.wait_for(lambda: self._inflight == 0, timeout=5.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        if self.journal is not None:
            self.journal.close()

    def _serve_loop(self) -> None:
        while self._running:
            try:
                conn, addr = self._sock.accept()
            except TimeoutError:
                self._tick()
                continue
            except OSError:
                break
            conn.settimeout(self.conn_timeout)
            handler = threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            )
            handler.start()

    # -- connection handling -----------------------------------------------

    def _handle(self, conn: socket.socket) -> None:
        worker_id = ""
        try:
            while self._running:
                try:
                    message = protocol.recv_frame(conn)
                except TimeoutError:
                    # Idle connection: keep waiting while its worker is
                    # still considered alive, drop it otherwise.
                    if worker_id and not self._worker_live(worker_id):
                        break
                    continue
                if message is None:
                    break
                if message.get("worker_id"):
                    worker_id = str(message["worker_id"])
                with self._idle:
                    self._inflight += 1
                try:
                    reply = self._dispatch(message)
                    if reply is not None:
                        protocol.send_frame(conn, reply)
                finally:
                    with self._idle:
                        self._inflight -= 1
                        self._idle.notify_all()
        except (protocol.ProtocolError, OSError):
            pass
        finally:
            if worker_id:
                with self._lock:
                    seat = self._workers.get(worker_id)
                    if seat is not None:
                        seat.connected = False
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, message: dict) -> Optional[dict]:
        kind = message.get("type")
        if kind == "hello":
            return self._on_hello(message)
        if kind == "heartbeat":
            self._touch(str(message.get("worker_id", "")))
            return None  # fire-and-forget
        if kind == "ready":
            return self._on_ready(message)
        if kind == "result":
            return self._on_result(message)
        if kind == "goodbye":
            return self._on_goodbye(message)
        if kind == "submit":
            return self._on_submit(message)
        if kind == "poll":
            return self._on_poll(message)
        if kind == "fetch":
            return self._on_fetch(message)
        if kind == "status":
            return self._on_status(message)
        if kind == "query":
            return self._on_query(message)
        if kind == "drain":
            with self._lock:
                self._draining = True
                self._check_drained()
            return {"type": "ack", "draining": True}
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    # -- worker registry ---------------------------------------------------

    def _touch(self, worker_id: str) -> None:
        if not worker_id:
            return
        with self._lock:
            seat = self._workers.get(worker_id)
            if seat is None:
                seat = _WorkerSeat(worker_id=worker_id, last_seen=_now())
                self._workers[worker_id] = seat
            else:
                seat.last_seen = _now()
                seat.connected = True
            self._seen_any_worker = True
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_serve_heartbeats_total", worker=worker_id
                ).inc()
            # A live heartbeat extends every lease the worker holds.
            deadline = _now() + self.lease_timeout
            for study in self._studies.values():
                for slot in study.slots.values():
                    if slot.state == "leased" and slot.lease_worker == worker_id:
                        slot.lease_deadline = deadline

    def _worker_live(self, worker_id: str) -> bool:
        with self._lock:
            seat = self._workers.get(worker_id)
            if seat is None:
                return False
            return (_now() - seat.last_seen) <= self.heartbeat_timeout

    def _live_workers(self) -> List[str]:
        cutoff = _now() - self.heartbeat_timeout
        return sorted(
            wid
            for wid, seat in self._workers.items()
            if seat.connected and seat.last_seen >= cutoff
        )

    def _on_hello(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        self._touch(worker_id)
        return {
            "type": "welcome",
            "heartbeat_interval": max(0.05, self.lease_timeout / 5.0),
            "lease_timeout": self.lease_timeout,
        }

    def _on_goodbye(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        with self._lock:
            seat = self._workers.get(worker_id)
            if seat is not None:
                seat.connected = False
            # Graceful exit: the worker will not finish these — reclaim
            # immediately instead of waiting out the heartbeat timeout.
            for study in self._studies.values():
                for slot in study.slots.values():
                    if slot.state == "leased" and slot.lease_worker == worker_id:
                        self._reclaim(slot)
        return {"type": "ack"}

    # -- scheduling --------------------------------------------------------

    def _shard_owner(self, key: str, live: Sequence[str]) -> str:
        """Rendezvous hash: the live worker with the highest score for
        ``key``.  Stable under churn — removing one worker only moves
        that worker's specs."""
        best, best_score = "", b""
        for wid in live:
            score = hashlib.sha256(f"{key}\0{wid}".encode("utf-8")).digest()
            if score > best_score:
                best, best_score = wid, score
        return best

    def _expire_leases(self) -> None:
        now = _now()
        dead_cutoff = now - self.heartbeat_timeout
        for study in self._studies.values():
            for slot in study.slots.values():
                if slot.state != "leased" or slot.lease_worker == "local":
                    continue
                seat = self._workers.get(slot.lease_worker)
                worker_dead = seat is None or (
                    not seat.connected and seat.last_seen < dead_cutoff
                )
                if slot.lease_deadline < now or worker_dead:
                    self._reclaim(slot)

    def _reclaim(self, slot: _Slot) -> None:
        slot.state = "pending"
        slot.lease_worker = ""
        slot.lease_deadline = 0.0
        slot.lease_gen += 1
        if self.metrics is not None:
            self.metrics.counter("repro_serve_leases_reclaimed_total").inc()

    def _on_ready(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        self._touch(worker_id)
        with self._lock:
            self._expire_leases()
            live = self._live_workers()
            assignment = self._next_slot(worker_id, live)
            if assignment is None:
                if self._draining and all(
                    s.complete for s in self._studies.values()
                ):
                    return {"type": "drain"}
                return {"type": "wait", "backoff": _WAIT_BACKOFF}
            study, slot = assignment
            slot.state = "leased"
            slot.lease_worker = worker_id
            slot.lease_deadline = _now() + self.lease_timeout
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_serve_assignments_total", worker=worker_id
                ).inc()
            return {
                "type": "assign",
                "study_id": study.study_id,
                "index": slot.index,
                "lease": slot.lease_gen,
                "spec": spec_to_json(slot.spec),
                "options": study.options,
                "seed": study.seed,
                "retry": study.retry,
            }

    def _next_slot(
        self, worker_id: str, live: Sequence[str]
    ) -> Optional[Tuple[_Study, _Slot]]:
        """Preferred shard first, then any pending spec (work stealing)."""
        fallback: Optional[Tuple[_Study, _Slot]] = None
        for study in self._studies.values():
            for index in sorted(study.slots):
                slot = study.slots[index]
                if slot.state != "pending":
                    continue
                if self._shard_owner(slot.key, live) == worker_id:
                    return study, slot
                if fallback is None:
                    fallback = (study, slot)
        return fallback

    # -- completion --------------------------------------------------------

    def _on_result(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        self._touch(worker_id)
        study_id = str(message.get("study_id", ""))
        with self._lock:
            study = self._studies.get(study_id)
            if study is None:
                # Journal lost or study never submitted here (e.g. the
                # coordinator restarted without its journal): tell the
                # worker to drop the buffered result.
                return {"type": "ack", "unknown": True}
            slot = study.slots.get(int(message.get("index", -1)))
            if slot is None:
                return {"type": "ack", "unknown": True}
            if slot.state == "done":
                if self.metrics is not None:
                    self.metrics.counter("repro_serve_duplicates_total").inc()
                return {"type": "ack", "duplicate": True}
            entry = message.get("entry")
            if not isinstance(entry, dict):
                return {"type": "error", "error": "result without an entry"}
            self._complete(
                study,
                slot,
                worker_id,
                entry,
                message.get("record"),
                message.get("metrics"),
                lease=int(message.get("lease", slot.lease_gen)),
            )
            return {"type": "ack"}

    def _complete(
        self,
        study: _Study,
        slot: _Slot,
        worker_id: str,
        entry: dict,
        record: Optional[dict],
        metrics: Optional[dict],
        lease: Optional[int] = None,
    ) -> None:
        entry = dict(entry)
        entry["worker_id"] = worker_id
        entry["lease"] = slot.lease_gen if lease is None else lease
        slot.state = "done"
        slot.lease_worker = ""
        slot.lease_deadline = 0.0
        slot.entry = entry
        slot.record = record
        if self.journal is not None:
            self.journal.append(
                {
                    "event": "entry",
                    "study_id": study.study_id,
                    "index": slot.index,
                    "lease": entry["lease"],
                    "worker_id": worker_id,
                    "entry": entry,
                    "record": record,
                }
            )
        if study.metrics is not None:
            study.metrics.merge_snapshot(metrics)
            study.metrics.counter(
                "repro_serve_records_total", worker=worker_id
            ).inc()
        if self.metrics is not None:
            self.metrics.counter(
                "repro_serve_results_total", worker=worker_id
            ).inc()
        self._check_drained()

    def _check_drained(self) -> None:
        if self._draining and all(s.complete for s in self._studies.values()):
            self.drained.set()

    # -- client API --------------------------------------------------------

    @staticmethod
    def study_id_for(specs: Sequence, options: dict, seed, retry: dict) -> str:
        """Content-derived study id: resubmitting the same study is a
        no-op join, which is what makes client retry after a
        coordinator restart safe."""
        image = json.dumps(
            {
                "specs": [spec_to_json(s) for s in specs],
                "engines": list(options.get("engines", ())),
                "record_timeout": options.get("record_timeout"),
                "event_budget": options.get("event_budget"),
                "lint_gate": options.get("lint_gate", False),
                "seed": seed,
                "retry": retry,
            },
            sort_keys=True,
        )
        return "study-" + hashlib.sha256(image.encode("utf-8")).hexdigest()[:16]

    def _register_study(
        self,
        study_id: str,
        specs: Sequence,
        options: dict,
        seed,
        retry: dict,
        journal: bool = True,
    ) -> _Study:
        engines = tuple(options.get("engines", SIM_MODELS))
        slots = {
            spec.index: _Slot(
                index=spec.index, spec=spec, key=spec_cache_key(spec, engines)
            )
            for spec in specs
        }
        study = _Study(
            study_id=study_id,
            specs=list(specs),
            options=dict(options),
            seed=seed,
            retry=dict(retry),
            slots=slots,
            metrics=obs.MetricsRegistry() if self.collect_metrics else None,
        )
        self._studies[study_id] = study
        if journal and self.journal is not None:
            self.journal.append(
                {
                    "event": "study",
                    "study_id": study_id,
                    "specs": [spec_to_json(s) for s in specs],
                    "options": dict(options),
                    "seed": seed,
                    "retry": dict(retry),
                }
            )
        return study

    def _on_submit(self, message: dict) -> dict:
        if self._draining:
            return {"type": "error", "error": "coordinator is draining"}
        try:
            specs = [spec_from_json(s) for s in message.get("specs", [])]
        except (TypeError, ValueError) as exc:
            return {"type": "error", "error": f"bad spec: {exc}"}
        if not specs:
            return {"type": "error", "error": "submit carries no specs"}
        seed = message.get("seed")
        retry = dict(message.get("retry") or self.retry.to_json())
        options = study_options(
            cache_root=self.cache_root,
            lint_gate=bool(message.get("lint_gate", False)),
            engines=tuple(message.get("engines") or SIM_MODELS),
            record_timeout=message.get("record_timeout"),
            event_budget=message.get("event_budget"),
            metrics=self.collect_metrics,
        )
        study_id = self.study_id_for(specs, options, seed, retry)
        with self._lock:
            study = self._studies.get(study_id)
            if study is None:
                study = self._register_study(study_id, specs, options, seed, retry)
            return {
                "type": "submitted",
                "study_id": study_id,
                "total": len(study.slots),
                "done": study.done,
            }

    def _on_poll(self, message: dict) -> dict:
        study_id = str(message.get("study_id", ""))
        with self._lock:
            study = self._studies.get(study_id)
            if study is None:
                return {"type": "error", "error": f"unknown study {study_id!r}"}
            failed = sum(
                1
                for s in study.slots.values()
                if s.state == "done" and (s.entry or {}).get("status") != "ok"
            )
            return {
                "type": "study-status",
                "study_id": study_id,
                "state": "done" if study.complete else "running",
                "done": study.done,
                "total": len(study.slots),
                "failed": failed,
                "workers": self._live_workers(),
            }

    def _on_fetch(self, message: dict) -> dict:
        study_id = str(message.get("study_id", ""))
        with self._lock:
            study = self._studies.get(study_id)
            if study is None:
                return {"type": "error", "error": f"unknown study {study_id!r}"}
            entries = [
                study.slots[i].entry
                for i in sorted(study.slots)
                if study.slots[i].entry is not None
            ]
            records = [
                study.slots[i].record
                for i in sorted(study.slots)
                if study.slots[i].record is not None
            ]
            manifest = RunManifest(
                seed=study.seed,
                jobs=max(1, len({e.get("worker_id", "") for e in entries})),
                engines=list(study.options.get("engines", ())),
                code_version=code_version(),
                retry_policy=dict(study.retry),
                record_timeout=study.options.get("record_timeout"),
                event_budget=study.options.get("event_budget"),
                entries=[ManifestEntry.from_json(e) for e in entries],
                quarantine_pruned=self.quarantine_pruned,
            )
            if study.metrics is not None:
                snap = study.metrics.snapshot()
                if not snap.is_empty():
                    manifest.metrics = snap.to_json()
            return {
                "type": "study-result",
                "study_id": study_id,
                "complete": study.complete,
                "records": records,
                "manifest": manifest.to_json(),
            }

    def _on_status(self, message: dict) -> dict:
        with self._lock:
            live = set(self._live_workers())
            workers = {
                wid: {"connected": seat.connected, "live": wid in live}
                for wid, seat in sorted(self._workers.items())
            }
            studies = {
                sid: {
                    "done": study.done,
                    "total": len(study.slots),
                    "complete": study.complete,
                    "leased": sum(
                        1 for s in study.slots.values() if s.state == "leased"
                    ),
                }
                for sid, study in sorted(self._studies.items())
            }
            return {
                "type": "status-report",
                "workers": workers,
                "studies": studies,
                "draining": self._draining,
                "quarantine_pruned": self.quarantine_pruned,
            }

    def _on_query(self, message: dict) -> dict:
        """Answer a zero-replay analytics query without scheduling work.

        ``{"type": "query", "kind": "sensitivity", "spec": {...}}``
        builds the spec's trace in-process, records the max-plus
        dependency graph once (:mod:`repro.sensitivity`) and replies
        with the full sensitivity report.  No study, no lease, no
        worker round-trip — the whole answer costs one modeling replay,
        and repeat queries for the same spec (dashboards, polling
        clients) are memoized by spec cache key.
        """
        what = message.get("kind", "sensitivity")
        if what != "sensitivity":
            return {"type": "error", "error": f"unknown query kind {what!r}"}
        try:
            spec = spec_from_json(dict(message.get("spec") or {}))
            key = spec_cache_key(spec)  # resolves the machine: bad names raise
        except (KeyError, TypeError, ValueError) as exc:
            return {"type": "error", "error": f"bad spec: {exc}"}
        with self._lock:
            report = self._query_cache.get(key)
        if report is not None:
            if obs.enabled():
                obs.counter("repro_serve_query_cache_hits_total").inc()
            return {"type": "sensitivity-report", "cached": True, "report": report}
        # Imported here: the sensitivity stack rides on mfact's replay
        # and is only needed by this one message type.
        from repro.machines.presets import get_machine
        from repro.sensitivity.analysis import analyze_trace
        from repro.workloads.suite import build_trace

        try:
            trace = build_trace(spec)
            report = analyze_trace(trace, get_machine(spec.machine)).to_json()
        except (KeyError, TypeError, ValueError) as exc:
            return {"type": "error", "error": f"query failed: {exc}"}
        with self._lock:
            while len(self._query_cache) >= _QUERY_CACHE_MAX:
                self._query_cache.pop(next(iter(self._query_cache)))
            self._query_cache[key] = report
        if obs.enabled():
            obs.counter("repro_serve_queries_total", kind=what).inc()
        return {"type": "sensitivity-report", "cached": False, "report": report}

    # -- tick: expiry + local fallback --------------------------------------

    def _tick(self) -> None:
        with self._lock:
            self._expire_leases()
            self._check_drained()
            fallback_study: Optional[_Study] = None
            if not self._live_workers():
                if (_now() - self._started_at) >= self.fallback_grace:
                    for study in self._studies.values():
                        if study.local_running:
                            continue
                        if any(
                            s.state == "pending" for s in study.slots.values()
                        ):
                            study.local_running = True
                            fallback_study = study
                            break
        if fallback_study is not None:
            runner = threading.Thread(
                target=self._run_local_fallback,
                args=(fallback_study,),
                name=f"repro-serve-local-{fallback_study.study_id}",
                daemon=True,
            )
            runner.start()

    def _run_local_fallback(self, study: _Study) -> None:
        """Drive pending specs in-process while no worker is live.

        Uses the same :func:`drive_spec` path a worker would, so the
        entries and records are indistinguishable from distributed ones
        apart from ``worker_id == "local"``."""
        slot: Optional[_Slot] = None
        try:
            while True:
                with self._lock:
                    if self._live_workers():
                        return  # a worker came back; let it take over
                    slot = next(
                        (
                            study.slots[i]
                            for i in sorted(study.slots)
                            if study.slots[i].state == "pending"
                        ),
                        None,
                    )
                    if slot is None:
                        return
                    slot.state = "leased"
                    slot.lease_worker = "local"
                    slot.lease_deadline = _now() + 86400.0
                    if self.metrics is not None:
                        self.metrics.counter(
                            "repro_serve_local_fallback_total"
                        ).inc()
                entry, record, snap = drive_spec(
                    slot.spec,
                    study.options,
                    seed=study.seed,
                    retry=RetryPolicy.from_json(study.retry),
                    quarantine=self.quarantine,
                    lease=slot.lease_gen,
                )
                entry.worker_id = "local"
                with self._lock:
                    if slot.state == "done":
                        continue  # a worker raced us; theirs won
                    self._complete(
                        study,
                        slot,
                        "local",
                        dataclasses.asdict(entry),
                        record.to_json() if record is not None else None,
                        snap,
                    )
        finally:
            with self._lock:
                study.local_running = False
                if (
                    slot is not None
                    and slot.state == "leased"
                    and slot.lease_worker == "local"
                ):
                    self._reclaim(slot)
