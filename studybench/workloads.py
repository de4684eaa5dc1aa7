"""The benchmark's three workloads: ``study``, ``triage`` and ``design_grid``.

Each workload is closed-loop and sequential from one process, with one
client and ``jobs=1``: the next op starts only when the previous one
has returned.  A workload builds its inputs from the seed in
:meth:`setup`, runs its ops in :meth:`rep` (one pass over the inputs),
and verifies the outputs of all passes in :meth:`check`.  The program
only ever receives generated specs, traces and records.

Why each workload exists is written down in ``README.md`` beside this
file; the short form is:

* ``study`` — the Section V campaign.  The only workload where trace
  build and the three simulation engines do the work.
* ``triage`` — the Section VI deployment.  Single-config MFACT, the
  sensitivity tape, features and the classifier; no simulation.
* ``design_grid`` — what-if pricing on the default path of
  :func:`~repro.mfact.whatif.explore_design_space`: MFACT at 100
  configurations per replay.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from studybench.clock import Timing, timed

__all__ = ["Op", "Rep", "Study", "Triage", "DesignGrid", "WORKLOADS", "make_workload"]

#: ``study`` slice: corpus indices, one per stratum (see README.md).
#: 203 cmc.64, multi-threaded: packet and flow refuse it.
#: 101 bigfft.64, all-to-all scatter with comm-split: packet-bound, flow refuses.
#: 139 minife.768, halo exchange: build, MFACT, tape, ReplayShared and
#:     all three engines each take a visible share.
STUDY_SLICE: Tuple[int, ...] = (203, 101, 139)

#: Unseen real-corpus traces for ``triage`` and ``design_grid``: shallow,
#: wide tapes (ep.64, is.64; depth <= 14) and deep ones (cg.64, lu.64,
#: nekbone.64; depth 200-930).  An odd count puts the median op on one
#: trace (lu.64), whose time is far from its neighbours'.
TRACE_MIX: Tuple[int, ...] = (0, 24, 53, 69, 219)

#: Labelled training set for ``triage``: this many mini-corpus specs.
TRAIN_COUNT = 16

#: ``design_grid`` axes: 10 latency x 10 bandwidth x 3 compute factors.
GRID_LATENCY = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
GRID_BANDWIDTH = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
GRID_COMPUTE = (1.0, 2.0, 4.0)

#: Relative band within which the design grid's baseline point must
#: match MFACT's own baseline (the sensitivity package's documented 1e-6).
BASELINE_RTOL = 1e-6


@dataclass
class Op:
    timing: Timing
    ok: bool
    output: object = None


@dataclass
class Rep:
    """One pass over a workload's inputs."""

    ops: List[Op]
    summary: object = None  # pass-level output that must repeat exactly
    records: list = field(default_factory=list)
    train: Optional[Timing] = None
    cache_writes: Optional[float] = None


def _span(tracer, name: str, op: Optional[int] = None):
    if tracer is None:
        return nullcontext()
    tracer.op = op
    return tracer.span(name)


def _timed(tracer, name: str, op: Optional[int], call: Callable[[], object]):
    """``(Timing, result)`` of one call, started from a collected heap.

    The full collection runs before the clock starts, so an op never pays
    for garbage its predecessors left behind.
    """
    gc.collect()

    def spanned():
        with _span(tracer, name, op):
            return call()

    return timed(spanned)


def _paused(tracer):
    return tracer.paused() if tracer is not None else nullcontext()


def record_digest(record) -> str:
    """SHA-256 of a record's canonical JSON (walltimes dropped)."""
    text = json.dumps(record.to_json(canonical=True), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _repeats(outputs: Sequence, what: str) -> List[str]:
    """One error line per pass whose output differs from the first pass."""
    return [
        f"{what}: pass {i} differs from pass 0"
        for i, out in enumerate(outputs)
        if out != outputs[0]
    ]


class Study:
    """``execute_study`` over a stratified slice of the real corpus.

    An op is one :class:`StudyRecord` from ``execute_study([spec],
    jobs=1)`` with a fresh, empty record cache per pass, so trace
    build, fingerprinting and cache writes are paid as in a cold study.
    """

    name = "study"

    def __init__(
        self,
        specs: Optional[Callable[[int], Sequence]] = None,
        indices: Sequence[int] = STUDY_SLICE,
    ):
        from repro.workloads.suite import corpus_specs

        self._specs = specs or corpus_specs
        self._indices = tuple(indices)

    def setup(self, seed: int, workdir: Path, tracer=None):
        from repro.core.executor import execute_study
        from repro.workloads.suite import mini_corpus_specs

        specs = self._specs(seed)
        chosen = [specs[i] for i in self._indices]
        # Warm-up record: lazy imports, source hashing for the cache key.
        scratch = Path(tempfile.mkdtemp(dir=workdir))
        try:
            with _paused(tracer):
                execute_study(
                    mini_corpus_specs(1, seed=seed, nranks=4),
                    jobs=1,
                    cache_root=scratch / "records",
                )
        finally:
            shutil.rmtree(scratch)
        return {"seed": seed, "specs": chosen, "workdir": workdir}

    def rep(self, state, tracer=None, first_op: int = 0) -> Rep:
        from repro.core.executor import execute_study

        root = Path(tempfile.mkdtemp(dir=state["workdir"]))
        cache = root / "records"
        ops: List[Op] = []
        records = []
        try:
            for i, spec in enumerate(state["specs"]):
                timing, run = _timed(
                    tracer,
                    "core.executor",
                    first_op + i,
                    lambda: execute_study([spec], jobs=1, cache_root=cache, seed=state["seed"]),
                )
                record = run.records[0] if run.records else None
                digest = record_digest(record) if record else None
                ops.append(Op(timing, record is not None, digest))
                if record is not None:
                    records.append(record)
            writes = sum(
                1
                for path in (cache.iterdir() if cache.is_dir() else ())
                if path.suffix == ".key"
                or (path.suffix == ".json" and path.name != "last_run_manifest.json")
            )
        finally:
            shutil.rmtree(root)
        return Rep(ops=ops, records=records, cache_writes=writes / max(len(ops), 1))

    def check(self, state, reps: Sequence[Rep]) -> List[str]:
        errors = [
            f"record {spec.name} failed"
            for rep in reps
            for spec, op in zip(state["specs"], rep.ops)
            if not op.ok
        ]
        return errors + _repeats([[op.output for op in rep.ops] for rep in reps], "record digests")


def _traces(specs, indices: Sequence[int]):
    from repro.machines.presets import get_machine
    from repro.workloads import suite

    # Looked up on the module at call time, so the traced pass's shim applies.
    return [(suite.build_trace(specs[i]), get_machine(specs[i].machine)) for i in indices]


class Triage:
    """Section VI: train the classifier once, then predict unseen traces.

    Set-up measures a labelled training set with ``execute_study`` on a
    seeded mini-corpus and builds unseen real-corpus traces.  A pass is
    one ``EnhancedMFACT.train`` plus one ``predict_trace`` per unseen
    trace; an op is one prediction.
    """

    name = "triage"

    def __init__(
        self,
        specs: Optional[Callable[[int], Sequence]] = None,
        indices: Sequence[int] = TRACE_MIX,
        train_count: int = TRAIN_COUNT,
    ):
        from repro.workloads.suite import corpus_specs

        self._specs = specs or corpus_specs
        self._indices = tuple(indices)
        self._train_count = train_count

    def setup(self, seed: int, workdir: Path, tracer=None):
        from repro.core.enhanced_mfact import labels
        from repro.core.executor import execute_study
        from repro.workloads.suite import mini_corpus_specs

        # The training set is input data, not the measured path.
        with _paused(tracer):
            run = execute_study(
                mini_corpus_specs(self._train_count, seed=seed), jobs=1, cache_root=None
            )
        if len(run.records) != self._train_count:
            raise RuntimeError(
                f"training set: {len(run.records)} of {self._train_count} records measured"
            )
        if len(set(labels(run.records).tolist())) != 2:
            raise RuntimeError("training set has a single label")
        return {"seed": seed, "records": run.records, "unseen": _traces(self._specs(seed), self._indices)}

    def rep(self, state, tracer=None, first_op: int = 0) -> Rep:
        from repro.core.enhanced_mfact import EnhancedMFACT

        train, model = _timed(
            tracer,
            "enhanced.train",
            None,
            lambda: EnhancedMFACT.train(state["records"], seed=state["seed"]),
        )
        ops: List[Op] = []
        for i, (trace, machine) in enumerate(state["unseen"]):
            timing, verdict = _timed(
                tracer, "enhanced.predict", first_op + i, lambda: model.predict_trace(trace, machine)
            )
            ops.append(Op(timing, True, verdict))
        return Rep(
            ops=ops,
            summary=(model.selected, model.cv.success_rate),
            train=train,
        )

    def check(self, state, reps: Sequence[Rep]) -> List[str]:
        return _repeats([rep.summary for rep in reps], "selected variables / CV rate") + _repeats(
            [[op.output for op in rep.ops] for rep in reps], "verdicts"
        )


class DesignGrid:
    """What-if pricing: one ``explore_design_space`` call per trace.

    The call takes the function's default path (no ``analytic=``), over
    a 10 x 10 x 3 grid: 300 points, one MFACT replay of 100
    configurations per compute factor.
    """

    name = "design_grid"

    def __init__(
        self,
        specs: Optional[Callable[[int], Sequence]] = None,
        indices: Sequence[int] = TRACE_MIX,
    ):
        from repro.workloads.suite import corpus_specs

        self._specs = specs or corpus_specs
        self._indices = tuple(indices)

    def setup(self, seed: int, workdir: Path, tracer=None):
        return {"traces": _traces(self._specs(seed), self._indices)}

    def rep(self, state, tracer=None, first_op: int = 0) -> Rep:
        from repro.mfact.whatif import explore_design_space

        ops: List[Op] = []
        for i, (trace, machine) in enumerate(state["traces"]):
            timing, result = _timed(
                tracer,
                "whatif.explore",
                first_op + i,
                lambda: explore_design_space(
                    trace, machine, GRID_BANDWIDTH, GRID_LATENCY, GRID_COMPUTE
                ),
            )
            output = (result.total_time.tobytes(), result.baseline_time)
            ops.append(Op(timing, True, output))
        return Rep(ops=ops)

    def check(self, state, reps: Sequence[Rep]) -> List[str]:
        from repro.mfact.logical_clock import model_trace

        errors = _repeats([[op.output[0] for op in rep.ops] for rep in reps], "grid rows")
        for (trace, machine), op in zip(state["traces"], reps[0].ops):
            expected = model_trace(trace, machine).baseline_total_time
            got = op.output[1]
            if abs(got - expected) > BASELINE_RTOL * abs(expected):
                errors.append(f"{trace.name}: grid baseline {got!r} != MFACT baseline {expected!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (Study, Triage, DesignGrid)}


def make_workload(name: str):
    """The workload called ``name`` at its benchmark size."""
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
