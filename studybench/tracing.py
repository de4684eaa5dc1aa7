"""Timing shims for the traced run, and the per-layer numbers they yield.

The traced pass wraps each layer's public entry points *at the names
their callers look them up with* (a module attribute, or a method on a
class) and restores the original objects afterwards.  Nothing in the
program changes: the shims live here, and the untraced pass never sees
them.

Every call through a shim records one span ``[name, start, end, parent,
op, attrs]`` in memory; the spans are written out with the result file
when the run ends.  A span's *self time* is its duration minus that of
its direct children.  Counts (trace ops, replay configurations, tape
nodes, engine events, refusals) are read from return values and stored
as span attributes, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Tracer",
    "SHIM_NAMES",
    "installed",
    "shim_targets",
    "layer_metrics",
    "record_rows",
    "self_times",
]

# Span record layout (a list, so the file stays compact).
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder for one traced pass (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        self.graphs: List[object] = []  # recorded DependencyGraphs, for tape depth
        self.active = True

    @contextmanager
    def paused(self):
        """Shims call straight through inside this block (input preparation
        that is not the measured path)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @property
    def current(self) -> Optional[list]:
        return self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, dict(attrs)]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()


# -- counters read from return values ----------------------------------------


def _trace_ops(trace) -> int:
    return sum(len(stream) for stream in trace.ranks)


def _count_features(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["ops"] = _trace_ops(args[0])


def _count_model(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["ops"] = _trace_ops(args[0])
    span[ATTRS]["configs"] = int(getattr(result.total_time, "size", 1))


def _count_graph(span, args, kwargs, result, tracer) -> None:
    graph = result[0]
    span[ATTRS]["nodes"] = graph.n_nodes
    tracer.graphs.append(graph)


def _count_evaluate(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["configs"] = span[ATTRS].get("configs", 0) + int(result.size)


def _count_record(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["record"] = result.name


def _count_sim(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["events"] = int(result.events)


def _count_cv(span, args, kwargs, result, tracer) -> None:
    span[ATTRS]["success_rate"] = float(result.success_rate)


def _sim_name(args, kwargs) -> str:
    model = kwargs.get("model", args[2] if len(args) > 2 else "packet-flow")
    return f"sim.{model}"


# -- the shim table ----------------------------------------------------------
#
# (module, attribute, span name or name function, counter).  A dotted
# attribute ``Class.method`` patches the method on the class.  An entry
# whose attribute names a class (``LogicalClockReplay``) is replaced by a
# subclass whose ``run`` is timed, so only that module's callers see it.

_FUNCTIONS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.core.pipeline", "model_trace", "mfact.replay", _count_model),
    ("repro.core.pipeline", "extract_features", "trace.features", _count_features),
    ("repro.core.pipeline", "record_graph", "sensitivity.record", _count_graph),
    ("repro.core.pipeline", "analyze_graph", "sensitivity.solve", None),
    ("repro.core.pipeline", "ReplayShared", "sim.prep", None),
    ("repro.core.pipeline", "simulate_trace", _sim_name, _count_sim),
    ("repro.core.executor", "measure_trace", "core.record", _count_record),
    ("repro.workloads.suite", "build_trace", "workloads.build", None),
    ("repro.workloads.suite", "synthesize_ground_truth", "workloads.synthesis", None),
    ("repro.core.enhanced_mfact", "monte_carlo_cv", "stats.mccv", _count_cv),
    ("repro.core.enhanced_mfact", "stepwise_forward", "stats.stepwise", None),
    ("repro.core.enhanced_mfact", "model_trace", "mfact.replay", _count_model),
    ("repro.core.enhanced_mfact", "extract_features", "trace.features", _count_features),
    ("repro.sensitivity.analysis", "record_graph", "sensitivity.record", _count_graph),
    ("repro.sensitivity.analysis", "analyze_graph", "sensitivity.solve", None),
    ("repro.sensitivity.graph", "DependencyGraph.evaluate", "sensitivity.solve", _count_evaluate),
)

_REPLAY_CLASSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.suite", "LogicalClockReplay", "workloads.calibration"),
    ("repro.mfact.whatif", "LogicalClockReplay", "mfact.replay"),
)

#: Every name the traced pass replaces, as ``module:attribute``.
SHIM_NAMES: Tuple[str, ...] = tuple(
    f"{module}:{attr}" for module, attr, _, _ in _FUNCTIONS
) + tuple(f"{module}:{attr}" for module, attr, _ in _REPLAY_CLASSES)


def _resolve(module: str, attr: str) -> Tuple[object, str]:
    """(owner object, attribute name) for ``module:attr`` / ``Class.method``."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def shim_targets() -> Dict[str, object]:
    """The object currently bound at every shimmed name (``vars`` lookup,
    so a method reads back as the plain function stored on the class)."""
    out = {}
    for name in SHIM_NAMES:
        module, attr = name.split(":")
        owner, leaf = _resolve(module, attr)
        out[name] = vars(owner)[leaf]
    return out


def _function_shim(tracer: Tracer, fn, span_name, count):
    def shim(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        name = span_name(args, kwargs) if callable(span_name) else span_name
        current = tracer.current
        if current is not None and current[NAME] == name:
            # Same layer calling itself (analyze_graph -> evaluate): one span.
            result = fn(*args, **kwargs)
            if count is not None:
                count(current, args, kwargs, result, tracer)
            return result
        with tracer.span(name) as span:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ATTRS]["error"] = type(exc).__name__
                raise
        if count is not None:
            count(span, args, kwargs, result, tracer)
        return result

    # ``updated=()``: some shimmed names are classes (ReplayShared), whose
    # namespace must not be copied onto the wrapper function.
    return functools.update_wrapper(shim, fn, updated=())


def _replay_class_shim(tracer: Tracer, cls, span_name: str):
    original_run = cls.run

    def run(self):
        if not tracer.active:
            return original_run(self)
        with tracer.span(span_name, configs=len(self.grid), ops=_trace_ops(self.trace)):
            return original_run(self)

    return type(cls.__name__, (cls,), {"run": run, "__module__": cls.__module__})


@contextmanager
def installed(tracer: Tracer):
    """Install every shim for the duration of the block, then restore."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for module, attr, span_name, count in _FUNCTIONS:
            owner, leaf = _resolve(module, attr)
            original = vars(owner)[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _function_shim(tracer, original, span_name, count))
        for module, attr, span_name in _REPLAY_CLASSES:
            owner, leaf = _resolve(module, attr)
            original = vars(owner)[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _replay_class_shim(tracer, original, span_name))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# -- aggregation -------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Per-span self time: duration minus the direct children's."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def tape_depth(graph) -> int:
    """Longest chain of tape nodes (edges point to earlier nodes)."""
    starts = graph.starts.tolist()
    pred = graph.pred.tolist()
    depth = [0] * graph.n_nodes
    for node in range(graph.n_nodes):
        best = 0
        for j in range(starts[node], starts[node + 1]):
            p = pred[j]
            if p >= 0 and depth[p] + 1 > best:
                best = depth[p] + 1
        depth[node] = best
    return max(depth, default=0)


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def record_rows(spans: Sequence[list]) -> List[dict]:
    """One row per measured record: wall, coverage and the ``sim.prep``
    (``ReplayShared``) share, from the ``core.record`` spans."""
    selfs = self_times(spans)
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(i)
    rows = []
    for i, span in enumerate(spans):
        if span[NAME] != "core.record":
            continue
        wall = span[END] - span[START]
        prep = sum(
            spans[c][END] - spans[c][START]
            for c in children.get(i, [])
            if spans[c][NAME] == "sim.prep"
        )
        rows.append(
            {
                "record": span[ATTRS].get("record", ""),
                "op": span[OP],
                "wall_s": wall,
                "unattributed_s": selfs[i],
                "coverage": 1.0 - selfs[i] / wall if wall > 0 else 1.0,
                "replay_shared_share": prep / wall if wall > 0 else 0.0,
            }
        )
    return rows


SIM_ENGINES = ("packet", "flow", "packet-flow")

#: Per-layer time metric -> span name.  Each is the mean self time per call.
TIME_METRICS = {
    "workloads.build_s": "workloads.build",
    "workloads.calibration_s": "workloads.calibration",
    "workloads.synthesis_s": "workloads.synthesis",
    "trace.features_s": "trace.features",
    "mfact.replay_s": "mfact.replay",
    "sensitivity.record_s": "sensitivity.record",
    "sensitivity.solve_s": "sensitivity.solve",
    "sim.prep_s": "sim.prep",
    **{f"sim.{engine}_s": f"sim.{engine}" for engine in SIM_ENGINES},
    "stats.mccv_s": "stats.mccv",
    "stats.stepwise_s": "stats.stepwise",
    "core.executor_s": "core.executor",
    "core.unattributed_s": "core.record",
}


def layer_metrics(tracer: Tracer, records: Sequence, cache_writes: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass (0 where a layer idles).

    ``records`` are the pass's :class:`StudyRecord` objects (the Fig. 1
    cost ratios come from their tool walltimes); ``cache_writes`` is
    files written to the record cache per record.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def calls(name: str) -> List[int]:
        return by_name.get(name, [])

    out: Dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = _mean([selfs[i] for i in calls(name)])
    out["core.record_s"] = _mean([spans[i][END] - spans[i][START] for i in calls("core.record")])
    rows = record_rows(spans)
    out["core.span_coverage"] = (
        float(statistics.median(r["coverage"] for r in rows)) if rows else 0.0
    )
    out["core.cache_writes"] = float(cache_writes)

    out["trace.ops"] = _mean([spans[i][ATTRS]["ops"] for i in calls("trace.features")])
    replays = [i for i in calls("mfact.replay") if "configs" in spans[i][ATTRS]]
    replay_ops = sum(spans[i][ATTRS]["ops"] for i in replays)
    out["mfact.us_per_op"] = (
        1e6 * sum(selfs[i] for i in replays) / replay_ops if replay_ops else 0.0
    )
    out["mfact.configs"] = _mean([spans[i][ATTRS]["configs"] for i in replays])

    out["sensitivity.tape_nodes"] = _mean(
        [spans[i][ATTRS]["nodes"] for i in calls("sensitivity.record")]
    )
    out["sensitivity.tape_depth"] = _mean([tape_depth(g) for g in tracer.graphs])

    n_records = len(calls("core.record"))
    refusals = 0
    for engine in SIM_ENGINES:
        runs = calls(f"sim.{engine}")
        out[f"sim.{engine}_events"] = _mean(
            [spans[i][ATTRS]["events"] for i in runs if "events" in spans[i][ATTRS]]
        )
        refusals += sum(
            1 for i in runs if spans[i][ATTRS].get("error") == "UnsupportedTraceError"
        )
        ratios = [
            r.sims[engine].walltime / r.mfact.walltime
            for r in records
            if engine in r.sims and r.sims[engine].completed and r.mfact.walltime > 0
        ]
        out[f"sim.{engine}_vs_mfact"] = float(statistics.median(ratios)) if ratios else 0.0
    out["sim.unsupported"] = refusals / n_records if n_records else 0.0

    cv = [spans[i][ATTRS]["success_rate"] for i in calls("stats.mccv")]
    out["stats.cv_success_rate"] = cv[-1] if cv else 0.0
    return out


def layer_table(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """``{span name: {calls, self_s, total_s}}`` over a whole pass."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += span[END] - span[START]
    return table
