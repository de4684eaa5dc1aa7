#!/usr/bin/env python3
"""Run one workload of the study-pipeline benchmark.

Usage (from the repository root)::

    python3 studybench/run.py --workload study --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first makes that untraced measurement, then installs the
timing shims of :mod:`studybench.tracing`, sets up once more, runs one
pass fewer traced, and reports the per-layer metrics plus
``tracing_overhead_frac``.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full result (every metric, op samples, spans) is
written to ``.bench_results/<workload>-seed<seed>-trace<t>.json`` or
``--out``.  The exit code is 1 when an output check fails and 2 when the
program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):  # run as a script: make ``studybench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from studybench.clock import Timing, normalized, timed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run: at least ``SETUP_MIN``, and more (up to ``SETUP_MAX``)
#: while they have taken under ``SETUP_BUDGET_S`` in total, so a cheap
#: set-up is sampled often enough for a steady median (``setup_s``).
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
#: Untraced passes per ``--trace 0`` run, at least, so every output
#: check compares a pass with a repeat of it.
MIN_REPS = 2


def _use_source_tree() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"studybench: program source not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: metric names, units and bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _rate(reps, seconds=normalized) -> float:
    """Ops completed per second spent in ops."""
    ops = [op for rep in reps for op in rep.ops]
    return sum(op.ok for op in ops) / sum(seconds(op.timing) for op in ops)


def _wall(timing: Timing) -> float:
    return timing.wall_s


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run, trace (optionally) and check one workload.

    Returns the full result: end-to-end metrics of the untraced passes,
    per-layer metrics of the traced passes (when ``trace``), output-check
    errors and the raw op samples.
    """
    from studybench import tracing

    setups = []
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and sum(t.wall_s for t in setups) < SETUP_BUDGET_S
    ):
        timing, state = timed(lambda: workload.setup(seed, workdir))
        setups.append(timing)

    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(workload.rep(state, first_op=sum(len(r.ops) for r in reps)))
    ops = [op for rep in reps for op in rep.ops]
    ok = sum(op.ok for op in ops)
    end_to_end = {
        "ops_per_s": _rate(reps),
        "op_s_p50": _median([normalized(op.timing) for op in ops]),
        "completed_frac": ok / len(ops),
        "setup_s": _median([normalized(t) for t in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra: Dict[str, object] = {
        "passes": len(reps),
        "op_samples": len(ops),
        "op_s": [normalized(op.timing) for op in ops],
        # Raw wall-clock seconds, with the reference samples around each.
        "wall": {
            "ops_per_s": _rate(reps, _wall),
            "op_s_p50": _median([op.timing.wall_s for op in ops]),
            "setup_s": _median([t.wall_s for t in setups]),
            "op_s": [op.timing.wall_s for op in ops],
            "op_reference_s": [op.timing.reference for op in ops],
            "setup_s_samples": [t.wall_s for t in setups],
            "setup_reference_s": [t.reference for t in setups],
        },
    }
    train = [rep.train for rep in reps if rep.train is not None]
    if train:
        extra["train_s"] = _median([normalized(t) for t in train])
        extra["wall"]["train_s"] = _median([t.wall_s for t in train])

    result: Dict[str, object] = {
        "attempted": len(ops),
        "failed": len(ops) - ok,
        "end_to_end": end_to_end,
        "extra": extra,
    }
    checked = list(reps)
    if trace:
        # The first pass of a process runs slower (its heap is still
        # growing), so the traced passes are compared with the untraced
        # passes after the first, and are as many.
        warm = reps[1:]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_state = workload.setup(seed, workdir, tracer)
            traced = []
            for _ in warm:
                first = len(ops) + sum(len(r.ops) for r in traced)
                traced.append(workload.rep(traced_state, tracer, first_op=first))
        checked += traced
        traced_rate = _rate(traced)
        untraced_rate = _rate(warm)
        writes = [rep.cache_writes for rep in traced if rep.cache_writes is not None]
        layers = tracing.layer_metrics(
            tracer,
            [record for rep in reps for record in rep.records],
            _median(writes) if writes else 0.0,
        )
        layers["tracing_overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        result["per_layer"] = layers
        result["layers"] = tracing.layer_table(tracer.spans)
        result["records"] = tracing.record_rows(tracer.spans)
        result["spans"] = tracer.spans
    result["errors"] = workload.check(state, checked)
    return result


def run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    spec: dict,
    out: Optional[Path] = None,
) -> dict:
    """Measure ``workload`` in a private work directory and shape the result.

    ``metrics`` holds exactly the ``end_to_end`` (untraced) or
    ``per_layer`` (traced) metrics that ``spec`` names, with their units.
    """
    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        result = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result["per_layer"] if trace else result["end_to_end"]
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        correct=not result["errors"] and result["failed"] == 0,
        metrics=metrics,
    )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, default=str))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result file")
    args = parser.parse_args(argv)

    spec = load_spec()
    _use_source_tree()
    from studybench.workloads import make_workload

    workload = make_workload(args.workload)
    out = args.out or ROOT / ".bench_results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result = run(workload, args.seed, args.seconds, bool(args.trace), spec, out)
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'op samples':28s} {result['extra']['op_samples']} ({result['extra']['passes']} passes)")
    if "train_s" in result["extra"]:
        print(f"{'train_s':28s} {result['extra']['train_s']:.6g} s")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
