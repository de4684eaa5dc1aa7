#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

Usage (from the repository root)::

    python3 studybench/compare.py BASE_DIR [CHANGED_DIR]

Each directory holds result files written by ``studybench/run.py``
(``--out``, or ``.bench_results/`` by default).  Files are grouped by
workload; untraced files give the end-to-end metrics named in
``BENCHMARK.json`` (plus ``train_s`` where a workload reports it).

For every workload and metric the table shows each side's median and
quartiles (``statistics.quantiles(values, n=4)``) and its spread, the
quartile distance as a share of the median.  With two sets it also
shows the change of the median in the metric's *worse* direction as a
share of the base median, and ``agree`` when that change is within the
metric's bound.  With one set, ``steady`` marks a spread below a third
of the bound.  The exit code is 1 when any bounded metric disagrees or,
for one set, is not steady; ``setup_s`` is exempt from the spread test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` from untraced result files."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0:
            continue
        metrics = out.setdefault(result["workload"], {})
        for name, value in result["end_to_end"].items():
            metrics.setdefault(name, []).append(float(value))
        if "train_s" in result.get("extra", {}):
            metrics.setdefault("train_s", []).append(float(result["extra"]["train_s"]))
    return out


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as share of median)."""
    median = float(statistics.median(values))
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def worse_shift(base: float, changed: float, better: str) -> float:
    """Relative change of the median in the worse direction (>0 = worse)."""
    if base == 0:
        return 0.0 if changed == base else float("inf")
    delta = (changed - base) / base
    return -delta if better == "higher" else delta


def compare(
    base: Dict[str, Dict[str, List[float]]],
    changed: Optional[Dict[str, Dict[str, List[float]]]],
    spec: dict,
) -> Tuple[List[str], bool]:
    """Render the table; returns (lines, every bounded metric passes)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    lines = []
    for workload in sorted(base):
        lines.append(f"== {workload}")
        for name, values in base[workload].items():
            metric = bounds.get(name)
            med, q1, q3, spread = summary(values)
            row = f"  {name:15s} n={len(values):2d} med={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}"
            if changed is None:
                if metric is not None:
                    steady = name == "setup_s" or spread < metric["bound"] / 3
                    ok &= steady
                    row += f" bound={metric['bound']} {'steady' if steady else 'NOT STEADY'}"
            else:
                other = changed.get(workload, {}).get(name)
                if not other:
                    row += "  (missing in second set)"
                    ok &= metric is None
                else:
                    med2, q1b, q3b, spread2 = summary(other)
                    row += f" | n={len(other):2d} med={med2:.6g} q1={q1b:.6g} q3={q3b:.6g} spread={spread2:.3f}"
                    if metric is not None:
                        shift = worse_shift(med, med2, metric["better"])
                        agree = shift <= metric["bound"]
                        ok &= agree
                        row += f" worse_by={shift:+.3f} bound={metric['bound']} {'agree' if agree else 'DISAGREE'}"
            lines.append(row)
    return lines, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("changed", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    if not base:
        print(f"no untraced result files in {args.base}", file=sys.stderr)
        return 2
    changed = load(args.changed) if args.changed else None
    lines, ok = compare(base, changed, spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
