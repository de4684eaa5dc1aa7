#!/usr/bin/env python3
"""Render the per-layer breakdown of traced benchmark result files.

Usage (from the repository root)::

    python3 studybench/report.py .bench_results/*-trace1.json

For each traced result file: self time per span over the traced pass
(calls, self seconds, share of all self time), then the per-layer
metrics, then one row per measured record with its wall time, span
coverage and the ``ReplayShared`` (``sim.prep``) share — the part of a
record that no span inside the program covers.  Untraced files print
their end-to-end metrics only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def render(result: dict) -> List[str]:
    head = (
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    )
    lines = [head]
    for name, value in result["end_to_end"].items():
        lines.append(f"  {name:26s} {value:.6g}")
    if not result["trace"]:
        return lines
    layers = result["layers"]
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    lines.append(f"  {'span':24s} {'calls':>6s} {'self_s':>10s} {'share':>7s}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:24s} {row['calls']:6d} {row['self_s']:10.4f} {row['self_s'] / total:7.1%}"
        )
    lines.append("  per-layer metrics:")
    for name, value in result["per_layer"].items():
        lines.append(f"    {name:26s} {value:.6g}")
    if result.get("records"):
        lines.append(f"  {'record':28s} {'wall_s':>8s} {'coverage':>9s} {'ReplayShared':>13s}")
        for row in result["records"]:
            lines.append(
                f"  {row['record']:28s} {row['wall_s']:8.3f} {row['coverage']:9.2%}"
                f" {row['replay_shared_share']:13.1%}"
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", type=Path, nargs="+")
    args = parser.parse_args(argv)
    for path in args.files:
        print("\n".join(render(json.loads(path.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
