"""Smoke tests for the study-pipeline benchmark, on tiny inputs.

Run from the repository root::

    python3 -m pytest studybench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.workloads.suite import mini_corpus_specs  # noqa: E402
from studybench import run as bench_run  # noqa: E402
from studybench import tracing  # noqa: E402
from studybench.workloads import DesignGrid, Study, Triage  # noqa: E402

SPEC = bench_run.load_spec()


def _tiny_specs(seed):
    return mini_corpus_specs(3, seed=seed, nranks=4)


TINY = {
    "study": lambda: Study(specs=_tiny_specs, indices=(0, 1, 2)),
    "triage": lambda: Triage(specs=_tiny_specs, indices=(0, 1, 2), train_count=16),
    "design_grid": lambda: DesignGrid(specs=_tiny_specs, indices=(0, 2)),
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    out = tmp_path / "result.json"
    result = bench_run.run(TINY[name](), seed=3, seconds=0.0, trace=bool(trace), spec=SPEC, out=out)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    for name_ in ("ops_per_s", "op_s_p50", "setup_s", "peak_rss_mb"):
        assert result["end_to_end"][name_] > 0
    assert out.is_file()


def test_layers_do_work_where_predicted(tmp_path):
    result = bench_run.run(TINY["study"](), seed=3, seconds=0.0, trace=True, spec=SPEC)
    layers = result["per_layer"]
    for name in ("workloads.build_s", "mfact.replay_s", "sensitivity.record_s", "sim.packet-flow_s"):
        assert layers[name] > 0, name
    assert layers["core.cache_writes"] == 2.0  # one record entry + one spec alias
    assert 0.0 < layers["core.span_coverage"] <= 1.0
    assert layers["stats.mccv_s"] == 0.0  # no classifier on the study path


def test_shims_are_restored():
    before = tracing.shim_targets()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            during = tracing.shim_targets()
            assert all(during[name] is not before[name] for name in before)
            raise RuntimeError("abort the traced pass")
    after = tracing.shim_targets()
    assert all(after[name] is before[name] for name in before)


def test_shims_restored_after_traced_run():
    before = tracing.shim_targets()
    bench_run.run(TINY["design_grid"](), seed=5, seconds=0.0, trace=True, spec=SPEC)
    after = tracing.shim_targets()
    assert all(after[name] is before[name] for name in before)


def test_failed_check_makes_run_incorrect(monkeypatch):
    workload = TINY["design_grid"]()
    monkeypatch.setattr(workload, "check", lambda state, reps: ["forced mismatch"])
    result = bench_run.run(workload, seed=5, seconds=0.0, trace=False, spec=SPEC)
    assert result["correct"] is False
