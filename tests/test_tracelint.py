"""Tests for the tracelint static analyzer (repro.analysis.lint)."""

import hashlib
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Diagnostic, LintReport, Severity, lint_trace
from repro.analysis.lint import LintGateError
from repro.core.pipeline import measure_trace
from repro.machines.presets import get_machine
from repro.sim.mpi_replay import expand_collectives, simulate_trace
from repro.trace.cli import main as trace_cli
from repro.trace.dumpi import write_trace
from repro.trace.events import Op, OpKind
from repro.trace.trace import TraceSet
from repro.workloads.base import ProgramBuilder
from repro.workloads.doe import DOE_APPS, generate_doe
from repro.workloads.npb import NPB_APPS, generate_npb
from repro.workloads.synthesis import (
    DEFECT_KINDS,
    inject_defect,
    synthesize_ground_truth,
)

MACHINE = get_machine("cielito")

#: Structural defects (injectable pre-synthesis) -> the rule that must fire.
STRUCTURAL_DEFECTS = {
    "deadlock": "trace/deadlock",
    "unmatched-send": "trace/unmatched-p2p",
    "unmatched-recv": "trace/unmatched-p2p",
    "byte-mismatch": "trace/byte-asymmetry",
    "lost-wait": "trace/request-discipline",
    "reordered-collectives": "trace/collective-order",
    "root-divergence": "trace/collective-args",
}


def small_trace(app="CG", nranks=8, seed=3):
    gen = generate_npb if app.upper() in NPB_APPS else generate_doe
    return gen(app, nranks, MACHINE, seed=seed, compute_per_iter=1e-4)


class TestCleanTraces:
    @pytest.mark.parametrize("app", sorted(NPB_APPS) + sorted(DOE_APPS))
    def test_every_generator_is_lint_clean(self, app):
        report = lint_trace(small_trace(app))
        assert report.diagnostics == [], report.render()

    def test_stamped_trace_stays_clean(self):
        trace = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        report = lint_trace(trace)
        assert report.diagnostics == [], report.render()
        assert report.exit_code() == 0
        assert report.max_severity is None


class TestDefectInjection:
    @pytest.mark.parametrize("kind", sorted(STRUCTURAL_DEFECTS))
    def test_each_defect_trips_its_rule(self, kind):
        bad = inject_defect(small_trace(), kind, seed=11)
        report = lint_trace(bad)
        fired = {d.rule for d in report.diagnostics}
        assert STRUCTURAL_DEFECTS[kind] in fired, report.render()
        assert report.exit_code() == 2
        assert not report.ok

    @pytest.mark.parametrize("kind", sorted(STRUCTURAL_DEFECTS))
    def test_injection_does_not_mutate_input(self, kind):
        trace = small_trace()
        before = trace.op_count()
        bad = inject_defect(trace, kind, seed=11)
        assert bad is not trace
        assert trace.op_count() == before
        assert lint_trace(trace).diagnostics == []
        assert bad.metadata["injected_defect"] == kind

    def test_time_travel_needs_stamps(self):
        with pytest.raises(ValueError, match="stamped"):
            inject_defect(small_trace(), "time-travel", seed=1)

    def test_time_travel_trips_timestamp_rule(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        fired = {d.rule for d in lint_trace(bad).diagnostics}
        assert "trace/timestamps" in fired

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defect kind"):
            inject_defect(small_trace(), "gremlins", seed=0)

    def test_all_kinds_documented(self):
        assert set(STRUCTURAL_DEFECTS) | {"time-travel"} == set(DEFECT_KINDS)


#: SHA-256 of ``json.dumps(lint_trace(...).to_json(), sort_keys=True)``:
#: the exact messages, op indices and order of every diagnostic.
#: Structural defects on ``small_trace()``, keyed by (kind, seed).
DEFECT_REPORT_SHA256 = {
    ("byte-mismatch", 3): "6ee9c08de5857b6fb7b1137c1ef0b603894a29e0d8d7591b800f0a79966c43e3",
    ("byte-mismatch", 11): "ff5e08968336aa0c7a2e72f70fe17238c393cdad490c1647ffb25cbd36578729",
    ("deadlock", 3): "32b3ae2b6457dddf9d807e3b4c36fbc94cd21cb5d2d876191f58e194c0bd0c55",
    ("deadlock", 11): "67cdc928d4d2355d7b211851e7c852446a50c7c8060a8400c1e2149ad7fff8a9",
    ("lost-wait", 3): "132d661c2dc9871e810ffaa5c4fc17ac49bcf79cbafcc21b77c705f2d04d4b59",
    ("lost-wait", 11): "132d661c2dc9871e810ffaa5c4fc17ac49bcf79cbafcc21b77c705f2d04d4b59",
    ("reordered-collectives", 3): "baedda5a04dee8dd0f808b777fbe37e96bacbdc517bf6a78d0421645546638cb",
    ("reordered-collectives", 11): "21b6c1a114b75a9f4d7c8bab1dc17e448eff8474071ac486677c3e5884a6cf6d",
    ("root-divergence", 3): "a6e3665f514d9c9277bf0459543fba2aba6733e157d547830a9dc96411a0134d",
    ("root-divergence", 11): "6263643199725fefcd2db570e5ea01c3b39b10c5fdf70b83e8724886887afe0f",
    ("unmatched-recv", 3): "939d55d5df7dbcf923dd7f5cfa56e745f8ee925c8b21899d62bebff7c0b47e8c",
    ("unmatched-recv", 11): "bfd9ef01c16529e62e41d789cfccb32e6cb76ae69be0f802b59f20d16f4d2414",
    ("unmatched-send", 3): "f923df66375503ffd2a32b56614362781ad774849d78751f0c4fa28eb6abca56",
    ("unmatched-send", 11): "2a55a83513d3a44b3560cee8f3638ce5133ed5e3c1498d1d08409a61cf32a3ff",
}

#: Clean ``small_trace(app)`` of every generator, keyed by app.
CLEAN_REPORT_SHA256 = {
    "BT": "d3b1d596981ffdc991668815823d3888c3eb15627445b3e9fdf63a9c31c9f60f",
    "CG": "cbfe337a510338df67f943d6004cf4d1e5ee19c35b7f0c21da9ad5e9f7909653",
    "DT": "34e2bb7e06dbdc19e592b2ce4a747eefb9694eb945d602a3aac8c0660171a0c8",
    "EP": "db6a9e7d2852282b8594ecfd2e0abca7b2b8e1af90265b9124f3eeb02708643b",
    "FT": "e63bddcf2231ef2d64413d91ced08724b28c485c3e3005813ff6916854c314d0",
    "IS": "f90bc3ea7a4d101b2635f91fb9f779394bfc37fe8bb984eabcf62a9cde99bb4e",
    "LU": "e56d32112eb777574c8c17b39e3124e4d4921bd8d9282133d2ef5cb01cac973d",
    "MG": "94500b96e899994391c737521f51ef24b352075ba0a09ae8fa155475811b54ff",
    "SP": "e4396b4559c83ebffed8a531ff93c926c9cc143adbd0c9ed6f444a0d5a5fb6c1",
    "AMG": "dd08f7e56dadb307b21ab7f0bf76c06b0cb3f315ba1ba64fd24a117b1c3839a6",
    "BIGFFT": "8cafdbb2c5ccfc69f0f76edd654b0750226533e83977823dabb127759925d667",
    "CMC": "30bcc15210e9090e85b6851bc1a38383524f1e3537c72a41d4e90fdcac794fd9",
    "CNS": "3c7e6d26e199b10d31c9b98abe00f705e46f1e5d0aa985fc9283feeaa03b60eb",
    "CR": "26950bf0e061f77ac92e651d7a17b876f63e6c28095f2f7801633d4c45a6bbde",
    "FB": "3ae031dbc25fe385bd8e47e119db0e1b489f9cd264475bc1638efba906f1349b",
    "LULESH": "5f80d01b9b0cd062f870f500dc48da4263a567775f47aeea2a9e2c4e7e10fe0d",
    "MGPROD": "f779fa44b2804218790ff59b31158c50210bbf5e15db3989ea19e9317b549651",
    "MINIFE": "cf6499a34620e58d378b0369ead253634738f5118e1a84e595b2fd0da3a3bf39",
    "NEKBONE": "4b3060f8c948a1d7a0a62ac22d2357e54265cfeb367178d13ce939ef9334ba51",
}


def report_sha256(trace) -> str:
    text = json.dumps(lint_trace(trace).to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportPins:
    """Byte-exact tracelint output, pinned so a refactor of the rules
    (or of the matching kernel under ``trace/deadlock``) cannot change
    a message, an op index or the diagnostic order unnoticed."""

    @pytest.mark.parametrize("kind, seed", sorted(DEFECT_REPORT_SHA256))
    def test_defect_report_is_pinned(self, kind, seed):
        bad = inject_defect(small_trace(), kind, seed=seed)
        assert report_sha256(bad) == DEFECT_REPORT_SHA256[(kind, seed)], (
            lint_trace(bad).render()
        )

    @pytest.mark.parametrize("app", sorted(CLEAN_REPORT_SHA256))
    def test_clean_report_is_pinned(self, app):
        assert report_sha256(small_trace(app)) == CLEAN_REPORT_SHA256[app]

    def test_pins_cover_every_structural_defect_and_generator(self):
        assert {kind for kind, _ in DEFECT_REPORT_SHA256} == set(STRUCTURAL_DEFECTS)
        assert set(CLEAN_REPORT_SHA256) == set(NPB_APPS) | set(DOE_APPS)


class TestIndividualRules:
    def test_deadlock_reports_wait_for_cycle(self):
        bad = inject_defect(small_trace(), "deadlock", seed=11)
        diags = lint_trace(bad).by_rule("trace/deadlock")
        assert any("cycle" in d.message for d in diags)

    def test_unmatched_tag_mismatch_hint(self):
        # Send on tag 7 answered by a recv posted on tag 8.
        ranks = [
            [Op(OpKind.SEND, peer=1, nbytes=64, tag=7)],
            [Op(OpKind.RECV, peer=0, nbytes=64, tag=8)],
        ]
        trace = TraceSet("t", "T", ranks)
        diags = lint_trace(trace).by_rule("trace/unmatched-p2p")
        assert len(diags) == 2
        assert any("tag/comm mismatch" in d.hint for d in diags)

    def test_invalid_peer(self):
        trace = TraceSet("t", "T", [[Op(OpKind.SEND, peer=5, nbytes=8, tag=1)], []])
        fired = {d.rule for d in lint_trace(trace).diagnostics}
        assert "trace/invalid-peer" in fired

    def test_collective_on_unknown_comm(self):
        trace = TraceSet(
            "t", "T", [[Op(OpKind.BARRIER, comm=9)], [Op(OpKind.BARRIER, comm=9)]]
        )
        diags = lint_trace(trace).by_rule("trace/comm-membership")
        assert diags and all(d.severity == Severity.ERROR for d in diags)

    def test_rooted_collective_root_outside_comm(self):
        comms = {1: (0, 1)}
        ranks = [
            [Op(OpKind.BCAST, peer=2, nbytes=8, comm=1)],
            [Op(OpKind.BCAST, peer=2, nbytes=8, comm=1)],
            [],
        ]
        trace = TraceSet("t", "T", ranks, comms=comms, uses_comm_split=True)
        diags = lint_trace(trace).by_rule("trace/comm-membership")
        assert any("not a member" in d.message for d in diags)

    def test_request_reuse_before_wait(self):
        ranks = [
            [
                Op(OpKind.IRECV, peer=1, nbytes=8, tag=1, req=1),
                Op(OpKind.IRECV, peer=1, nbytes=8, tag=2, req=1),
                Op(OpKind.WAIT, req=1),
                Op(OpKind.WAIT, req=1),
            ],
            [
                Op(OpKind.SEND, peer=0, nbytes=8, tag=1),
                Op(OpKind.SEND, peer=0, nbytes=8, tag=2),
            ],
        ]
        diags = lint_trace(TraceSet("t", "T", ranks)).by_rule("trace/request-discipline")
        assert any("reissued" in d.message for d in diags)

    def test_threads_and_grouping_notes(self):
        trace = small_trace()
        trace.uses_threads = True
        trace.uses_comm_split = True
        report = lint_trace(trace)
        notes = report.by_rule("trace/model-support")
        assert len(notes) == 2
        assert all(d.severity == Severity.NOTE for d in notes)
        assert report.exit_code() == 0  # notes do not fail a lint run

    def test_undeclared_subcommunicator_warns(self):
        trace = small_trace()
        trace.comms[1] = (0, 1)
        trace.uses_comm_split = False
        report = lint_trace(trace)
        warns = report.by_rule("trace/model-support")
        assert warns and warns[0].severity == Severity.WARNING
        assert report.exit_code() == 1

    def test_partial_stamping_detected(self):
        trace = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        trace.ranks[0][0].t_entry = float("nan")
        fired = {d.rule for d in lint_trace(trace).diagnostics}
        assert "trace/timestamps" in fired


class TestReportFormat:
    def test_json_roundtrip_fields(self):
        bad = inject_defect(small_trace(), "unmatched-send", seed=11)
        payload = lint_trace(bad).to_json()
        assert payload["ok"] is False
        assert payload["max_severity"] == "ERROR"
        diag = payload["diagnostics"][0]
        assert set(diag) == {
            "rule", "severity", "message", "rank", "op_index", "location", "hint"
        }

    def test_render_mentions_rule_and_summary(self):
        bad = inject_defect(small_trace(), "unmatched-send", seed=11)
        text = lint_trace(bad).render()
        assert "trace/unmatched-p2p" in text
        assert "error" in text

    def test_clean_report_renders_clean(self):
        assert "clean" in lint_trace(small_trace()).render()


class TestCliLint:
    def _write(self, tmp_path, trace):
        path = tmp_path / "trace.dmp"
        write_trace(trace, path)
        return str(path)

    def test_clean_trace_exits_zero(self, tmp_path, capsys):
        assert trace_cli(["lint", self._write(tmp_path, small_trace())]) == 0
        assert "clean" in capsys.readouterr().out

    def test_defective_trace_exits_two(self, tmp_path, capsys):
        bad = inject_defect(small_trace(), "deadlock", seed=11)
        assert trace_cli(["lint", self._write(tmp_path, bad)]) == 2
        assert "trace/deadlock" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        bad = inject_defect(small_trace(), "byte-mismatch", seed=11)
        assert trace_cli(["lint", "--json", self._write(tmp_path, bad)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_severity"] == "ERROR"

    def test_missing_file_exit_code(self, capsys):
        assert trace_cli(["lint", "/nonexistent/trace.dmp"]) == 1


class TestPipelineGate:
    def test_gate_rejects_defective_trace(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        with pytest.raises(LintGateError) as excinfo:
            measure_trace(bad, lint_gate=True)
        assert excinfo.value.report.exit_code() == 2

    def test_gate_passes_clean_trace(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        record = measure_trace(stamped, lint_gate=True)
        assert record.mfact.completed

    def test_gate_off_by_default(self):
        stamped = synthesize_ground_truth(small_trace(), MACHINE, seed=3)
        bad = inject_defect(stamped, "time-travel", seed=5)
        record = measure_trace(bad)  # no gate: tools still run
        assert record.mfact.completed


class TestAuditDiagnostics:
    def test_findings_share_diagnostic_format(self, fabricate):
        from repro.workloads.audit import audit_report

        lint = audit_report(fabricate(n=30))
        assert isinstance(lint, LintReport)
        assert all(d.rule.startswith("corpus/") for d in lint.diagnostics)
        assert all(isinstance(d, Diagnostic) for d in lint.diagnostics)
        # 30 records cannot satisfy the 235-record corpus checks.
        assert lint.exit_code() == 2
        assert "corpus size" in lint.render()


@st.composite
def collective_programs(draw):
    """A ProgramBuilder filled with a random collective sequence."""
    nranks = draw(st.integers(min_value=2, max_value=6))
    b = ProgramBuilder(nranks, "prop", "prop-trace", ranks_per_node=2)
    kinds = st.sampled_from(
        [
            OpKind.BARRIER,
            OpKind.BCAST,
            OpKind.REDUCE,
            OpKind.ALLREDUCE,
            OpKind.ALLGATHER,
            OpKind.ALLTOALL,
            OpKind.GATHER,
            OpKind.SCATTER,
            OpKind.REDUCE_SCATTER,
        ]
    )
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(kinds)
        nbytes = draw(st.integers(min_value=1, max_value=1 << 16))
        root = draw(st.integers(min_value=0, max_value=nranks - 1))
        if kind == OpKind.BARRIER:
            b.barrier()
        elif kind in (OpKind.BCAST, OpKind.REDUCE, OpKind.GATHER, OpKind.SCATTER):
            b._collective(kind, nbytes, 0, root)
        else:
            b._collective(kind, nbytes, 0)
    return b.build()


class TestExpandCollectivesProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(collective_programs())
    def test_expansion_is_always_lint_clean(self, trace):
        expanded = expand_collectives(trace)
        report = lint_trace(expanded)
        assert report.diagnostics == [], report.render()


class TestLintIsCheap:
    def test_64_rank_lint_beats_flow_replay(self):
        trace = generate_npb("CG", 64, MACHINE, seed=9, compute_per_iter=1e-4)
        synthesize_ground_truth(trace, MACHINE, seed=9)
        t0 = time.perf_counter()
        report = lint_trace(trace)
        lint_time = time.perf_counter() - t0
        assert report.diagnostics == []
        result = simulate_trace(trace, MACHINE, "flow")
        # The acceptance bar is "well under" a flow replay; the margin is
        # usually >10x, asserted loosely to stay robust on slow CI.
        assert lint_time < result.walltime, (lint_time, result.walltime)
