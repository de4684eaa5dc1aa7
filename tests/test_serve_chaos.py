"""Multi-process chaos suite for the distributed study service.

Each scenario runs a real coordinator and two real worker processes
(via ``python -m repro.serve.cli``), injects one network/process fault
through a :class:`~repro.util.faults.FaultPlan`, and asserts the two
invariants the service exists to provide:

* the distributed study's canonical records are **byte-identical** to
  a ``jobs=1`` serial run of the same specs, and
* every spec completed **exactly once** per the fetched manifest — no
  spec lost to a dead worker, none double-recorded by a resend.

Fault coverage: worker SIGKILL mid-record (lease reclaim), connection
drop on result delivery (outbox resend + dedup), partition at connect
time (seeded reconnect backoff), slow sockets (timeouts hold), a
coordinator SIGKILL + restart (journal replay), and a drain reply
held back while the coordinator process winds down.  ``make chaos-serve``
runs exactly this file.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.executor import execute_study
from repro.serve.client import ServeClient
from repro.serve.protocol import parse_address
from repro.util.faults import FaultPlan, FaultSpec
from repro.workloads.suite import mini_corpus_specs

SEED = 47
N = 4
REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def specs():
    return mini_corpus_specs(N, seed=SEED, nranks=4)


@pytest.fixture(scope="module")
def serial_canonical(specs, tmp_path_factory):
    root = tmp_path_factory.mktemp("serial") / "records"
    run = execute_study(specs, jobs=1, seed=SEED, cache_root=root)
    return json.dumps(
        [r.to_json(canonical=True) for r in run.records], sort_keys=True
    )


def base_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_SERVE_WORKER", None)
    return env


def spawn_coordinator(tmp_path, *, port=0, grace=60.0, lease_timeout=1.0):
    endpoint_file = tmp_path / "endpoint"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.cli", "serve",
            "--port", str(port),
            "--cache-root", str(tmp_path / "coord-cache"),
            "--journal", str(tmp_path / "journal.jsonl"),
            "--lease-timeout", str(lease_timeout),
            "--grace", str(grace),
            "--endpoint-file", str(endpoint_file),
        ],
        env=base_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if endpoint_file.is_file():
            text = endpoint_file.read_text().strip()
            if text:
                return proc, parse_address(text)
        if proc.poll() is not None:
            raise AssertionError(
                f"coordinator died at startup: {proc.stderr.read().decode()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("coordinator never wrote its endpoint file")


def spawn_worker(tmp_path, address, index, plan_path=None, reconnect_attempts=40):
    env = base_env()
    if plan_path is not None:
        env["REPRO_FAULT_PLAN"] = str(plan_path)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.cli", "worker",
            "--connect", f"{address[0]}:{address[1]}",
            "--id", f"w{index}",
            "--index", str(index),
            "--cache-root", str(tmp_path / f"worker-cache-{index}"),
            "--seed", str(SEED),
            "--reconnect-attempts", str(reconnect_attempts),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def reap(*procs, timeout=30.0):
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


def kill_hard(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


def assert_exactly_once_and_identical(result, serial_canonical):
    got = json.dumps(
        [r.to_json(canonical=True) for r in result.records], sort_keys=True
    )
    assert got == serial_canonical, "distributed records differ from serial"
    indices = [e.spec_index for e in result.manifest.entries]
    assert sorted(indices) == list(range(N)), (
        f"specs lost or duplicated: {indices}"
    )
    assert all(e.status == "ok" for e in result.manifest.entries)


def run_scenario(tmp_path, serial_canonical, specs, plan=None, wait=120.0):
    """One coordinator + two workers (fault plan applied to workers)."""
    plan_path = plan.write(tmp_path / "fault_plan.json") if plan else None
    coordinator, address = spawn_coordinator(tmp_path)
    workers = [
        spawn_worker(tmp_path, address, 0, plan_path),
        spawn_worker(tmp_path, address, 1, plan_path),
    ]
    try:
        client = ServeClient(address)
        study_id = client.submit(specs, seed=SEED)
        client.wait(study_id, timeout=wait)
        result = client.result(study_id)
        assert_exactly_once_and_identical(result, serial_canonical)
        client.drain()
        reap(*workers)
        reap(coordinator)
        return result
    finally:
        kill_hard(coordinator, *workers)


class TestWorkerSigkill:
    def test_killed_worker_lease_is_reclaimed(
        self, specs, serial_canonical, tmp_path
    ):
        # Whichever worker leases spec 2 first is SIGKILLed mid-record;
        # the survivor picks the spec back up at lease generation 1.
        plan = FaultPlan(
            seed=SEED,
            faults=(FaultSpec(index=2, kind="kill-worker", fail_attempts=1),),
        )
        result = run_scenario(tmp_path, serial_canonical, specs, plan)
        entries = {e.spec_index: e for e in result.manifest.entries}
        assert entries[2].lease >= 1, "reclaim did not bump the lease"
        summary = result.manifest.to_json()["summary"]
        assert summary["leases_reclaimed"] >= 1


class TestConnectionDrop:
    def test_dropped_result_is_resent_not_lost(
        self, specs, serial_canonical, tmp_path
    ):
        # Worker 1's first two connection generations drop every
        # result send; the outbox resends after reconnecting.
        plan = FaultPlan(
            seed=SEED,
            faults=(
                FaultSpec(
                    index=1, kind="conn-drop", engine="result", fail_attempts=2
                ),
            ),
        )
        run_scenario(tmp_path, serial_canonical, specs, plan)


class TestPartition:
    def test_partitioned_worker_backs_off_then_joins(
        self, specs, serial_canonical, tmp_path
    ):
        # Worker 0's first two connect attempts are refused (seeded
        # backoff between them); worker 1 carries the early load.
        plan = FaultPlan(
            seed=SEED,
            faults=(FaultSpec(index=0, kind="partition", fail_attempts=3),),
        )
        run_scenario(tmp_path, serial_canonical, specs, plan)


class TestSlowSocket:
    def test_slow_sends_complete_within_timeouts(
        self, specs, serial_canonical, tmp_path
    ):
        plan = FaultPlan(
            seed=SEED,
            faults=(
                FaultSpec(
                    index=1, kind="slow-socket", fail_attempts=999, delay=0.05
                ),
            ),
        )
        run_scenario(tmp_path, serial_canonical, specs, plan)


#: Runs ``repro.serve.cli serve`` with the drain acknowledgement held
#: back, so the coordinator process is told to wind down while that
#: reply is still unsent.
_SLOW_DRAIN_ACK = """
import sys, time
from repro.serve import protocol
from repro.serve.cli import main
send = protocol.send_frame
def held_back(sock, message):
    if message.get("type") == "ack" and message.get("draining"):
        time.sleep(0.5)
    send(sock, message)
protocol.send_frame = held_back
sys.exit(main(sys.argv[1:]))
"""


class TestDrainReply:
    def test_drain_is_acknowledged_before_the_coordinator_exits(self, tmp_path):
        # With nothing submitted, the drain request itself finishes the
        # drain; the process must still answer it before exiting.
        endpoint_file = tmp_path / "endpoint"
        proc = subprocess.Popen(
            [
                sys.executable, "-c", _SLOW_DRAIN_ACK,
                "serve", "--port", "0", "--endpoint-file", str(endpoint_file),
            ],
            env=base_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not (endpoint_file.is_file() and endpoint_file.read_text().strip()):
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "no endpoint file"
                time.sleep(0.05)
            address = parse_address(endpoint_file.read_text().strip())
            assert ServeClient(address).drain() == {"type": "ack", "draining": True}
            assert proc.wait(timeout=30.0) == 0
        finally:
            kill_hard(proc)


class TestCoordinatorRestart:
    def test_sigkill_and_restart_resumes_from_journal(
        self, specs, serial_canonical, tmp_path
    ):
        coordinator, address = spawn_coordinator(tmp_path)
        workers = [
            spawn_worker(tmp_path, address, 0),
            spawn_worker(tmp_path, address, 1),
        ]
        replacement = None
        try:
            client = ServeClient(address)
            study_id = client.submit(specs, seed=SEED)

            # Let at least one spec finish, then SIGKILL the
            # coordinator mid-study (journal has study + some entries).
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                try:
                    if client.poll(study_id)["done"] >= 1:
                        break
                except (ConnectionError, TimeoutError, OSError):
                    pass
                time.sleep(0.05)
            else:
                raise AssertionError("no spec completed before the kill")
            os.kill(coordinator.pid, signal.SIGKILL)
            coordinator.wait(timeout=10.0)

            # Restart on the same port with the same journal; workers
            # reconnect with their seeded backoff, the journal replay
            # restores the study.
            (tmp_path / "endpoint").unlink()
            replacement, readdress = spawn_coordinator(tmp_path, port=address[1])
            assert readdress[1] == address[1]
            client.wait(study_id, timeout=120.0)
            result = client.result(study_id)
            assert_exactly_once_and_identical(result, serial_canonical)
            client.drain()
            reap(*workers)
            reap(replacement)
        finally:
            kill_hard(coordinator, *workers)
            if replacement is not None:
                kill_hard(replacement)
