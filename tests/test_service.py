"""Simulation job service: identity, dedup, admission, drain, liveness.

Each test runs a real daemon (asyncio, in a thread) against a real
worker pool and talks to it over its Unix socket — the same path the
CLI verbs use.  Socket paths come from a short ``/tmp`` tempdir because
``AF_UNIX`` paths are capped at ~108 bytes.
"""

import asyncio
import json
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.experiments.run_all import run_all
from repro.faults.plan import ALWAYS, FaultPlan, FaultSpec
from repro.harness.parallel import strip_volatile
from repro.service import ServiceClient, ServiceError, wait_for_daemon
from repro.service.daemon import Daemon, ServiceConfig
from repro.service.scheduler import QUEUE_FILE


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    """Pin the cache salt (propagates to forked workers via the env)."""
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")


@contextmanager
def running_daemon(state_dir=None, **overrides):
    """A live daemon on a short Unix-socket path; drains on exit."""
    own_dir = state_dir is None
    if own_dir:
        state_dir = tempfile.mkdtemp(prefix="svc", dir="/tmp")
    config = ServiceConfig(state_dir=str(state_dir), **overrides)
    daemon = Daemon(config)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run()), daemon=True
    )
    thread.start()
    socket_path = str(config.resolved_socket())
    wait_for_daemon(socket_path=socket_path)
    try:
        yield daemon, socket_path, Path(state_dir)
    finally:
        daemon.stop_threadsafe()
        thread.join(timeout=60)
        assert not thread.is_alive(), "daemon failed to drain"
        if own_dir:
            shutil.rmtree(state_dir, ignore_errors=True)


SWEEP_PARAMS = {
    "benchmarks": ["bzip2"],
    "specs": ["Secure Heap"],
    "seeds": [1],
    "scale": 0.05,
}


class TestEndToEndIdentity:
    def test_run_all_job_matches_direct_run(self, tmp_path):
        """The tentpole's core contract: a job through the daemon writes
        a manifest strip_volatile-identical to a direct run_all."""
        direct = tmp_path / "direct"
        run_all(
            str(direct), scale=0.2, seed=99, jobs=1,
            use_cache=False, quiet=True, names=["table1", "table2"],
        )
        with running_daemon(slots=2) as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit(
                    "run_all",
                    {"names": ["table1", "table2"],
                     "scale": 0.2, "seed": 99},
                )
                final = client.wait(job["id"])
            assert final["state"] == "done"
            service_manifest = json.loads(
                (Path(final["outdir"]) / "manifest.json").read_text()
            )
            direct_manifest = json.loads(
                (direct / "manifest.json").read_text()
            )
            assert strip_volatile(service_manifest) == strip_volatile(
                direct_manifest
            )
            # The artifact files themselves are byte-identical too.
            for name in ("table1.txt", "table2.txt"):
                assert (Path(final["outdir"]) / name).read_bytes() == (
                    direct / name
                ).read_bytes()

    def test_sweep_job_reports_per_spec_statistics(self):
        with running_daemon(slots=2) as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit("sweep", dict(SWEEP_PARAMS))
                final = client.wait(job["id"])
        assert final["state"] == "done"
        stats = final["result"]["specs"]["Secure Heap"]
        assert stats["samples"] and stats["mean"] == pytest.approx(
            stats["mean"]
        )


class TestSingleFlightDedup:
    def test_concurrent_duplicate_submissions_execute_once(self):
        """N clients submitting the same content → one execution per
        unique unit key, everyone gets the result."""
        clients = 4
        with running_daemon(slots=2) as (daemon, socket_path, state):
            results = [None] * clients
            errors = []

            def submit_and_wait(slot):
                try:
                    with ServiceClient(socket_path=socket_path) as client:
                        job = client.submit("sweep", dict(SWEEP_PARAMS))
                        results[slot] = client.wait(job["id"])
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=submit_and_wait, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            # 2 unique units (Plain + Secure Heap), 4 duplicate jobs.
            assert daemon.scheduler.executions_started == 2
            shared = sum(job["dedup_hits"] for job in results)
            cached = sum(
                job["units"].get("cached", 0) for job in results
            )
            # Every duplicate unit was served by attach or by cache.
            assert shared + cached == 2 * (clients - 1)
        states = {job["state"] for job in results}
        assert states == {"done"}
        values = {
            json.dumps(job["result"], sort_keys=True) for job in results
        }
        assert len(values) == 1


class TestAdmissionControl:
    def test_queue_overflow_is_structured_rejection(self):
        with running_daemon(slots=1, max_jobs=1) as (
            daemon, socket_path, state,
        ):
            with ServiceClient(socket_path=socket_path) as client:
                first = client.submit("sweep", dict(SWEEP_PARAMS))
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(
                        "sweep", {**SWEEP_PARAMS, "seeds": [2]}
                    )
                assert excinfo.value.code == "queue_full"
                # The daemon is fine: finish the first job, then the
                # previously rejected submission is admitted.
                client.wait(first["id"])
                second = client.submit(
                    "sweep", {**SWEEP_PARAMS, "seeds": [2]}
                )
                assert client.wait(second["id"])["state"] == "done"

    def test_bad_params_rejected_at_admission(self):
        with running_daemon() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                for kind, params, hint in (
                    ("run_all", {"names": ["nope"]}, "unknown experiment"),
                    ("sweep", {"specs": ["nope"]}, "unknown spec"),
                    ("sweep", {"seeds": [1, 1]}, "unique"),
                    ("nope", {}, "unknown job kind"),
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        client.submit(kind, params)
                    assert excinfo.value.code == "bad_params"
                    assert hint in str(excinfo.value)
                assert daemon.scheduler.jobs == {}


class TestLiveProgress:
    def test_watch_streams_samples_while_job_runs(self):
        """`repro watch` is live telemetry: the first sampler snapshot
        arrives before the job finishes, not as a post-hoc replay."""
        with running_daemon(slots=2) as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit(
                    "sweep",
                    {**SWEEP_PARAMS, "sample_interval": 500},
                )
                first_sample_at = None
                samples = 0
                kinds = set()
                for event in client.watch(job["id"]):
                    if event.get("type") == "done":
                        break
                    kinds.add(event.get("kind"))
                    if event.get("kind") == "sample":
                        samples += 1
                        if first_sample_at is None:
                            first_sample_at = time.time()
                final = client.status(job["id"])
        assert final["state"] == "done"
        assert samples >= 1
        assert first_sample_at is not None
        assert first_sample_at < final["finished"], (
            "sampler snapshots must stream during execution, not after"
        )
        assert {"job.queued", "unit.started", "unit.done", "job.done"} <= kinds

    def test_sample_events_carry_cell_identity_and_counters(self):
        with running_daemon() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit(
                    "sweep", {**SWEEP_PARAMS, "sample_interval": 500}
                )
                sample = None
                for event in client.watch(job["id"]):
                    if sample is None and event.get("kind") == "sample":
                        sample = event
        assert sample is not None
        assert sample["uid"].startswith("bzip2/")
        assert sample["cycle"] > 0 and "ipc" in sample


class TestPriorityScheduling:
    def test_high_priority_overtakes_queued_low(self):
        with running_daemon(slots=1) as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                low = client.submit(
                    "sweep",
                    {**SWEEP_PARAMS, "seeds": [1, 2]},
                    priority="low",
                )
                high = client.submit(
                    "sweep",
                    {
                        "benchmarks": ["sjeng"],
                        "specs": ["Secure Heap"],
                        "seeds": [3],
                        "scale": 0.05,
                    },
                    priority="high",
                )
                high_final = client.wait(high["id"])
                low_final = client.wait(low["id"])
        assert high_final["state"] == "done"
        assert low_final["state"] == "done"
        assert high_final["finished"] < low_final["finished"]


class TestFaultedJobs:
    def test_injected_crash_quarantines_and_fails_sweep_job(
        self, tmp_path, monkeypatch
    ):
        """PR4's resilience layer applies per job: an always-crashing
        cell retries, quarantines, and fails only its own job."""
        uid = "bzip2/Secure Heap/1"
        plan = FaultPlan(seed=1)
        plan.faults[uid] = FaultSpec(kind="crash", fail_attempts=ALWAYS)
        plan_path = plan.write(tmp_path / "plan.json")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))
        with running_daemon(retries=1, backoff=0.05) as (
            daemon, socket_path, state,
        ):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit("sweep", dict(SWEEP_PARAMS))
                kinds = []
                for event in client.watch(job["id"]):
                    if event.get("type") == "done":
                        break
                    kinds.append(event.get("kind"))
                final = client.status(job["id"])
                # The daemon survives and still serves other jobs.
                monkeypatch.delenv("REPRO_FAULT_PLAN")
                healthy = client.submit(
                    "sweep", {**SWEEP_PARAMS, "seeds": [2]}
                )
                assert client.wait(healthy["id"])["state"] == "done"
        assert final["state"] == "failed"
        assert final["error"]["type"] == "SweepError"
        assert uid in final["error"]["message"]
        assert "fault.crash" in kinds
        assert "fault.retry" in kinds
        assert "fault.quarantine" in kinds

    def test_run_all_job_counts_faults_like_direct_cli(
        self, tmp_path, monkeypatch
    ):
        """Under a retry budget a run_all job's manifest carries the
        ``fault`` section a CLI run_all with that budget writes."""
        plan = FaultPlan(seed=1)
        plan.faults["table2"] = FaultSpec(kind="crash", fail_attempts=1)
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", str(plan.write(tmp_path / "plan.json"))
        )
        params = {"names": ["table1", "table2"], "scale": 0.05, "seed": 99}
        direct = run_all(
            str(tmp_path / "direct"), retries=1, backoff=0.05,
            use_cache=False, quiet=True, **params,
        )
        cli = json.loads((direct / "manifest.json").read_text())["fault"]
        with running_daemon(retries=1, backoff=0.05) as (
            daemon, socket_path, state,
        ):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit(
                    "run_all", {**params, "outdir": str(tmp_path / "job")}
                )
                final = client.wait(job["id"])
        fault = final["result"]["manifest"]["fault"]
        assert fault == cli
        assert (fault["crashes"], fault["retries"]) == (1, 1)

    def test_run_all_job_degrades_like_direct_cli(self, monkeypatch):
        """run_all jobs mirror CLI semantics: a failed experiment lands
        as a structured manifest error, the job still completes."""
        from repro.experiments import run_all as driver

        monkeypatch.setattr(
            driver,
            "EXPERIMENT_SCALES",
            {"table1": None, "_selftest": None},
        )
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        with running_daemon() as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit("run_all", {"scale": 0.2})
                final = client.wait(job["id"])
        assert final["state"] == "done"  # degraded, not failed
        assert final["failures"] == 1
        manifest = final["result"]["manifest"]
        assert manifest["experiments"]["_selftest"]["status"] == "error"
        assert manifest["experiments"]["table1"]["status"] == "ok"
        assert "_selftest" in manifest["quarantine"]


class TestDrainAndRestart:
    def test_sigterm_drain_persists_queue_and_restart_resumes(self):
        state_dir = tempfile.mkdtemp(prefix="svc", dir="/tmp")
        try:
            params = {
                "benchmarks": ["bzip2", "sjeng"],
                "specs": ["Secure Heap"],
                "seeds": [1, 2],
                "scale": 0.3,
            }
            with running_daemon(state_dir=state_dir, slots=2) as (
                daemon, socket_path, state,
            ):
                with ServiceClient(socket_path=socket_path) as client:
                    # Drain immediately: the two in-flight units finish
                    # inside the grace period (and land in the cache);
                    # the queued rest must persist.
                    job = client.submit("sweep", params)
                    job_id = job["id"]
            # Drained: the open job is persisted, the socket is gone.
            queue_file = Path(state_dir) / QUEUE_FILE
            assert queue_file.exists()
            persisted = json.loads(queue_file.read_text())
            assert [record["id"] for record in persisted["jobs"]] == [job_id]
            assert not Path(socket_path).exists()

            with running_daemon(state_dir=state_dir, slots=2) as (
                daemon2, socket_path2, state2,
            ):
                with ServiceClient(socket_path=socket_path2) as client:
                    listing = client.jobs()
                    assert [job["id"] for job in listing] == [job_id]
                    final = client.wait(job_id, poll=0.3)
            assert final["state"] == "done"
            assert final["result"]["specs"]["Secure Heap"]["samples"]
            # Zero completed units were lost: whatever finished under
            # daemon #1 came back as cache hits, not re-executions.
            total_units = final["units"]["total"]
            assert total_units == 8
            executed = daemon2.scheduler.executions_started
            cached = final["units"].get("cached", 0)
            assert executed + cached == total_units
            assert cached >= 1, "drain must preserve completed units"
            # The restored job completed, so daemon #2's own drain
            # persisted an empty queue.
            assert json.loads(queue_file.read_text())["jobs"] == []
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    def test_draining_daemon_rejects_submissions(self):
        with running_daemon() as (daemon, socket_path, state):
            daemon.scheduler.draining = True
            with ServiceClient(socket_path=socket_path) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("sweep", dict(SWEEP_PARAMS))
                assert excinfo.value.code == "draining"
            daemon.scheduler.draining = False
