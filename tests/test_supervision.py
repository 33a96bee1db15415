"""The shared supervision core: retry policy, supervised attempts, chaos identity.

:class:`RetryPolicy` is the one retry/quarantine decision of the sweep
engine, the job service and the fabric, so its answers are pinned as a
table here.  :class:`UnitExecutor` is driven directly (no daemon) to
check that the service's supervised attempts classify crashes,
timeouts and drain aborts the way the engine does.  The chaos identity
checker is fed doctored manifests.
"""

import asyncio
import json
import os
import time

import pytest

from repro.faults import ENV_VAR, FaultPlan
from repro.faults.chaos import check_identity
from repro.harness.parallel import (
    DONE,
    QUARANTINE,
    RETRY,
    RetryPolicy,
    UnitResult,
    WorkUnit,
    backoff_delay,
    execute_units,
)
from repro.service.pool import UnitExecutor


# -- unit targets (run in forked worker processes) --------------------------


def exit_hard(code):
    os._exit(code)


def fail_once(marker):
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first attempt fails")
    return "healed"


def sleep_for(seconds):
    time.sleep(seconds)
    return "woke"


def nested_sweep():
    results = execute_units([unit_of("sleep_for", seconds=0)], jobs=2)
    return results["sleep_for-unit"].value


def unit_of(func, **kwargs):
    return WorkUnit(
        uid=f"{func}-unit",
        module=__name__,
        func=func,
        kwargs=kwargs,
        key_payload={"func": func},
    )


def run_executor(executor, unit, during=None):
    """Run one unit; returns (result, [(kind, info), ...])."""
    events = []

    async def scenario():
        task = asyncio.ensure_future(
            executor.run_unit(
                unit, on_event=lambda kind, info: events.append((kind, info))
            )
        )
        if during is not None:
            await during()
        return await task

    return asyncio.run(scenario()), events


# -- RetryPolicy --------------------------------------------------------------


def failure(error_type="RuntimeError"):
    return UnitResult(
        uid="u",
        ok=False,
        error={"type": error_type, "message": "", "traceback": ""},
    )


@pytest.mark.parametrize(
    "case, result, attempt, draining, answer",
    [
        ("ok", UnitResult(uid="u", ok=True), 1, False, DONE),
        ("failure under budget", failure(), 2, False, RETRY),
        ("failure over budget", failure(), 3, False, QUARANTINE),
        ("aborted", failure("WorkerAborted"), 1, False, DONE),
        ("draining", failure(), 1, True, DONE),
    ],
)
def test_policy_decisions(case, result, attempt, draining, answer):
    policy = RetryPolicy(retries=2, backoff=0.5, retry_seed=9)
    decided, delay = policy.decide(result, attempt, draining)
    assert decided == answer, case
    if answer == RETRY:
        assert delay == backoff_delay(0.5, attempt, "u", 9)
    else:
        assert delay == 0.0


def test_policy_settle_stamps_final_result():
    policy = RetryPolicy(retries=1, backoff=0.0)
    spent = [0.0, 0.0]
    events = []

    def emit(kind, info):
        events.append((kind, info))

    first = failure()
    first.cpu_seconds, first.wall_seconds = 1.0, 2.0
    assert policy.settle(first, 1, spent, emit) == 0.0
    second = failure()
    second.cpu_seconds, second.wall_seconds = 0.5, 0.25
    assert policy.settle(second, 2, spent, emit) is None
    assert second.quarantined and second.attempts == 2
    assert (second.cpu_seconds, second.wall_seconds) == (1.5, 2.25)
    assert [kind for kind, _ in events] == ["fault.retry", "fault.quarantine"]
    assert events[1][1] == {"uid": "u", "attempts": 2, "error": "RuntimeError"}


def test_policy_drain_is_final_and_not_quarantined():
    result = failure()
    assert RetryPolicy(retries=5).settle(
        result, 1, [0.0, 0.0], draining=True
    ) is None
    assert not result.quarantined and result.attempts == 1


# -- UnitExecutor -------------------------------------------------------------


class TestUnitExecutor:
    def test_hard_crash_reports_exit_code(self):
        result, events = run_executor(
            UnitExecutor(), unit_of("exit_hard", code=3)
        )
        assert not result.ok and result.quarantined
        assert result.error["type"] == "WorkerCrash"
        assert "exit code 3" in result.error["message"]
        [crash] = [info for kind, info in events if kind == "fault.crash"]
        assert crash["exit_code"] == 3

    def test_retry_to_success(self, tmp_path):
        executor = UnitExecutor(retries=2, backoff=0.01)
        result, events = run_executor(
            executor, unit_of("fail_once", marker=str(tmp_path / "m"))
        )
        assert result.ok and result.value == "healed"
        assert result.attempts == 2 and not result.quarantined
        assert [kind for kind, _ in events] == ["fault.retry"]

    def test_timeout_leads_to_quarantine(self):
        executor = UnitExecutor(timeout=0.3, retries=1, backoff=0.01)
        result, events = run_executor(
            executor, unit_of("sleep_for", seconds=30)
        )
        assert not result.ok and result.quarantined
        assert result.error["type"] == "WorkerTimeout"
        assert result.attempts == 2
        assert [kind for kind, _ in events] == [
            "fault.timeout", "fault.retry", "fault.timeout",
            "fault.quarantine",
        ]

    def test_drain_aborts_without_retry(self):
        executor = UnitExecutor(retries=3, backoff=0.01)

        async def drain_soon():
            await asyncio.sleep(0.2)
            executor.begin_drain(grace=0.0)

        result, events = run_executor(
            executor, unit_of("sleep_for", seconds=30), during=drain_soon
        )
        assert not result.ok
        assert result.error["type"] == "WorkerAborted"
        assert not result.quarantined
        assert result.attempts == 1
        assert events == []


def test_sweep_nested_in_supervised_worker_under_fault_plan(
    tmp_path, monkeypatch
):
    """A unit that runs its own sweep (defensezoo runs the foundry)
    must not try to spawn from a daemonic supervised worker just
    because a fault plan is active."""
    monkeypatch.setenv(ENV_VAR, str(FaultPlan(seed=1).write(tmp_path / "p")))
    results = execute_units([unit_of("nested_sweep")], jobs=1)
    outcome = results["nested_sweep-unit"]
    assert outcome.ok, outcome.error
    assert outcome.value == "woke"


# -- chaos identity -----------------------------------------------------------


def write_run(outdir, experiments, artifacts, quarantine=None):
    outdir.mkdir(parents=True)
    manifest = {"experiments": experiments, "quarantine": quarantine or {}}
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    for name, text in artifacts.items():
        (outdir / name).write_text(text)
    return outdir


def record(name, rows, seconds):
    return {"status": "ok", "file": f"{name}.txt", "rows": rows,
            "seconds": seconds}


class TestChaosIdentity:
    def test_identical_runs_pass(self, tmp_path):
        base = write_run(
            tmp_path / "base", {"a": record("a", 1, 1.0)}, {"a.txt": "A"}
        )
        chaos = write_run(
            tmp_path / "chaos", {"a": record("a", 1, 9.0)}, {"a.txt": "A"}
        )
        assert check_identity(base, chaos, []) == ([], [], [])

    def test_differing_experiment_reported_once(self, tmp_path):
        base = write_run(
            tmp_path / "base",
            {"a": record("a", 1, 1.0), "b": record("b", 1, 1.0)},
            {"a.txt": "A", "b.txt": "B"},
        )
        chaos = write_run(
            tmp_path / "chaos",
            {"a": record("a", 2, 1.0), "b": record("b", 1, 1.0)},
            {"a.txt": "doctored", "b.txt": "B"},
        )
        _, mismatches, problems = check_identity(base, chaos, [])
        assert mismatches == ["a: manifest record differs"]
        assert problems == []

    def test_artifact_bytes_and_quarantine_plan(self, tmp_path):
        base = write_run(
            tmp_path / "base",
            {"a": record("a", 1, 1.0), "c": record("c", 1, 1.0)},
            {"a.txt": "A", "c.txt": "C"},
        )
        chaos = write_run(
            tmp_path / "chaos",
            {"a": record("a", 1, 1.0), "c": {"status": "failed"}},
            {"a.txt": "changed"},
            quarantine={"c": {"attempts": 3}},
        )
        quarantined, mismatches, problems = check_identity(
            base, chaos, ["d"]
        )
        assert quarantined == ["c"]
        assert mismatches == ["a: artifact bytes differ"]
        assert problems == [
            "c: quarantined but its fault was healable",
            "d: permanently faulted but not quarantined",
        ]
