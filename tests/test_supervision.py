"""The shared supervision core: retry policy, supervised attempts, chaos identity.

:class:`RetryPolicy` is the one retry/quarantine decision of the sweep
engine, the job service and the fabric, so its answers are pinned as a
table here.  The runner :func:`run_unit` is driven directly (no
daemon), with a :class:`Drain` as the daemon and the fabric worker
pass it, to check how it classifies crashes, timeouts and drain
aborts.  The chaos
identity checker is fed doctored manifests.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.faults import ENV_VAR, FaultPlan, FaultSpec
from repro.faults.chaos import chaos_record, check_identity, verdict
from repro.harness.parallel import (
    UnitResult,
    WorkUnit,
    backoff_delay,
    execute_units,
)
from repro.harness.supervision import (
    DONE,
    QUARANTINE,
    RETRY,
    Drain,
    RetryPolicy,
    run_unit,
)


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


def report_then_fail_once(marker, steps):
    from repro.harness.parallel import emit_progress

    for step in range(steps):
        emit_progress("step", n=step)
    return fail_once(marker)


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


def run_executor(unit, during=None, **options):
    """Run one unit through :func:`run_unit`; returns (result,
    [(kind, info), ...])."""
    events = []

    async def scenario():
        task = asyncio.ensure_future(
            run_unit(
                unit,
                lambda kind, info: events.append((kind, info)),
                **options,
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
    tally = [0.0, 0.0, 0, 0]
    events = []

    def emit(kind, info):
        events.append((kind, info))

    first = failure("WorkerTimeout")
    first.cpu_seconds, first.wall_seconds = 1.0, 2.0
    assert policy.settle(first, 1, tally, emit) == 0.0
    second = failure()
    second.cpu_seconds, second.wall_seconds = 0.5, 0.25
    assert policy.settle(second, 2, tally, emit) is None
    assert second.quarantined and second.attempts == 2
    assert (second.cpu_seconds, second.wall_seconds) == (1.5, 2.25)
    assert (second.timeouts, second.crashes) == (1, 0)
    assert [kind for kind, _ in events] == ["fault.retry", "fault.quarantine"]
    assert events[1][1] == {"uid": "u", "attempts": 2, "error": "RuntimeError"}


def test_policy_drain_is_final_and_not_quarantined():
    result = failure()
    assert RetryPolicy(retries=5).settle(
        result, 1, [0.0, 0.0, 0, 0], draining=True
    ) is None
    assert not result.quarantined and result.attempts == 1


# -- the runner as the daemon and the fabric worker call it ------------------


class TestUnitExecutor:
    """:func:`run_unit` in its role as the service's unit executor."""

    def test_hard_crash_reports_exit_code(self):
        result, events = run_executor(unit_of("exit_hard", code=3))
        assert not result.ok and result.quarantined
        assert result.error["type"] == "WorkerCrash"
        assert "exit code 3" in result.error["message"]
        [crash] = [info for kind, info in events if kind == "fault.crash"]
        assert crash["exit_code"] == 3
        assert (result.timeouts, result.crashes) == (0, 1)

    def test_retry_to_success(self, tmp_path):
        result, events = run_executor(
            unit_of("fail_once", marker=str(tmp_path / "m")),
            policy=RetryPolicy(retries=2, backoff=0.01),
        )
        assert result.ok and result.value == "healed"
        assert result.attempts == 2 and not result.quarantined
        assert [kind for kind, _ in events] == ["fault.retry"]

    def test_progress_streams_in_order_with_fault_events(self, tmp_path):
        """Each attempt's progress events reach ``on_event`` while it
        runs, ahead of the retry decision that ends it."""
        result, events = run_executor(
            unit_of(
                "report_then_fail_once", marker=str(tmp_path / "m"), steps=2
            ),
            policy=RetryPolicy(retries=1, backoff=0.01),
        )
        assert result.ok and result.attempts == 2
        steps = [("step", {"uid": "report_then_fail_once-unit", "n": n})
                 for n in range(2)]
        assert [event for event in events if event[0] == "step"] == (
            steps + steps
        )
        assert [kind for kind, _ in events] == [
            "step", "step", "fault.retry", "step", "step",
        ]

    def test_timeout_leads_to_quarantine(self):
        result, events = run_executor(
            unit_of("sleep_for", seconds=30),
            timeout=0.3,
            policy=RetryPolicy(retries=1, backoff=0.01),
        )
        assert not result.ok and result.quarantined
        assert result.error["type"] == "WorkerTimeout"
        assert result.attempts == 2
        assert (result.timeouts, result.crashes) == (2, 0)
        assert [kind for kind, _ in events] == [
            "fault.timeout", "fault.retry", "fault.timeout",
            "fault.quarantine",
        ]

    def test_drain_aborts_without_retry(self):
        drain = Drain()

        async def drain_soon():
            await asyncio.sleep(0.2)
            drain.begin(grace=0.0)

        result, events = run_executor(
            unit_of("sleep_for", seconds=30),
            during=drain_soon,
            policy=RetryPolicy(retries=3, backoff=0.01),
            drain=drain,
        )
        assert not result.ok
        assert result.error["type"] == "WorkerAborted"
        assert not result.quarantined
        assert result.attempts == 1
        assert events == []


@pytest.mark.parametrize("supervised", [False, True])
def test_engine_progress_reaches_on_progress(tmp_path, supervised):
    """In process and over a supervised attempt's pipe alike, a unit's
    progress events reach ``on_progress`` in order, and so do the
    supervisor's ``fault.*`` decisions between its attempts."""
    marker = tmp_path / "m"
    if not supervised:
        marker.touch()  # the one in-process attempt succeeds
    unit = unit_of("report_then_fail_once", marker=str(marker), steps=3)
    progress = []
    results = execute_units(
        [unit], retries=1 if supervised else 0, backoff=0.01,
        on_progress=lambda kind, info: progress.append((kind, info)),
    )
    attempts = results[unit.uid].attempts
    assert results[unit.uid].ok and attempts == (2 if supervised else 1)
    steps = [("step", {"uid": unit.uid, "n": n}) for n in range(3)]
    assert [event for event in progress if event[0] == "step"] == (
        steps * attempts
    )
    assert [kind for kind, _ in progress] == (
        ["step"] * 3 + ["fault.retry"] + ["step"] * 3 if supervised
        else ["step"] * 3
    )


_FORK_THREADS = """
import asyncio, functools, json, sys, threading
from repro.harness import parallel, supervision
from repro.service import protocol
from repro.service.scheduler import Scheduler
from repro.service.worker import WorkerConfig, WorkerDaemon

counts = []
start = supervision.SupervisedAttempt.__init__

def counting(self, *args, **kwargs):
    counts.append(threading.active_count())
    start(self, *args, **kwargs)

supervision.SupervisedAttempt.__init__ = counting
parallel.execute_units(
    [parallel.WorkUnit(f"u{i}", "os", "getpid") for i in range(3)], jobs=2
)
crash = parallel.WorkUnit("crash", "os", "_exit", {"status": 3})
worker = WorkerDaemon(WorkerConfig(socket_path="unused"))
asyncio.run(worker._run_assignment(
    {"lease": "l1", "unit": protocol.unit_to_wire(crash), "retries": 1}
))

async def local_daemon():
    drain = supervision.Drain()
    scheduler = Scheduler(
        functools.partial(supervision.run_unit, drain=drain), drain.begin,
        None, jobs_dir=sys.argv[1],
    )
    for seed in (1, 2):  # the second job's attempt starts after the
        job = scheduler.submit(  # first job finalized
            "run_all", {"names": ["table2"], "scale": 0.01, "seed": seed}
        )
        await job.done_event.wait()
        assert job.state == "done", job.error

asyncio.run(local_daemon())
print(json.dumps(counts))
"""


def test_attempts_fork_from_a_single_threaded_process(tmp_path):
    """Every attempt forks on the event loop's own thread, in a sweep,
    in a fabric worker and in a local daemon after a job finalized
    alike: forking a multi-threaded process can deadlock the child
    (Python 3.12 warns on it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _FORK_THREADS, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    # three sweep units, two attempts of the worker's crashing unit,
    # then one attempt of each local-daemon job
    assert json.loads(done.stdout) == [1] * 7


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

    def test_fault_counters_below_the_plan_fail_the_verdict(self, tmp_path):
        """A run that heals to identity but whose manifest counted no
        crash fails: the planned crash never fired."""
        base = write_run(
            tmp_path / "base", {"a": record("a", 1, 1.0)}, {"a.txt": "A"}
        )
        chaos = write_run(
            tmp_path / "chaos", {"a": record("a", 1, 1.0)}, {"a.txt": "A"}
        )
        plan = FaultPlan(seed=1)
        plan.faults["a"] = FaultSpec(kind="crash", fail_attempts=1)
        assert verdict(chaos_record(base, chaos, plan)) == [
            "fault.crashes: 0 counted, 1 planned",
            "fault.retries: 0 counted, 1 planned",
        ]
