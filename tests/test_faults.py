"""Deterministic fault injection and the self-healing sweep engine.

Covers the fault plan (seeded compilation, serialisation, env
activation), every injected failure mode the resilience layer must
recover from (hang+timeout, hard crash, transient exception, allocator
MemoryError, corrupt/stale cache entries), retry/backoff/quarantine
semantics, interrupted-sweep checkpoint flushing, failed-unit timing
accounting, and the chaos identity guarantee: a healed chaos sweep is
byte-identical to a fault-free one after ``strip_volatile``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import run_all as driver
from repro.faults import (
    ALWAYS,
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientInjectedFault,
    maybe_inject,
)
from repro.faults.chaos import run_chaos
from repro.faults.inject import corrupt_cache_entry
from repro.harness.parallel import (
    ResultCache,
    UnitResult,
    WorkUnit,
    backoff_delay,
    execute_units,
    fault_summary,
    quarantine_report,
    strip_volatile,
)
from repro.harness.statsdump import fault_rows, format_fault_stats
from repro.obs.tracer import RingTracer

#: Cheap experiment subset shared with test_parallel_engine.
FAST_SCALES = {"table1": None, "table2": None, "_selftest": None}

#: Engine knobs that keep fault tests fast: tiny backoff, short timeout.
FAST = dict(backoff=0.02, timeout=5.0)


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture
def fast_experiments(monkeypatch):
    monkeypatch.setattr(driver, "EXPERIMENT_SCALES", dict(FAST_SCALES))


def selftest_units(count: int = 4):
    return [
        WorkUnit(
            uid=f"u{i}",
            module="repro.experiments._selftest",
            func="regenerate",
            kwargs={"scale": 1.0, "seed": i},
            key_payload={"i": i},
        )
        for i in range(count)
    ]


def activate(monkeypatch, tmp_path, plan: FaultPlan):
    path = plan.write(tmp_path / "fault-plan.json")
    monkeypatch.setenv(ENV_VAR, str(path))
    return path


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        uids = [f"u{i}" for i in range(20)]
        one = FaultPlan(seed=9).compile_mix(uids, ["hang", "crash"])
        two = FaultPlan(seed=9).compile_mix(uids, ["hang", "crash"])
        assert one.to_dict() == two.to_dict()
        other = FaultPlan(seed=10).compile_mix(uids, ["hang", "crash"])
        assert one.to_dict() != other.to_dict()

    def test_mix_covers_every_kind(self):
        uids = [f"u{i}" for i in range(8)]
        plan = FaultPlan(seed=1).compile_mix(
            uids, ["hang", "crash", "transient"], fraction=0.5
        )
        assert set(plan.kind_counts()) == {"hang", "crash", "transient"}

    def test_permanent_marks_quarantine_fodder(self):
        uids = [f"u{i}" for i in range(10)]
        plan = FaultPlan(seed=2).compile_mix(
            uids, ["raise"], fraction=0.5, permanent=2
        )
        assert len(plan.permanent_uids()) == 2
        for uid in plan.permanent_uids():
            assert plan.faults[uid].fail_attempts == ALWAYS

    def test_rates_are_seeded_and_bounded(self):
        uids = [f"u{i}" for i in range(200)]
        plan = FaultPlan(seed=3).compile_rates(uids, {"raise": 0.25})
        again = FaultPlan(seed=3).compile_rates(uids, {"raise": 0.25})
        assert plan.to_dict() == again.to_dict()
        assert 0 < len(plan.faults) < len(uids)
        with pytest.raises(ValueError):
            FaultPlan(seed=3).compile_rates(uids, {"raise": 0.7, "hang": 0.7})

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(seed=4).compile_mix(
            ["a", "b", "c"], ["transient", "corrupt_cache"], fraction=1.0
        )
        path = plan.write(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlin")
        with pytest.raises(ValueError):
            FaultPlan(seed=0).compile_mix(["a"], ["gremlin"])


class TestInjection:
    def test_dormant_without_env(self):
        maybe_inject("anything", 1)  # no plan file: must be a no-op

    def test_raise_and_transient(self, monkeypatch, tmp_path):
        plan = FaultPlan(
            seed=0,
            faults={
                "a": FaultSpec(kind="raise", fail_attempts=ALWAYS),
                "b": FaultSpec(kind="transient", fail_attempts=2),
            },
        )
        activate(monkeypatch, tmp_path, plan)
        with pytest.raises(InjectedFault):
            maybe_inject("a", 5)
        with pytest.raises(TransientInjectedFault):
            maybe_inject("b", 2)
        maybe_inject("b", 3)  # healed past fail_attempts
        maybe_inject("unlisted", 1)  # not in the plan

    def test_memory_error(self, monkeypatch, tmp_path):
        plan = FaultPlan(
            seed=0, faults={"m": FaultSpec(kind="memory_error")}
        )
        activate(monkeypatch, tmp_path, plan)
        with pytest.raises(MemoryError):
            maybe_inject("m", 1)


class TestBackoff:
    def test_deterministic_and_exponential(self):
        first = backoff_delay(0.1, 1, "unit", seed=5)
        assert first == backoff_delay(0.1, 1, "unit", seed=5)
        assert backoff_delay(0.1, 1, "unit", seed=6) != first
        # jitter is bounded: [0.5, 1.5) x base x 2^(attempt-1)
        for attempt in (1, 2, 3):
            delay = backoff_delay(0.1, attempt, "unit", seed=5)
            scale = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * scale <= delay < 1.5 * scale


class TestResilienceLayer:
    def test_transient_retries_to_success(self, monkeypatch, tmp_path):
        units = selftest_units(3)
        plan = FaultPlan(
            seed=0,
            faults={"u1": FaultSpec(kind="transient", fail_attempts=2)},
        )
        activate(monkeypatch, tmp_path, plan)
        tracer = RingTracer()
        results = execute_units(
            units, jobs=2, retries=3, tracer=tracer, **FAST
        )
        assert results["u1"].ok and results["u1"].attempts == 3
        assert results["u0"].ok and results["u0"].attempts == 1
        assert results["u1"].value == "selftest ok: scale=1.0 seed=1"
        kinds = tracer.counts()
        assert kinds.get("fault.retry") == 2

    def test_crash_is_recovered_not_deadlocked(self, monkeypatch, tmp_path):
        # A worker SIGKILL-style hard death (os._exit skips all Python
        # unwinding, like the OOM killer) must surface as a structured
        # failure, not hang the sweep; a retry heals it.
        units = selftest_units(4)
        plan = FaultPlan(
            seed=0, faults={"u2": FaultSpec(kind="crash", fail_attempts=1)}
        )
        activate(monkeypatch, tmp_path, plan)
        tracer = RingTracer()
        results = execute_units(
            units, jobs=2, retries=1, tracer=tracer, **FAST
        )
        assert all(result.ok for result in results.values())
        assert results["u2"].attempts == 2
        assert tracer.counts().get("fault.crash") == 1

    def test_permanent_crash_quarantined(self, monkeypatch, tmp_path):
        units = selftest_units(3)
        plan = FaultPlan(
            seed=0,
            faults={"u0": FaultSpec(kind="crash", fail_attempts=ALWAYS)},
        )
        activate(monkeypatch, tmp_path, plan)
        results = execute_units(units, jobs=2, retries=1, **FAST)
        assert not results["u0"].ok
        assert results["u0"].quarantined
        assert results["u0"].error["type"] == "WorkerCrash"
        assert results["u0"].attempts == 2
        # every other unit still completed (no deadlock, no poisoning)
        assert results["u1"].ok and results["u2"].ok
        assert list(quarantine_report(results)) == ["u0"]

    def test_hang_killed_at_timeout_and_retried(self, monkeypatch, tmp_path):
        units = selftest_units(2)
        plan = FaultPlan(
            seed=0,
            faults={
                "u0": FaultSpec(
                    kind="hang", fail_attempts=1, hang_seconds=60.0
                )
            },
        )
        activate(monkeypatch, tmp_path, plan)
        tracer = RingTracer()
        results = execute_units(
            units, jobs=2, retries=1, timeout=1.0, backoff=0.02,
            tracer=tracer,
        )
        assert results["u0"].ok and results["u0"].attempts == 2
        assert tracer.counts().get("fault.timeout") == 1
        # the killed attempt's wall time is accounted
        assert results["u0"].wall_seconds >= 1.0

    def test_permanent_hang_quarantined_as_timeout(
        self, monkeypatch, tmp_path
    ):
        units = selftest_units(2)
        plan = FaultPlan(
            seed=0,
            faults={
                "u1": FaultSpec(
                    kind="hang", fail_attempts=ALWAYS, hang_seconds=60.0
                )
            },
        )
        activate(monkeypatch, tmp_path, plan)
        results = execute_units(units, jobs=2, retries=1, timeout=0.5,
                                backoff=0.02)
        assert not results["u1"].ok
        assert results["u1"].error["type"] == "WorkerTimeout"
        assert results["u1"].quarantined
        assert results["u0"].ok

    def test_memory_error_retried(self, monkeypatch, tmp_path):
        units = selftest_units(2)
        plan = FaultPlan(
            seed=0,
            faults={"u0": FaultSpec(kind="memory_error", fail_attempts=1)},
        )
        activate(monkeypatch, tmp_path, plan)
        results = execute_units(units, jobs=2, retries=1, **FAST)
        assert results["u0"].ok and results["u0"].attempts == 2

    def test_healed_run_matches_fault_free(self, monkeypatch, tmp_path):
        units = selftest_units(4)
        clean = execute_units(units, jobs=2)
        plan = FaultPlan(
            seed=0,
            faults={
                "u0": FaultSpec(kind="transient", fail_attempts=1),
                "u3": FaultSpec(kind="crash", fail_attempts=1),
            },
        )
        activate(monkeypatch, tmp_path, plan)
        chaotic = execute_units(units, jobs=2, retries=2, **FAST)
        assert {uid: r.value for uid, r in clean.items()} == {
            uid: r.value for uid, r in chaotic.items()
        }

    def test_fault_summary_counters(self, monkeypatch, tmp_path):
        units = selftest_units(3)
        plan = FaultPlan(
            seed=0,
            faults={
                "u0": FaultSpec(kind="transient", fail_attempts=1),
                "u1": FaultSpec(kind="raise", fail_attempts=ALWAYS),
            },
        )
        activate(monkeypatch, tmp_path, plan)
        tracer = RingTracer()
        results = execute_units(
            units, jobs=2, retries=1, tracer=tracer, **FAST
        )
        summary = fault_summary(results, tracer)
        assert summary["retries"] == 2  # one heal + one futile retry
        assert summary["quarantined"] == 1
        text = format_fault_stats(summary)
        assert "fault.retries" in text and "fault.quarantined" in text
        assert [name for name, _, _ in fault_rows(summary)] == [
            "fault.retries",
            "fault.timeouts",
            "fault.crashes",
            "fault.quarantined",
        ]


class TestCacheIntegrity:
    def test_uid_mismatch_reads_as_miss(self, tmp_path):
        # Regression: a stale-salt bug, hash collision, or hand-edited
        # entry must never hand unit A the value recorded for unit B.
        cache = ResultCache(tmp_path)
        unit = WorkUnit(uid="real", module="m", func="f",
                        key_payload={"a": 1})
        key = unit.cache_key("s")
        cache.put(key, unit, {"v": 1})
        imposter = WorkUnit(uid="imposter", module="m", func="f",
                            key_payload={"a": 1})
        assert cache.get(key, imposter) is None
        assert cache.mismatches == 1
        assert cache.get(key, unit)["value"] == {"v": 1}

    def test_payload_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 1})
        key = unit.cache_key("s")
        cache.put(key, unit, "value")
        edited = WorkUnit(uid="u", module="m", func="f",
                          key_payload={"a": 2})
        assert cache.get(key, edited) is None
        assert cache.mismatches == 1

    def test_corrupt_entries_recomputed(self, tmp_path):
        units = selftest_units(2)
        cache = ResultCache(tmp_path / "cache")
        corrupt_cache_entry(
            cache, units[0], FaultSpec(kind="corrupt_cache"), salt=None
        )
        corrupt_cache_entry(
            cache,
            units[1],
            FaultSpec(kind="corrupt_cache", variant="stale-uid"),
            salt=None,
        )
        results = execute_units(units, jobs=1, cache=cache)
        assert all(result.ok for result in results.values())
        assert not any(result.cached for result in results.values())
        for unit in units:
            assert "poisoned" not in str(results[unit.uid].value)
        # the damaged entries were overwritten with good ones
        rerun = execute_units(units, jobs=1, cache=cache)
        assert all(result.cached for result in rerun.values())


class TestTimingAccounting:
    def test_failed_unit_timing_reaches_manifest(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        out = driver.run_all(tmp_path / "boom", scale=0.05, jobs=2,
                             quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        record = manifest["experiments"]["_selftest"]
        assert record["status"] == "error"
        assert record["wall_seconds"] >= 0.0
        timing = manifest["units_timing"]
        # aggregate includes every unit, failed ones too
        assert timing["wall_seconds"] >= sum(
            rec["wall_seconds"]
            for rec in manifest["experiments"].values()
            if rec["status"] == "ok"
        )
        assert timing["cpu_seconds"] > 0.0

    def test_retry_timing_accumulates(self, monkeypatch, tmp_path):
        units = selftest_units(1)
        plan = FaultPlan(
            seed=0,
            faults={
                "u0": FaultSpec(
                    kind="hang", fail_attempts=1, hang_seconds=60.0
                )
            },
        )
        activate(monkeypatch, tmp_path, plan)
        results = execute_units(units, jobs=1, retries=1, timeout=0.5,
                                backoff=0.02)
        # one killed 0.5s attempt + one clean attempt
        assert results["u0"].ok
        assert results["u0"].wall_seconds >= 0.5


class TestInterruptFlush:
    @pytest.mark.parametrize("retries", [0, 1])
    def test_completed_results_flushed_on_interrupt(self, tmp_path, retries):
        units = selftest_units(4)
        cache = ResultCache(tmp_path / "cache")
        done = []

        def progress(message):
            done.append(message)
            if len(done) == len(units):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_units(units, jobs=2, cache=cache, progress=progress,
                          retries=retries, backoff=0.02)
        # every completed unit reached the cache before the interrupt
        # tore the engine down: the resumed sweep re-executes nothing.
        stores = cache.stores
        resumed = execute_units(units, jobs=2, cache=cache)
        assert cache.stores == stores
        assert all(result.cached for result in resumed.values())


#: A plain ``jobs=2`` sweep whose middle unit kills its worker outright.
CRASH_SWEEP = """
import json, multiprocessing
from repro.harness.parallel import WorkUnit, execute_units

def selftest(uid, seed):
    return WorkUnit(uid, "repro.experiments._selftest", "regenerate",
                    {"seed": seed}, {"seed": seed})

units = [selftest("ok0", 0), WorkUnit("crash", "os", "_exit", {"status": 3}),
         selftest("ok1", 1)]
results = execute_units(units, jobs=2)
print(json.dumps({
    "ok": {uid: result.ok for uid, result in results.items()},
    "crash": results["crash"].error["type"],
    "children": len(multiprocessing.active_children()),
}))
"""


class TestPlainParallelCrash:
    def test_dead_worker_fails_only_its_unit(self):
        """No ``timeout`` or ``retries``: a worker that dies hard is a
        ``WorkerCrash`` of its own unit, never a hung sweep.  The sweep
        runs in a child so a hang fails this test by timeout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", CRASH_SWEEP],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["ok"] == {"ok0": True, "crash": False, "ok1": True}
        assert report["crash"] == "WorkerCrash"
        assert report["children"] == 0


class TestRunAllDegraded:
    def test_quarantine_section_and_exit_code(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        plan = FaultPlan(
            seed=0,
            faults={
                "_selftest": FaultSpec(kind="raise", fail_attempts=ALWAYS)
            },
        )
        activate(monkeypatch, tmp_path, plan)
        outdir = str(tmp_path / "degraded")
        code = driver.main(
            ["--outdir", outdir, "--scale", "0.05", "--jobs", "2",
             "--retries", "1"]
        )
        assert code == 1  # degraded, not aborted
        manifest = json.loads(
            (tmp_path / "degraded" / "manifest.json").read_text()
        )
        assert list(manifest["quarantine"]) == ["_selftest"]
        entry = manifest["quarantine"]["_selftest"]
        assert entry["attempts"] == 2
        assert entry["error"]["type"] == "InjectedFault"
        assert manifest["fault"]["quarantined"] == 1
        assert manifest["fault"]["retries"] == 1
        # the engine fault events were exported for repro report
        events = (tmp_path / "degraded" / "events-engine.jsonl")
        assert events.is_file()
        kinds = [json.loads(line)["kind"]
                 for line in events.read_text().splitlines()]
        assert "fault.retry" in kinds and "fault.quarantine" in kinds
        # every other experiment completed and was written
        for name in ("table1", "table2"):
            assert manifest["experiments"][name]["status"] == "ok"
            assert (tmp_path / "degraded" / f"{name}.txt").exists()

    def test_report_renders_fault_section(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        from repro.obs.report import _fault_section

        plan = FaultPlan(
            seed=0,
            faults={
                "_selftest": FaultSpec(kind="raise", fail_attempts=ALWAYS)
            },
        )
        activate(monkeypatch, tmp_path, plan)
        out = driver.run_all(tmp_path / "deg", scale=0.05, jobs=2,
                             retries=1, backoff=0.02, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        lines = "\n".join(_fault_section(manifest))
        assert "quarantined" in lines
        assert "QUARANTINED _selftest" in lines


class TestChaosIdentity:
    def test_chaos_run_matches_baseline(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        report = run_chaos(
            tmp_path / "chaos",
            scale=0.05,
            jobs=2,
            timeout=20.0,
            retries=2,
            backoff=0.02,
            fault_seed=7,
            kinds=("crash", "transient", "corrupt_cache"),
            fraction=1.0,
            permanent=1,
            quiet=True,
        )
        assert report.problems == []
        assert report.mismatches == []
        assert report.ok
        assert len(report.quarantined) == 1
        assert report.quarantined == report.plan.permanent_uids()
        # the degraded manifest itself strips clean against baseline
        # once quarantined units are excluded
        baseline = json.loads(
            (report.baseline_dir / "manifest.json").read_text()
        )
        chaos = json.loads((report.chaos_dir / "manifest.json").read_text())
        for manifest in (baseline, chaos):
            for uid in report.quarantined:
                manifest["experiments"].pop(uid, None)
        assert strip_volatile(baseline) == strip_volatile(chaos)

    def test_chaos_cli(self, tmp_path, fast_experiments, monkeypatch):
        from repro.__main__ import main

        code = main(
            [
                "chaos",
                "--outdir", str(tmp_path / "cli"),
                "--scale", "0.05",
                "--jobs", "2",
                "--timeout", "20",
                "--retries", "2",
                "--kinds", "transient", "crash",
                "--fraction", "1.0",
            ]
        )
        assert code == 0

    def test_chaos_cli_rejects_unknown_kind(self, tmp_path):
        from repro.__main__ import main

        assert main(["chaos", "--outdir", str(tmp_path),
                     "--kinds", "gremlin"]) == 2


class TestDormantLayer:
    def test_fault_free_path_untouched(self, monkeypatch):
        # With no env hook and no timeout/retries the engine must take
        # the classic dispatch path: plain UnitResults, attempts == 1,
        # nothing quarantined.
        units = selftest_units(3)
        results = execute_units(units, jobs=2)
        for result in results.values():
            assert result.ok
            assert result.attempts == 1
            assert not result.quarantined
        assert fault_summary(results) == {
            "retries": 0, "timeouts": 0, "crashes": 0, "quarantined": 0,
        }

    def test_volatile_fields_cover_resilience_keys(self):
        from repro.harness.parallel import VOLATILE_FIELDS

        stripped = strip_volatile(
            {
                "attempts": 3,
                "fault": {"retries": 1},
                "quarantine": {"u": {}},
                "keep": 1,
            }
        )
        assert stripped == {"keep": 1}
        assert {"attempts", "fault", "quarantine"} <= VOLATILE_FIELDS
