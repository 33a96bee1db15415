"""Determinism, caching, failure isolation, and resume for the
parallel sweep engine (repro.harness.parallel + run_all + seed_sweep)."""

import hashlib
import json
from pathlib import Path

import pytest

import repro
from repro.experiments import run_all as driver
from repro.harness import parallel
from repro.harness.configs import DefenseSpec
from repro.harness.parallel import (
    TIMING_FIELDS,
    ResultCache,
    WorkUnit,
    code_version_salt,
    execute_units,
    failed_units,
    strip_volatile,
)
from repro.harness.sweeps import seed_sweep, sweep_units
from repro.workloads.spec import profile_by_name

#: Cheap experiment subset: two real modules plus the injectable one.
FAST_SCALES = {"table1": None, "table2": None, "_selftest": None}


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    """Pin the cache salt: tests must not depend on source hashing, and
    the env var propagates to forked/spawned workers."""
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")


@pytest.fixture
def fast_experiments(monkeypatch):
    monkeypatch.setattr(driver, "EXPERIMENT_SCALES", dict(FAST_SCALES))


def _pathlib_digest(root: Path) -> str:
    """The code-version digest recomputed with ``Path.rglob``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def read_outputs(outdir):
    return {
        path.name: path.read_bytes()
        for path in sorted(outdir.glob("*.txt"))
    }


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestUnitPrimitives:
    def test_cache_key_depends_on_payload_and_salt(self):
        unit = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 1})
        other = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 2})
        assert unit.cache_key("s") != other.cache_key("s")
        assert unit.cache_key("s") != unit.cache_key("s2")
        assert unit.cache_key("s") == unit.cache_key("s")

    def test_code_version_salt_env_override(self):
        assert code_version_salt() == "test-salt"

    def test_code_version_salt_matches_pathlib_walk(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SALT")
        monkeypatch.setattr(parallel, "_SALT_MEMO", None)
        root = Path(repro.__file__).resolve().parent
        assert code_version_salt() == _pathlib_digest(root)

    def test_source_digest_orders_by_path_components(self, tmp_path):
        # "a.py" < "a/b.py" by component, but not by string ('.' < '/').
        for name in ("a.py", "a/b.py", "a-b.py", "A.py", "a/c/d.py",
                     "a/notes.txt", "ab/e.py"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(f"# {name}\n")
        assert parallel._source_digest(str(tmp_path)) == _pathlib_digest(
            tmp_path
        )

    def test_strip_volatile_recurses(self):
        data = {
            "wall_seconds": 1.0,
            "nested": [{"cpu_seconds": 2, "keep": 3}],
            "started": "now",
            "cached": True,
            "keep": {"seconds": 9, "x": 1},
        }
        assert strip_volatile(data) == {
            "nested": [{"keep": 3}],
            "keep": {"x": 1},
        }
        assert "seconds" in TIMING_FIELDS

    def test_duplicate_uids_rejected(self):
        unit = WorkUnit(uid="u", module="m", func="f")
        with pytest.raises(ValueError):
            execute_units([unit, unit])

    def test_result_cache_roundtrip_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 1})
        key = unit.cache_key("s")
        assert cache.get(key) is None
        cache.put(key, unit, {"v": 1})
        assert cache.get(key)["value"] == {"v": 1}
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None
        assert cache.hits == 1 and cache.misses == 2 and cache.stores == 1


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(
        self, tmp_path, fast_experiments
    ):
        serial = driver.run_all(
            tmp_path / "serial", scale=0.05, jobs=1, use_cache=False,
            quiet=True,
        )
        parallel = driver.run_all(
            tmp_path / "parallel", scale=0.05, jobs=4, use_cache=False,
            quiet=True,
        )
        assert read_outputs(serial) == read_outputs(parallel)
        assert strip_volatile(read_manifest(serial)) == strip_volatile(
            read_manifest(parallel)
        )
        from repro.harness.regression import manifests_equal

        assert manifests_equal(
            serial / "manifest.json", parallel / "manifest.json"
        )

    def test_cache_hits_identical_to_cold_run(
        self, tmp_path, fast_experiments
    ):
        out = tmp_path / "run"
        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        cold_outputs = read_outputs(out)
        cold_manifest = read_manifest(out)
        assert not any(
            record["cached"]
            for record in cold_manifest["experiments"].values()
        )

        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        warm_manifest = read_manifest(out)
        assert all(
            record["cached"]
            for record in warm_manifest["experiments"].values()
        )
        assert read_outputs(out) == cold_outputs
        assert strip_volatile(warm_manifest) == strip_volatile(cold_manifest)

    def test_seed_sweep_jobs_invariant(self):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        serial = seed_sweep(profiles, specs, seeds=(1, 2), scale=0.05, jobs=1)
        fanned = seed_sweep(profiles, specs, seeds=(1, 2), scale=0.05, jobs=2)
        assert serial["Secure Full"].samples == fanned["Secure Full"].samples

    def test_seed_sweep_cache_hits_identical(self, tmp_path):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        cache = ResultCache(tmp_path / "cache")
        cold = seed_sweep(
            profiles, specs, seeds=(1, 2), scale=0.05, cache=cache
        )
        stores = cache.stores
        warm = seed_sweep(
            profiles, specs, seeds=(1, 2), scale=0.05, cache=cache
        )
        assert cache.stores == stores  # nothing recomputed
        assert warm["Secure Full"].samples == cold["Secure Full"].samples

    def test_seed_sweep_twins_share_one_cell(self, tmp_path):
        """Specs that differ only by name read one cached cell: a warm
        sweep neither mismatches nor rewrites the entry."""
        from dataclasses import replace

        from repro.core.modes import Mode

        profiles = [profile_by_name("sjeng")]
        heap = DefenseSpec.rest(
            "Secure Heap", mode=Mode.SECURE, protect_stack=False
        )
        specs = [heap, replace(heap, name="Secure Heap (copy)")]
        assert [u.uid for u in sweep_units(profiles, specs, (1,), 0.02)] == [
            "sjeng/Plain/1",
            "sjeng/Secure Heap/1",
        ]
        cache = ResultCache(tmp_path / "cache")
        seed_sweep(profiles, specs, seeds=(1,), scale=0.02, cache=cache)
        mismatches, stores = cache.mismatches, cache.stores
        warm = seed_sweep(profiles, specs, seeds=(1,), scale=0.02, cache=cache)
        assert (cache.mismatches - mismatches, cache.stores - stores) == (0, 0)
        assert warm["Secure Heap"].samples == warm["Secure Heap (copy)"].samples


class TestFailureIsolation:
    def test_failed_unit_recorded_not_fatal(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        out = driver.run_all(
            tmp_path / "boom", scale=0.05, jobs=2, quiet=True
        )
        manifest = read_manifest(out)
        record = manifest["experiments"]["_selftest"]
        assert record["status"] == "error"
        assert record["error"]["type"] == "InjectedFailure"
        assert "REPRO_SELFTEST_BOOM" in record["error"]["message"]
        assert "traceback" in record["error"]
        # every other cell completed and was written
        for name in ("table1", "table2"):
            assert manifest["experiments"][name]["status"] == "ok"
            assert (out / f"{name}.txt").exists()
        assert not (out / "_selftest.txt").exists()

    def test_cli_exit_codes(self, tmp_path, fast_experiments, monkeypatch):
        outdir = str(tmp_path / "cli")
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        assert driver.main(["--outdir", outdir, "--scale", "0.05"]) == 1
        monkeypatch.delenv("REPRO_SELFTEST_BOOM")
        assert driver.main(["--outdir", outdir, "--scale", "0.05"]) == 0

    def test_resume_recomputes_only_failed_cells(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        out = tmp_path / "resume"
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        monkeypatch.delenv("REPRO_SELFTEST_BOOM")

        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        manifest = read_manifest(out)
        experiments = manifest["experiments"]
        assert experiments["_selftest"] == {
            **experiments["_selftest"],
            "status": "ok",
            "cached": False,  # the failed cell really re-ran
        }
        for name in ("table1", "table2"):
            assert experiments[name]["cached"] is True
        assert (out / "_selftest.txt").read_text().startswith("selftest ok")

    def test_seed_sweep_failure_surfaces_structured_error(self, monkeypatch):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        units = sweep_units(profiles, specs, seeds=(1,), scale=0.05)
        broken = [
            WorkUnit(
                uid=unit.uid,
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={},
                key_payload=unit.key_payload,
            )
            if unit.uid.startswith("sjeng/Secure Full")
            else unit
            for unit in units
        ]
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        results = execute_units(broken, jobs=2)
        failures = failed_units(results)
        assert list(failures) == ["sjeng/Secure Full/1"]
        assert failures["sjeng/Secure Full/1"]["type"] == "InjectedFailure"
        # the Plain cell still completed
        assert results["sjeng/Plain/1"].ok

        monkeypatch.setattr(
            "repro.harness.sweeps.sweep_units", lambda *a, **k: broken
        )
        with pytest.raises(RuntimeError, match="InjectedFailure"):
            seed_sweep(profiles, specs, seeds=(1,), scale=0.05, jobs=2)


class TestEngineMerge:
    def test_merge_is_by_uid_not_completion_order(self):
        units = [
            WorkUnit(
                uid=f"u{i}",
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={"scale": 1.0, "seed": i},
                key_payload={"i": i},
            )
            for i in range(6)
        ]
        results = execute_units(units, jobs=3)
        for i in range(6):
            assert results[f"u{i}"].value == f"selftest ok: scale=1.0 seed={i}"

    def test_cache_shared_across_job_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = [
            WorkUnit(
                uid=f"u{i}",
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={"scale": 1.0, "seed": i},
                key_payload={"i": i},
            )
            for i in range(4)
        ]
        execute_units(units, jobs=4, cache=cache)
        rerun = execute_units(units, jobs=1, cache=cache)
        assert all(result.cached for result in rerun.values())
