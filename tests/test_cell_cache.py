"""Cell records: one JSON record per (benchmark, spec, config) cell,
shared through ``ResultCache`` so a sweep simulates each cell once."""

import importlib
import json
import tempfile

import pytest

from repro.experiments import run_all as driver
from repro.harness import experiment, parallel
from repro.harness.bench import BENCH_MODES, bench_specs
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import RunResult, run_benchmark
from repro.harness.parallel import cell_cache
from repro.harness.sweeps import seed_sweep
from repro.workloads.attacks import ATTACK_REGISTRY
from repro.workloads.spec import profile_by_name


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")


@pytest.fixture
def count_builds(monkeypatch):
    """Count every trace :func:`run_benchmark` builds."""
    counter = {"builds": 0}
    build_trace = experiment.build_trace

    def counted(*args, **kwargs):
        counter["builds"] += 1
        return build_trace(*args, **kwargs)

    monkeypatch.setattr(experiment, "build_trace", counted)
    return counter


@pytest.fixture
def count_attacks(monkeypatch):
    """Count every registered attack that runs, whoever runs it."""
    counter = {"runs": 0}

    def counted(attack):
        def run(defense):
            counter["runs"] += 1
            return attack(defense)

        return run

    for name, attack in list(ATTACK_REGISTRY.items()):
        monkeypatch.setitem(ATTACK_REGISTRY, name, counted(attack))
    return counter


def counters(cache):
    return (cache.hits, cache.misses, cache.stores)


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def runs(self):
        config = SimulationConfig(scale=0.1, seed=1234)
        profile = profile_by_name("xalancbmk")
        specs = bench_specs()
        return {
            mode: run_benchmark(profile, specs[mode], config)
            for mode in BENCH_MODES
        }

    @pytest.mark.parametrize("mode", BENCH_MODES)
    def test_record_round_trips_through_json(self, runs, mode):
        run = runs[mode]
        text = json.dumps(run.to_json(), sort_keys=True)
        back = RunResult.from_json(json.loads(text), run.spec)
        for name in RunResult.__dataclass_fields__:
            assert getattr(back, name) == getattr(run, name), name
        assert back.stall_buckets == run.stall_buckets
        assert back.tokens_per_kilo_at_memory == run.tokens_per_kilo_at_memory
        assert back.instruction_expansion == run.instruction_expansion


class TestCellCache:
    CONFIG = SimulationConfig(scale=0.02, seed=1234)

    def test_name_is_not_part_of_the_key(self):
        assert (
            DefenseSpec.rest("A").key_payload()
            == DefenseSpec.rest("B").key_payload()
        )

    def test_a_hit_carries_the_callers_spec(self, tmp_path, count_builds):
        profile = profile_by_name("sjeng")
        first = DefenseSpec.rest("A")
        second = DefenseSpec.rest("B")
        with cell_cache(tmp_path) as cache:
            computed = run_benchmark(profile, first, self.CONFIG)
            cached = run_benchmark(profile, second, self.CONFIG)
            assert counters(cache) == (1, 1, 1)
        assert count_builds["builds"] == 1
        assert cached.spec is second
        assert cached.cycles == computed.cycles
        assert cached.core_stats == computed.core_stats

    def test_observed_runs_bypass_the_cache(self, tmp_path, count_builds):
        from repro.obs.tracer import RingTracer

        profile = profile_by_name("sjeng")
        spec = DefenseSpec.rest("Secure Full")
        samples = []
        with cell_cache(tmp_path) as cache:
            plain = run_benchmark(profile, spec, self.CONFIG)
            before = counters(cache)
            tracer = RingTracer()
            traced = run_benchmark(profile, spec, self.CONFIG, tracer=tracer)
            sampled = run_benchmark(
                profile, spec, self.CONFIG,
                on_sample=samples.append, sample_interval=500,
            )
            assert counters(cache) == before
        assert count_builds["builds"] == 3
        assert len(tracer) > 0
        assert samples
        assert traced.cycles == sampled.cycles == plain.cycles

    def test_restored_and_scratch_removed_when_the_block_raises(
        self, tmp_path
    ):
        with pytest.raises(RuntimeError):
            with cell_cache(scratch_parent=tmp_path) as cache:
                assert parallel._CELL_CACHE is cache
                assert cache.root.parent == tmp_path
                raise RuntimeError("boom")
        assert parallel._CELL_CACHE is None
        assert list(tmp_path.iterdir()) == []

    def test_renamed_spec_gives_equal_sweep_samples(self):
        heap = DefenseSpec.rest("Secure Heap", protect_stack=False)
        twin = DefenseSpec.rest("Heap Twin", protect_stack=False)
        profiles = [profile_by_name("sjeng"), profile_by_name("lbm")]
        result = seed_sweep(profiles, [heap, twin], seeds=(1, 2), scale=0.02)
        assert result["Secure Heap"].samples == result["Heap Twin"].samples


class TestRunAllSharesCells:
    NAMES = ["fig8", "intext", "stalls"]
    SCALE = 0.02
    SEED = 1234

    def test_each_cell_is_built_once(self, tmp_path, count_builds):
        out = driver.run_all(
            tmp_path / "out", scale=self.SCALE, seed=self.SEED, jobs=1,
            use_cache=False, quiet=True, names=self.NAMES,
        )
        # fig8's 64-byte bars, intext's Plain/Secure/PerfectHW cells and
        # the stalls cells are all simulated once (150 builds unshared).
        assert count_builds["builds"] == 110
        assert parallel._CELL_CACHE is None
        assert sorted(path.name for path in out.iterdir()) == [
            "fig8.txt", "intext.txt", "manifest.json", "stalls.json",
        ]
        for unit in driver.experiment_units(
            self.SCALE, self.SEED, names=self.NAMES
        ):
            module = importlib.import_module(unit.module)
            _, special = driver._SPECIAL_UNITS.get(unit.uid, (None, None))
            written = (out / (special or f"{unit.uid}.txt")).read_text()
            assert written == module.regenerate(self.SCALE, self.SEED) + "\n"

    def test_nothing_stays_installed_when_a_unit_raises(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            driver, "EXPERIMENT_SCALES", {"table1": None, "_selftest": None}
        )
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        out = driver.run_all(tmp_path / "boom", scale=0.02, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiments"]["_selftest"]["status"] == "error"
        assert parallel._CELL_CACHE is None

    def test_cells_persist_in_the_cache_dir(self, tmp_path, count_builds):
        """A later sweep over the same cache reads the cells an earlier
        one computed, even for another experiment."""
        for name in ("fig8", "intext"):
            driver.run_all(
                tmp_path / name, scale=self.SCALE, seed=self.SEED,
                cache_dir=str(tmp_path / "cache"), quiet=True, names=[name],
            )
        assert count_builds["builds"] == 109  # as in one shared sweep
        assert parallel._CELL_CACHE is None

    def test_experiments_command_shares_cells(
        self, tmp_path, count_builds, monkeypatch, capsys
    ):
        from repro.__main__ import main

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        args = ["experiments", "fig8", "intext", "--scale", "0.02"]
        assert main(args) == 0
        capsys.readouterr()
        assert count_builds["builds"] == 109  # 146 unshared
        assert list(tmp_path.iterdir()) == []  # scratch cells deleted
        assert parallel._CELL_CACHE is None


class TestRunAllSharesAttacks:
    NAMES = ["table3", "security"]
    SCALE = 0.05
    SEED = 1234

    def test_each_attack_row_runs_once(self, tmp_path, count_attacks):
        out = driver.run_all(
            tmp_path / "out", scale=self.SCALE, seed=self.SEED, jobs=1,
            use_cache=False, quiet=True, names=self.NAMES,
        )
        # 19 attacks x 4 modes, each run once (159 runs unshared).
        assert count_attacks["runs"] == 4 * len(ATTACK_REGISTRY) == 76
        assert parallel._CELL_CACHE is None
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.json", "security.txt", "table3.txt",
        ]
        for name in self.NAMES:
            module = importlib.import_module(f"repro.experiments.{name}")
            written = (out / f"{name}.txt").read_text()
            assert written == module.regenerate(self.SCALE, self.SEED) + "\n"

    def test_attack_rows_persist_in_the_cache_dir(
        self, tmp_path, count_attacks
    ):
        runs = []
        for name in self.NAMES:
            driver.run_all(
                tmp_path / name, scale=self.SCALE, seed=self.SEED,
                cache_dir=str(tmp_path / "cache"), quiet=True, names=[name],
            )
            runs.append(count_attacks["runs"])
        assert runs == [76, 76]  # security reads table3's four rows
        assert parallel._CELL_CACHE is None
