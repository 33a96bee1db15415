"""Integration tests across subsystem seams: defenses on kernel
hierarchies, narrow tokens on multicore, Mini-C on the fast allocator,
sweeps, and experiment glue."""

import pytest

from repro.cache.coherence import MulticoreHierarchy
from repro.core import (
    Mode,
    PrivilegeLevel,
    RestException,
    Token,
    TokenConfigRegister,
)
from repro.defenses import RestDefense
from repro.harness.configs import DefenseSpec
from repro.harness.sweeps import seed_sweep
from repro.lang import Interpreter, parse
from repro.os import Kernel
from repro.runtime import Machine
from repro.workloads.spec import profile_by_name


class TestDefenseOnKernelHierarchy:
    def test_rest_defense_inside_a_process(self):
        """A process's heap defense works under per-process tokens and
        survives context switches."""
        kernel = Kernel()
        process_a = kernel.spawn()
        machine = Machine(hierarchy=kernel.hierarchy)
        defense = RestDefense(machine, protect_stack=False)
        buffer = defense.malloc(64)
        defense.store(buffer, b"a-data!!")

        kernel.spawn()  # switch away (flush + token swap)
        kernel.switch_to(process_a)  # and back
        assert defense.load(buffer, 8) == b"a-data!!"
        with pytest.raises(RestException):
            defense.load(buffer + 64, 8)  # redzone survives the switches

    def test_foreign_process_cannot_trip_or_read_redzones_as_tokens(self):
        kernel = Kernel()
        process_a = kernel.spawn()
        machine = Machine(hierarchy=kernel.hierarchy)
        defense = RestDefense(machine, protect_stack=False)
        buffer = defense.malloc(64)
        kernel.spawn()  # now B's token is installed
        # B scans A's redzone region: the bytes are A's token —
        # meaningless under B's register, no exception, no B-token.
        data, _ = kernel.hierarchy.read(buffer + 64, 64)
        assert data != kernel.hierarchy.detector.token.value


class TestNarrowTokensOnMulticore:
    @pytest.mark.parametrize("width", [16, 32])
    def test_cross_core_detection_narrow(self, width):
        register = TokenConfigRegister(Token.random(width, seed=4))
        smp = MulticoreHierarchy(cores=2, token_config=register)
        smp.arm(0, 0x1000 + width)  # a middle slot of the line
        with pytest.raises(RestException):
            smp.read(1, 0x1000 + width, 8)
        # Sibling slots in the same line stay accessible from core 1.
        smp.read(1, 0x1000, 8)
        smp.disarm(1, 0x1000 + width)
        smp.read(0, 0x1000 + width, 8)


class TestMiniCOnVariants:
    SOURCE = """
    int main() {
        int p = malloc(256);
        for (i = 0; i < 32; i++) { p[i] = i; }
        int total = 0;
        for (i = 0; i < 32; i++) { total = total + p[i]; }
        free(p);
        return total;
    }
    """

    def test_fast_allocator(self):
        defense = RestDefense(Machine(), allocator="fast")
        assert Interpreter(parse(self.SOURCE), defense).run() == sum(
            range(32)
        )

    def test_narrow_token_machine(self):
        register = TokenConfigRegister(Token.random(16, seed=6))
        from repro.cache.hierarchy import MemoryHierarchy

        machine = Machine(hierarchy=MemoryHierarchy(token_config=register))
        defense = RestDefense(machine)
        assert Interpreter(parse(self.SOURCE), defense).run() == sum(
            range(32)
        )

    def test_debug_mode_machine(self):
        register = TokenConfigRegister(
            Token.random(64, seed=6), mode=Mode.DEBUG
        )
        from repro.cache.hierarchy import MemoryHierarchy

        machine = Machine(hierarchy=MemoryHierarchy(token_config=register))
        defense = RestDefense(machine)
        bad = parse(
            "int main() { int p = malloc(64); return p[8]; }"
        )
        with pytest.raises(RestException) as info:
            Interpreter(bad, defense).run()
        assert info.value.precise  # debug mode: precise report


class TestSweepGlue:
    def test_seed_sweep_statistics(self):
        sweep = seed_sweep(
            [profile_by_name("sjeng")],
            [DefenseSpec.rest("Secure Full")],
            seeds=(1, 2, 3),
            scale=0.05,
        )
        result = sweep["Secure Full"]
        assert len(result.samples) == 3
        assert result.spread >= 0
        assert result.stdev >= 0
        assert min(result.samples) <= result.mean <= max(result.samples)

    def test_seed_sweep_requires_seeds(self):
        with pytest.raises(ValueError):
            seed_sweep(
                [profile_by_name("sjeng")],
                [DefenseSpec.rest("Secure Full")],
                seeds=(),
            )


class TestTokenRotationEndToEnd:
    def test_rotation_with_writeback_rekeys_protection(self):
        """Rotation at 'reboot': old tokens must be re-armed under the
        new value before protection resumes (heap-only REST re-arms on
        the next allocation round, no recompilation)."""
        machine = Machine()
        defense = RestDefense(machine, protect_stack=False)
        old_buffer = defense.malloc(64)
        register = machine.hierarchy.token_config
        machine.hierarchy.writeback_all()
        register.rotate(PrivilegeLevel.SUPERVISOR, seed=77)
        # Pre-rotation redzones are stale (old token bytes): the new
        # detector no longer recognises them...
        machine.load(old_buffer + 64, 8)
        # ...but fresh allocations are protected under the new token.
        new_buffer = defense.malloc(64)
        with pytest.raises(RestException):
            machine.load(new_buffer + 64, 8)


class TestOneCellPath:
    """Every surface simulates a cell through ``build_trace`` and
    ``run_benchmark``, so a (benchmark, defense, seed, scale) cell has
    one trace and one cycle count wherever it is run."""

    SCALE = 0.1
    SEED = 1234
    #: Cycles of xalancbmk at scale 0.1, seed 1234.
    CYCLES = {
        "plain": 10116,
        "asan": 27441,
        "rest-secure": 10467,
        "rest-debug": 11715,
    }
    #: Fast-tier cycles of the same cells, against a cold block memo.
    FAST_CYCLES = {
        "plain": 10116,
        "asan": 28070,
        "rest-secure": 10467,
        "rest-debug": 11715,
    }

    @pytest.fixture(scope="class")
    def surfaces(self, tmp_path_factory):
        from repro.harness.bench import BENCH_MODES, bench_specs, run_bench
        from repro.harness.configs import SimulationConfig
        from repro.harness.experiment import run_benchmark
        from repro.obs.runner import run_observed

        profile = profile_by_name("xalancbmk")
        config = SimulationConfig(scale=self.SCALE, seed=self.SEED)
        specs = bench_specs()
        observed = run_observed(
            tmp_path_factory.mktemp("observed"),
            scale=self.SCALE,
            seed=self.SEED,
        )["modes"]
        bench = run_bench(scale=self.SCALE, seed=self.SEED)["modes"]
        return {
            mode: {
                "run_benchmark": run_benchmark(
                    profile, specs[mode], config
                ).cycles,
                "run_observed": observed[mode]["cycles"],
                "run_bench": bench[mode]["cycles"],
            }
            for mode in BENCH_MODES
        }

    @pytest.mark.parametrize(
        "mode", ["plain", "asan", "rest-secure", "rest-debug"]
    )
    def test_every_surface_agrees(self, surfaces, mode):
        for surface, cycles in surfaces[mode].items():
            assert cycles == self.CYCLES[mode], surface

    @pytest.mark.parametrize(
        "mode", ["plain", "asan", "rest-secure", "rest-debug"]
    )
    def test_fast_tier_engine_is_unchanged(self, mode):
        """``benchmarks/e2e``'s ``cells-fast`` workload measures the
        engine as a library; its results must not move."""
        from repro.fasttier import BlockMemo, FastTierEngine
        from repro.harness.bench import bench_specs
        from repro.harness.configs import SimulationConfig
        from repro.harness.experiment import build_trace

        spec = bench_specs()[mode]
        config = SimulationConfig(scale=self.SCALE, seed=self.SEED)
        trace = build_trace(profile_by_name("xalancbmk"), spec, config)[0]
        fast = FastTierEngine(BlockMemo()).run(trace, spec, config)
        assert fast.stats.cycles == self.FAST_CYCLES[mode]

    @pytest.mark.parametrize("defense", ["rest", "asan"])
    def test_trace_record_writes_the_cell_trace(self, tmp_path, defense):
        import io
        from contextlib import redirect_stdout

        from repro.__main__ import main
        from repro.cpu.encoding import encode_trace
        from repro.harness.configs import SimulationConfig
        from repro.harness.experiment import build_trace

        path = tmp_path / "cell.rtrace"
        with redirect_stdout(io.StringIO()):
            code = main(
                ["trace", "record", str(path), "--benchmark", "xalancbmk",
                 "--defense", defense, "--scale", str(self.SCALE)]
            )
        assert code == 0
        trace, _ = build_trace(
            profile_by_name("xalancbmk"),
            DefenseSpec(name=defense, defense=defense),
            SimulationConfig(scale=self.SCALE),
        )
        assert path.read_bytes() == encode_trace(trace)

    def test_only_build_trace_constructs_workloads(self):
        """Tripwire: no module grows its own generate block again.

        ``workloads/validation.py`` needs the bare ``Machine`` and
        ``experiments/memoverhead.py`` the ``Defense`` object itself,
        not a cell, so they may construct a workload directly.
        """
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        allowed = {"workloads/validation.py", "experiments/memoverhead.py"}
        counts = {
            path.relative_to(root).as_posix(): path.read_text().count(
                "SyntheticWorkload("
            )
            for path in root.rglob("*.py")
        }
        offenders = sorted(
            name
            for name, count in counts.items()
            if count and name not in allowed
            and name != "harness/experiment.py"
        )
        assert offenders == []
        assert counts["harness/experiment.py"] == 1

    def test_only_fasttier_imports_fasttier(self):
        """Tripwire: no surface reaches the analytical fast tier again.

        Every cell replays cycle-accurately; ``repro.fasttier`` is a
        library only ``benchmarks/e2e`` measures.
        """
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            name = path.relative_to(root).as_posix()
            if name.startswith("fasttier/"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "repro":
                        modules += [f"repro.{a.name}" for a in node.names]
                else:
                    continue
                if any(
                    m == "repro.fasttier" or m.startswith("repro.fasttier.")
                    for m in modules
                ):
                    offenders.append(name)
        assert offenders == []
