"""One defense-mode vocabulary: every mode decision goes through the
plugin registry.

Mode names are resolved by :mod:`repro.defenses.plugin`; the harness,
the foundry oracles and the CLI read plugin capabilities instead of
comparing names.  These tests pin the behaviours that used to depend
on hand-kept copies: the baseline collapses to one cell whatever its
spelling, software REST follows a capability, the CLI accepts every
registered mode, and the run_all scale overrides are caps.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.cpu.encoding import decode_trace
from repro.cpu.isa import OpType
from repro.defenses import SoftRestDefense
from repro.defenses import plugin as registry
from repro.defenses.plugin import DefensePlugin, is_baseline
from repro.foundry.generator import poison_intervals
from repro.harness.configs import DefenseSpec
from repro.harness.experiment import make_trace_machine
from repro.harness.sweeps import aggregate_overheads, sweep_units
from repro.workloads.spec import profile_by_name

SJENG = profile_by_name("sjeng")
NONE_SPEC = DefenseSpec(name="None", defense="none")
MINIC_OK = "int main() { int p = malloc(16); return 3; }\n"


def run_cli(argv):
    from repro.__main__ import main

    captured = io.StringIO()
    with redirect_stdout(captured):
        code = main(argv)
    return code, captured.getvalue()


def _register(monkeypatch, plugin):
    """Register ``plugin`` for the duration of one test."""
    monkeypatch.setitem(registry._PLUGINS, plugin.name, plugin)


class TestBaseline:
    def test_every_spelling_of_the_baseline(self):
        assert is_baseline("plain") and is_baseline("none")
        assert not is_baseline("asan")
        with pytest.raises(ValueError, match="did you mean"):
            is_baseline("nnoe")

    def test_sweep_units_run_one_baseline_cell(self):
        units = sweep_units(
            [SJENG], [NONE_SPEC, DefenseSpec.asan()], seeds=[1], scale=0.05
        )
        assert [u.uid for u in units] == ["sjeng/Plain/1", "sjeng/ASan/1"]

    def test_baseline_spec_reads_the_plain_cell(self):
        values = {
            "sjeng/Plain/1": {"runtime": 100.0},
            "sjeng/ASan/1": {"runtime": 150.0},
        }
        stats = aggregate_overheads(
            [SJENG], [NONE_SPEC, DefenseSpec.asan()], [1], values
        )
        assert stats["None"].samples == [0.0]
        assert stats["ASan"].samples == [50.0]

    def test_run_suite_runs_one_baseline_cell(self, monkeypatch):
        from repro.harness import experiment

        ran = []

        def fake_run(profile, spec, config):
            ran.append(spec.name)
            return spec.name

        monkeypatch.setattr(experiment, "run_benchmark", fake_run)
        results = experiment.run_suite([SJENG], [NONE_SPEC])
        assert ran == ["None"]
        assert list(results["sjeng"]) == ["None"]

    def test_compare_program_runs_one_baseline(self, monkeypatch):
        from repro.lang import measure

        monkeypatch.setattr(
            measure, "measure_program", lambda program, spec, args: spec.name
        )
        results = measure.compare_program(None, [NONE_SPEC])
        assert list(results) == ["None"]


class TestMachineKnobs:
    def test_software_rest_follows_the_capability(self, monkeypatch):
        _register(monkeypatch, DefensePlugin(
            name="toy-softrest",
            factory=SoftRestDefense,
            description="test-only software REST",
            detector="compiled-in compare",
            capabilities=frozenset({"software-tokens"}),
        ))
        spec = DefenseSpec(name="Toy", defense="toy-softrest")
        assert make_trace_machine(spec).software_rest is True

    def test_mte_spec_resolves_through_the_registry(self):
        assert DefenseSpec.mte().defense == "mte"
        assert DefenseSpec.mte("x", "sync").defense == "mte"
        assert DefenseSpec.mte("x", "asymm").defense == "mte-asymm"
        with pytest.raises(ValueError, match="did you mean: mte-async"):
            DefenseSpec.mte("x", "asycn")


class TestOracleDispatch:
    """The foundry geometry model reads capabilities, not names."""

    def test_shadow_scheme_gets_asan_geometry(self, monkeypatch):
        _register(monkeypatch, DefensePlugin(
            name="toy-shadow",
            factory=registry.get_plugin("asan").factory,
            description="test-only shadow memory",
            detector="compiled-in check",
            capabilities=frozenset({"shadow-memory"}),
            requires_recompilation=True,
        ))
        for region in ("heap", "stack"):
            assert poison_intervals("toy-shadow", region, 100) == \
                poison_intervals("asan", region, 100)

    @pytest.mark.parametrize("recompiles", [True, False])
    def test_stack_guard_follows_recompilation(self, monkeypatch, recompiles):
        _register(monkeypatch, DefensePlugin(
            name="toy-tokens",
            factory=registry.get_plugin("rest").factory,
            description="test-only tokens",
            detector="fill path",
            capabilities=frozenset({"rest-tokens"}),
            requires_recompilation=recompiles,
        ))
        assert poison_intervals("toy-tokens", "heap", 100) == \
            poison_intervals("rest", "heap", 100)
        stack = poison_intervals("toy-tokens", "stack", 100)
        assert stack == (poison_intervals("rest", "stack", 100)
                         if recompiles else ())

    def test_capability_free_scheme_detects_nothing(self, monkeypatch):
        _register(monkeypatch, DefensePlugin(
            name="toy-none",
            factory=registry.get_plugin("none").factory,
            description="test-only no-op",
            detector="none",
            requires_recompilation=True,
        ))
        for region in ("heap", "stack"):
            assert poison_intervals("toy-none", region, 64) == ()


class TestCliVocabulary:
    def test_trace_records_softrest_without_arm_ops(self, tmp_path):
        path = tmp_path / "soft.rtrace"
        code, output = run_cli(
            ["trace", "record", str(path), "--benchmark", "sjeng",
             "--scale", "0.02", "--defense", "softrest"]
        )
        assert code == 0 and "recorded" in output
        ops = {uop.op for uop in decode_trace(path.read_bytes())}
        assert OpType.STORE in ops
        assert not ops & {OpType.ARM, OpType.DISARM}

    def test_trace_alias_records_the_same_trace(self, tmp_path):
        traces = {}
        for mode in ("plain", "none"):
            path = tmp_path / f"{mode}.rtrace"
            code, _ = run_cli(
                ["trace", "record", str(path), "--benchmark", "sjeng",
                 "--scale", "0.02", "--defense", mode]
            )
            assert code == 0
            traces[mode] = path.read_bytes()
        assert traces["plain"] == traces["none"]

    @pytest.mark.parametrize("action", ["trace record", "minic run"])
    def test_unknown_mode_exits_2_with_suggestions(self, action, tmp_path):
        source = tmp_path / "ok.c"
        source.write_text(MINIC_OK)
        code, output = run_cli(
            action.split() + [str(source), "--defense", "restt"]
        )
        assert code == 2
        assert "did you mean: rest" in output

    def test_minic_runs_every_registered_mode(self, tmp_path):
        source = tmp_path / "ok.c"
        source.write_text(MINIC_OK)
        for mode in ("softrest", "mte-sync", "none"):
            code, output = run_cli(
                ["minic", "run", str(source), "--defense", mode]
            )
            assert code == 0, output
            assert f"[{mode}] main returned 3" in output

    def test_foundry_takes_canonical_modes_only(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["foundry", "--cases", "9", "--defenses", "plain"])
        assert err.value.code == 2


class TestScaleCaps:
    def _scales(self, requested):
        from repro.experiments.run_all import experiment_units

        return {
            unit.uid: unit.kwargs["scale"]
            for unit in experiment_units(requested, seed=1)
        }

    def test_fig3_is_capped_not_replaced(self):
        assert self._scales(0.05)["fig3"] == 0.05
        assert self._scales(0.5)["fig3"] == 0.35

    def test_caps_never_raise_the_requested_scale(self):
        scales = self._scales(0.05)
        assert scales["memoverhead"] == 0.05
        assert scales["defensezoo"] == 0.05
        assert scales["fig7"] == 0.05
