"""Smoke tests for the experiment modules (subset scale, full paths)."""

import pytest

from repro.workloads.spec import profile_by_name

TWO_PROFILES = (profile_by_name("sjeng"), profile_by_name("xalancbmk"))


class TestFig7:
    def test_run_and_render(self, monkeypatch):
        from repro.experiments import fig7

        monkeypatch.setattr(fig7, "ALL_PROFILES", TWO_PROFILES)
        results = fig7.run(scale=0.02, seed=1234)
        text = fig7.render(results)
        assert "WtdAriMean" in text and "GeoMean" in text
        assert "Secure Full" in text
        assert "xalancbmk" in text and "sjeng" in text

    def test_all_eight_configs_present(self, monkeypatch):
        from repro.experiments import fig7

        monkeypatch.setattr(fig7, "ALL_PROFILES", TWO_PROFILES[:1])
        results = fig7.run(scale=0.02, seed=1234)
        assert set(results["sjeng"]) == {
            "Plain",
            "ASan",
            "Debug Full",
            "Secure Full",
            "PerfectHW Full",
            "Debug Heap",
            "Secure Heap",
            "PerfectHW Heap",
        }


class TestFig8:
    def test_run_and_render(self, monkeypatch):
        from repro.experiments import fig8

        monkeypatch.setattr(fig8, "ALL_PROFILES", TWO_PROFILES[:1])
        text = fig8.render(fig8.run(scale=0.02, seed=1234))
        for label in ("16 Full", "32 Heap", "64 Full"):
            assert label in text
        assert "spread" in text


class TestFig3:
    def test_breakdown_components_sum_to_total(self, monkeypatch):
        from repro.experiments import fig3

        monkeypatch.setattr(fig3, "ALL_PROFILES", TWO_PROFILES[:1])
        results = fig3.run(scale=0.02, seed=1234)
        parts = fig3.breakdown(results)
        per_bench = parts["sjeng"]
        total_from_parts = sum(per_bench.values())
        plain = results["sjeng"]["Plain"].runtime
        full = results["sjeng"]["cum:API Intercept"].runtime
        assert total_from_parts == pytest.approx(
            (full / plain - 1) * 100, abs=0.01
        )

    def test_render(self, monkeypatch):
        from repro.experiments import fig3

        monkeypatch.setattr(fig3, "ALL_PROFILES", TWO_PROFILES[:1])
        text = fig3.render(fig3.run(scale=0.02, seed=1234))
        assert "Memory Access Validation" in text
        assert "Allocator" in text


class TestMemOverhead:
    def test_regenerate_small(self, monkeypatch):
        from repro.experiments import memoverhead

        monkeypatch.setattr(memoverhead, "ALL_PROFILES", TWO_PROFILES)
        text = memoverhead.regenerate(scale=0.05, seed=1234)
        assert "TOTAL" in text
        assert "shadow bytes" in text


class TestIntext:
    def test_regenerate_small(self, monkeypatch):
        from repro.experiments import intext as module

        monkeypatch.setattr(module, "ALL_PROFILES", TWO_PROFILES[:1])
        text = module.regenerate(scale=0.02, seed=1234)
        assert "ROB blocked-by-store cycles" in text
        assert "Secure Full - Secure Heap" in text


class TestIntextMechanisms:
    """What stands behind two Section VI-B rows of ``results/intext.txt``."""

    def test_back_pressure_binds_at_the_lsq_not_the_rob(self):
        """The debug backup fills the SQ and LQ; the ROB never fills,
        which is why the IQ+ROB row is near zero in both modes."""
        from repro.core.modes import Mode
        from repro.experiments.common import make_config
        from repro.harness.configs import DefenseSpec
        from repro.harness.experiment import run_benchmark

        config = make_config(scale=0.35, seed=1234)
        profile = profile_by_name("xalancbmk")
        secure, debug = (
            run_benchmark(profile, spec, config).core_stats
            for spec in (
                DefenseSpec.rest("Secure Full"),
                DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
            )
        )
        assert secure.rob_full_cycles == 0
        assert debug.rob_full_cycles == 0
        assert debug.sq_full_cycles > secure.sq_full_cycles
        assert secure.lq_full_cycles > 0
        assert debug.lq_full_cycles > 0

    @pytest.mark.parametrize("protect_stack", [True, False], ids=["Full", "Heap"])
    def test_perfect_hw_costs_exactly_secure(self, protect_stack):
        """Secure - PerfectHW = 0.00 pp by construction: PerfectHW's
        trace is Secure's with each ARM/DISARM emitted as a STORE of the
        same pc, address, size and deps, and secure mode times the two
        alike."""
        from repro.cpu.isa import OpType
        from repro.harness.configs import DefenseSpec, SimulationConfig
        from repro.harness.experiment import build_trace, run_benchmark
        from repro.workloads.spec import ALL_PROFILES

        config = SimulationConfig(scale=0.1)
        secure_spec = DefenseSpec.rest("Secure", protect_stack=protect_stack)
        perfect_spec = DefenseSpec.rest(
            "PerfectHW", protect_stack=protect_stack, perfect_hw=True
        )
        token_ops = (OpType.ARM, OpType.DISARM)

        def fields(uop):
            return (uop.pc, uop.address, uop.size, uop.deps, uop.taken, uop.sid)

        for profile in ALL_PROFILES:
            secure, _ = build_trace(profile, secure_spec, config)
            perfect, _ = build_trace(profile, perfect_spec, config)
            assert len(perfect) == len(secure), profile.name
            for ours, theirs in zip(secure, perfect):
                expected = OpType.STORE if ours.op in token_ops else ours.op
                assert theirs.op is expected, profile.name
                assert fields(theirs) == fields(ours), profile.name
            assert (
                run_benchmark(profile, perfect_spec, config).cycles
                == run_benchmark(profile, secure_spec, config).cycles
            ), profile.name


    def test_token_lines_reach_memory_only_past_l2_capacity(self):
        """Tokens/kilo-instruction at L2/memory is 0.000 against the
        paper's 0.04 because no committed scale evicts a token line
        from the 2 MiB L2.  The counter is live: a 256 KiB L2 writes
        token lines back.  Token lines are never filled from memory."""
        from dataclasses import replace

        from repro.harness.configs import DefenseSpec, SimulationConfig
        from repro.harness.experiment import run_benchmark

        profile = profile_by_name("xalancbmk")
        spec = DefenseSpec.rest("Secure Full")
        default = SimulationConfig(scale=1.0, seed=1234)
        small_l2 = replace(
            default,
            hierarchy=replace(
                default.hierarchy,
                l2=replace(default.hierarchy.l2, size=256 * 1024),
            ),
        )
        full, small = (
            run_benchmark(profile, spec, config).hierarchy_stats
            for config in (default, small_l2)
        )
        assert full.tokens_at_memory_interface == 0
        assert small.tokens_written_to_memory > 0
        assert full.tokens_filled_from_memory == 0
        assert small.tokens_filled_from_memory == 0


class TestTable3:
    def test_committed_table_matches_regenerate(self):
        """``results/table3.txt`` is what ``run_all --scale 0.5`` writes,
        including the MTE row of the added-hardware table."""
        from pathlib import Path

        from repro.experiments import table3

        committed = Path(__file__).resolve().parent.parent / "results"
        text = (committed / "table3.txt").read_text()
        assert text == table3.regenerate(scale=0.5, seed=1234) + "\n"
        assert "\nMTE  " in text


class TestStallsGolden:
    def test_committed_stalls_matches_regenerate(self):
        """``results/stalls.json`` is what ``run_all --scale 0.5`` writes.
        (``defensezoo.json`` takes too long here; CI's golden-identity
        job compares it.)"""
        from pathlib import Path

        from repro.obs import stalls

        committed = Path(__file__).resolve().parent.parent / "results"
        text = (committed / "stalls.json").read_text()
        assert text == stalls.regenerate(scale=0.5, seed=1234) + "\n"
