"""Smoke tests for the experiment modules (subset scale, full paths)."""

import pytest

from repro.workloads.spec import profile_by_name

TWO_PROFILES = (profile_by_name("sjeng"), profile_by_name("xalancbmk"))


class TestFig7:
    def test_run_and_render(self, monkeypatch):
        from repro.experiments import fig7

        monkeypatch.setattr(fig7, "ALL_PROFILES", TWO_PROFILES)
        results = fig7.run(scale=0.02)
        text = fig7.render(results)
        assert "WtdAriMean" in text and "GeoMean" in text
        assert "Secure Full" in text
        assert "xalancbmk" in text and "sjeng" in text

    def test_all_eight_configs_present(self, monkeypatch):
        from repro.experiments import fig7

        monkeypatch.setattr(fig7, "ALL_PROFILES", TWO_PROFILES[:1])
        results = fig7.run(scale=0.02)
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
        text = fig8.render(fig8.run(scale=0.02))
        for label in ("16 Full", "32 Heap", "64 Full"):
            assert label in text
        assert "spread" in text


class TestFig3:
    def test_breakdown_components_sum_to_total(self, monkeypatch):
        from repro.experiments import fig3

        monkeypatch.setattr(fig3, "ALL_PROFILES", TWO_PROFILES[:1])
        results = fig3.run(scale=0.02)
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
        text = fig3.render(fig3.run(scale=0.02))
        assert "Memory Access Validation" in text
        assert "Allocator" in text


class TestMemOverhead:
    def test_regenerate_small(self, monkeypatch):
        from repro.experiments import memoverhead

        monkeypatch.setattr(memoverhead, "ALL_PROFILES", TWO_PROFILES)
        text = memoverhead.regenerate(scale=0.05)
        assert "TOTAL" in text
        assert "shadow bytes" in text


class TestIntext:
    def test_regenerate_small(self, monkeypatch):
        from repro.experiments import intext as module

        monkeypatch.setattr(module, "ALL_PROFILES", TWO_PROFILES[:1])
        text = module.regenerate(scale=0.02)
        assert "ROB blocked-by-store cycles" in text
        assert "Secure Full - Secure Heap" in text


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
