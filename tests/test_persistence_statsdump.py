"""Tests for the gem5-style stats dump."""

import pytest

from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.harness.statsdump import format_stats
from repro.workloads.spec import profile_by_name

QUICK = SimulationConfig(scale=0.05)


@pytest.fixture(scope="module")
def one_result():
    return run_benchmark(
        profile_by_name("sjeng"), DefenseSpec.rest("Secure Full"), QUICK
    )


class TestStatsDump:
    def test_contains_key_counters(self, one_result):
        text = format_stats(one_result)
        for name in (
            "sim.cycles",
            "sim.ipc",
            "core.rob.blocked_by_store",
            "l1d.miss_rate",
            "rest.arms",
            "commit.op.alu",
        ):
            assert name in text

    def test_headerless_mode(self, one_result):
        text = format_stats(one_result, header=False)
        assert "Begin Simulation" not in text

    def test_every_line_has_description(self, one_result):
        for line in format_stats(one_result, header=False).splitlines():
            assert "#" in line

    def test_every_corestats_counter_is_surfaced(self, one_result):
        """Reflection: no CoreStats field may silently vanish."""
        import dataclasses

        from repro.cpu.stats import CoreStats
        from repro.harness.statsdump import _CORE_COUNTER_ROWS

        names = {
            line.split()[0]
            for line in format_stats(one_result, header=False).splitlines()
        }
        for field in dataclasses.fields(CoreStats):
            mapping = _CORE_COUNTER_ROWS.get(
                field.name, (f"core.{field.name}", "")
            )
            if mapping is None:
                continue  # surfaced through sim.* / commit.op.* rows
            assert mapping[0] in names, (
                f"CoreStats.{field.name} missing from the stats dump"
            )
        # ...and the None-mapped fields really are surfaced elsewhere.
        assert {"sim.cycles", "sim.insts"} <= names
        assert any(name.startswith("commit.op.") for name in names)

    def test_previously_omitted_counters_present(self, one_result):
        text = format_stats(one_result, header=False)
        for name in (
            "core.lsq.lq_full_cycles",
            "core.lsq.sq_full_cycles",
            "core.bpred.mispredict_stall_cycles",
            "core.mem.dram_stall_cycles",
            "core.commit.active_cycles",
        ):
            assert name in text

    def test_stall_rows_sum_to_cycles(self, one_result):
        from repro.obs.stalls import STALL_BUCKETS

        values = {}
        for line in format_stats(one_result, header=False).splitlines():
            name, value = line.split()[:2]
            values[name] = value
        for bucket in STALL_BUCKETS:
            assert f"stall.{bucket}" in values
        stall_total = sum(
            int(value)
            for name, value in values.items()
            if name.startswith("stall.")
        )
        assert stall_total == int(values["sim.cycles"])
