"""Fast-tier analytical engine: determinism and accuracy.

No ``repro`` surface replays through :mod:`repro.fasttier` any more;
``benchmarks/e2e``'s ``cells-fast`` workload measures it as a library.
These tests call the engine directly and pin its two documented
guarantees (INTERNALS §12):

* **Memo determinism** — a warm replay (memo hit) must be
  byte-identical to the cold characterization that populated the memo,
  and must not characterize again.  The whole engine is integer
  fixed-point arithmetic, so equality is exact, not approximate.
* **Declared accuracy** — on the benchmark set ``BENCH_simulator.json``
  records, end-to-end fast-tier cycles stay within the declared
  tolerance of the cycle-accurate replay, per (workload × defense)
  cell.  The divergence is a pure function of the trace, so these
  assertions cannot flake.
"""

from dataclasses import asdict

import pytest

from repro.fasttier import (
    DECLARED_TOLERANCE,
    BlockMemo,
    FastTierEngine,
)
from repro.harness.bench import bench_specs
from repro.harness.configs import SimulationConfig
from repro.harness.experiment import build_trace, run_benchmark
from repro.workloads.spec import profile_by_name


def _make_trace(benchmark: str, spec, scale: float, seed: int):
    config = SimulationConfig(scale=scale, seed=seed)
    trace, _ = build_trace(profile_by_name(benchmark), spec, config)
    return trace, config


class TestMemoDeterminism:
    def test_warm_replay_byte_identical_to_cold(self, monkeypatch):
        spec = bench_specs()["rest-secure"]
        trace, config = _make_trace("xalancbmk", spec, 0.25, 1234)
        engine = FastTierEngine(BlockMemo())

        cold = engine.run(trace, spec, config)

        def no_characterize(*args, **kwargs):
            raise AssertionError("memo-warm run characterized again")

        # A warm run is a pure memo lookup: no cycle-accurate slice,
        # no lean pass.  That is where its speed comes from.
        monkeypatch.setattr(FastTierEngine, "_characterize", no_characterize)
        warm = engine.run(trace, spec, config)

        assert not cold.memo_hit and warm.memo_hit
        assert asdict(warm.stats) == asdict(cold.stats)
        assert asdict(warm.hierarchy_stats) == asdict(cold.hierarchy_stats)
        assert warm.divergence == cold.divergence
        assert warm.l1d_miss_rate == cold.l1d_miss_rate
        assert warm.l2_miss_rate == cold.l2_miss_rate
        # Only the memo-hit flag may differ.
        meta_cold = dict(cold.meta, memo_hit=None)
        meta_warm = dict(warm.meta, memo_hit=None)
        assert meta_warm == meta_cold

    def test_rerun_is_deterministic_across_engines(self):
        spec = bench_specs()["plain"]
        trace, config = _make_trace("gcc", spec, 0.25, 1234)
        one = FastTierEngine(BlockMemo()).run(trace, spec, config)
        two = FastTierEngine(BlockMemo()).run(trace, spec, config)
        assert asdict(one.stats) == asdict(two.stats)

    def test_memo_distinguishes_defense_modes(self):
        specs = bench_specs()
        memo = BlockMemo()
        engine = FastTierEngine(memo)
        for mode in ("rest-secure", "rest-debug"):
            trace, config = _make_trace("xalancbmk", specs[mode], 0.25, 7)
            result = engine.run(trace, specs[mode], config)
            assert not result.memo_hit  # distinct key per defense mode
        assert len(memo.entries) == 2


class TestDeclaredAccuracy:
    #: The cells ``BENCH_simulator.json`` records, at its scale.
    SCALE = 0.25
    SEED = 1234

    @pytest.mark.parametrize("mode", sorted(bench_specs()))
    def test_divergence_within_declared_tolerance(self, mode):
        spec = bench_specs()[mode]
        profile = profile_by_name("xalancbmk")
        config = SimulationConfig(scale=self.SCALE, seed=self.SEED)
        accurate = run_benchmark(profile, spec, config)
        trace, _ = build_trace(profile, spec, config)
        fast = FastTierEngine(BlockMemo()).run(trace, spec, config).stats
        divergence = (
            fast.cycles - accurate.cycles
        ) / accurate.cycles
        assert abs(divergence) <= DECLARED_TOLERANCE, (
            f"{mode}: fast {fast.cycles} vs accurate {accurate.cycles} "
            f"({100.0 * divergence:+.2f}%)"
        )
        # Same trace in, same uop count out: the fast tier replays the
        # identical instruction stream, only the pricing is analytical.
        assert fast.committed == accurate.instructions

    def test_fast_result_carries_divergence_payload(self):
        spec = bench_specs()["asan"]
        trace, config = _make_trace("xalancbmk", spec, self.SCALE, self.SEED)
        fast = FastTierEngine(BlockMemo()).run(trace, spec, config)
        assert fast.meta["tier"] == "fast"
        assert (
            fast.divergence["declared_tolerance_pct"]
            == DECLARED_TOLERANCE * 100.0
        )
        assert fast.divergence["per_block_class"], (
            "per-block-class divergence rows must be populated"
        )
