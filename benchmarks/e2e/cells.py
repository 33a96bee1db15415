"""``cells-accurate`` and ``cells-fast``: one simulation cell per operation.

A cell is one benchmark model under one defense mode: trace generation
followed by replay on a fresh memory hierarchy, so the modelled caches
start empty.  The three benchmarks stress different parts of the
model: xalancbmk is allocator-heavy with a large code footprint (asan
inflates its micro-ops 3.3x), lbm streams a footprint far beyond the
L2, and sjeng is branchy and never allocates.  An allocator, cache
model or squash-path change therefore shows on a different cell.

``cells-fast`` runs the same cells through the analytical fast tier:
each cell is characterized against a fresh block memo (cold, the
operation) and then replayed once memo-warm (checked, not timed into
the operation).  Its scale stays at 1.0 because at small scales the
cold fast tier is no faster than accurate replay.

Each cell is timed in this process, bracketed by host probes (see
``common.normalized``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from common import Op, Outcome

_CELLS = {
    "benchmarks": ["xalancbmk", "lbm", "sjeng"],
    "modes": ["plain", "asan", "rest-secure", "rest-debug"],
}
_QUICK = {"benchmarks": ["sjeng"], "modes": ["plain", "asan"], "scale": 0.05}

#: Shapes by tier.  Accurate cells run at half scale so a pass takes
#: about as long as a fast-tier pass at full scale (6 s here): three
#: passes fit one run, where scale 1.0 gave two and a run overshot its
#: time by a whole 12-second pass.
SHAPES = {
    "accurate": {"full": {**_CELLS, "scale": 0.5}, "quick": _QUICK},
    "fast": {"full": {**_CELLS, "scale": 1.0}, "quick": _QUICK},
}


def defense_specs() -> Dict:
    """The four defense modes the cells run, by benchmark-report name."""
    from repro.core.modes import Mode
    from repro.harness.configs import DefenseSpec

    return {
        "plain": DefenseSpec.plain(),
        "asan": DefenseSpec.asan(),
        "rest-secure": DefenseSpec.rest("Secure Full", mode=Mode.SECURE),
        "rest-debug": DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
    }


def prepare(shape: Dict, seed: int) -> List[Dict]:
    """Import the simulation stack and build each cell's inputs.

    This is the work a fresh process does before its first cell, and
    what ``setup_s`` times in a child process.
    """
    import repro.fasttier  # noqa: F401 — part of a cells process's set-up
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import run_benchmark  # noqa: F401
    from repro.workloads.spec import profile_by_name

    specs = defense_specs()
    return [
        {
            "name": f"{bench}/{mode}",
            "mode": mode,
            "profile": profile_by_name(bench),
            "spec": specs[mode],
            "config": SimulationConfig(scale=shape["scale"], seed=seed),
        }
        for bench in shape["benchmarks"]
        for mode in shape["modes"]
    ]


def _generate(cell: Dict):
    from repro.harness.experiment import build_defense, make_trace_machine
    from repro.workloads.generator import SyntheticWorkload

    config = cell["config"]
    machine = make_trace_machine(cell["spec"])
    defense = build_defense(machine, cell["spec"])
    SyntheticWorkload(
        cell["profile"],
        defense,
        seed=config.seed,
        scale=config.scale,
        alloc_intensity=config.alloc_intensity,
    ).run()
    return machine.take_trace()


def _span(rec, name: str, request: Optional[str] = None):
    return nullcontext({}) if rec is None else rec.span(name, request)


class CellsWorkload:
    """Both cells workloads; ``tier`` selects accurate or fast replay."""

    setup_role = "cells"

    def __init__(self, tier: str, shape: Dict, seed: int, pins: Optional[Dict]):
        self.tier = tier
        self.shape = shape
        self.seed = seed
        self.pins = pins
        self.cells = prepare(shape, seed)
        #: per-cell deterministic outputs of the latest pass
        self.observed: Dict[str, Dict] = {}
        #: per-cell wall seconds of the latest pass's fast cold runs
        self.cold_s: Dict[str, float] = {}

    def run_pass(self, outcome: Outcome, rec=None) -> None:
        with nullcontext() if rec is None else rec.profiled():
            for cell in self.cells:
                if self.tier == "accurate":
                    self._accurate(cell, outcome, rec)
                else:
                    self._fast(cell, outcome, rec)

    def _accurate(self, cell: Dict, outcome: Outcome, rec) -> None:
        from repro.harness.experiment import run_benchmark

        with outcome.timed(cell["name"]) as op, _span(rec, "cell", cell["name"]):
            result = run_benchmark(cell["profile"], cell["spec"], cell["config"])
        observed = {
            "uops": result.instructions,
            "cycles": result.cycles,
            "stall_buckets": self._check_buckets(op, result.core_stats, outcome),
        }
        self.observed[cell["name"]] = observed
        self._check_pins(op, observed, outcome)

    @staticmethod
    def _check_buckets(op: Op, stats, outcome: Outcome) -> Dict[str, int]:
        """Stall buckets must account for every cycle exactly."""
        from repro.obs.stalls import stall_buckets

        buckets = stall_buckets(stats)
        if sum(buckets.values()) != stats.cycles:
            outcome.fail(op, f"stall buckets sum to {sum(buckets.values())}, "
                             f"not {stats.cycles} cycles")
        return buckets

    def _fast(self, cell: Dict, outcome: Outcome, rec) -> None:
        from repro.fasttier import BlockMemo, FastTierEngine

        with outcome.timed(cell["name"]) as op, _span(rec, "cell", cell["name"]):
            trace = _generate(cell)
            engine = FastTierEngine(BlockMemo())
            t_cold = time.perf_counter()
            with _span(rec, "fasttier.cold"):
                cold = engine.run(trace, cell["spec"], cell["config"])
            self.cold_s[cell["name"]] = time.perf_counter() - t_cold
        with _span(rec, "fasttier.warm", cell["name"]):
            warm = engine.run(trace, cell["spec"], cell["config"])
        if not warm.memo_hit or warm.stats != cold.stats:
            outcome.fail(op, "memo-warm fast-tier replay differs from the cold run")
        self._check_buckets(op, cold.stats, outcome)
        observed = {"uops": cold.stats.committed, "cycles": cold.stats.cycles}
        self.observed[cell["name"]] = observed
        pinned = (self.pins or {}).get("cells", {}).get(cell["name"])
        if pinned is not None:
            observed["divergence_pct"] = divergence_pct(
                cold.stats.cycles, pinned["accurate_cycles"]
            )
            observed["accurate_cycles"] = pinned["accurate_cycles"]
        self._check_pins(op, observed, outcome)

    def _check_pins(self, op: Op, observed: Dict, outcome: Outcome) -> None:
        if self.pins is None:
            return
        pinned = self.pins["cells"].get(op.name)
        if pinned is None:
            outcome.fail(op, "no pinned output in expected.json")
            return
        for key, value in pinned.items():
            if observed.get(key) != value:
                outcome.fail(op, f"{key} is {observed.get(key)}, expected {value}")

    def pin(self) -> Dict:
        """The pins ``expected.json`` stores for the latest pass."""
        return {"cells": self.observed}

    def traced_values(self, untraced_cold_s: Dict[str, float]) -> Dict[str, float]:
        """Fast-tier error (magnitude) and cold speed-up against accurate
        replay, per defense mode (``cells-fast`` only).

        Replays each cell's trace cycle-accurately, outside the traced
        and profiled region, and compares with the untraced pass's
        cold fast-tier times.
        """
        from repro.cpu.pipeline import OutOfOrderCore
        from repro.harness.experiment import _make_hierarchy

        values: Dict[str, float] = {}
        per_mode: Dict[str, List[float]] = {}
        for cell in self.cells:
            trace = _generate(cell)
            core = OutOfOrderCore(
                _make_hierarchy(cell["spec"], cell["config"]),
                config=cell["config"].core,
            )
            t0 = time.perf_counter()
            stats = core.run(trace)
            accurate_s = time.perf_counter() - t0
            sums = per_mode.setdefault(cell["mode"], [0.0, 0.0, 0, 0])
            sums[0] += accurate_s
            sums[1] += untraced_cold_s[cell["name"]]
            sums[2] += self.observed[cell["name"]]["cycles"]
            sums[3] += stats.cycles
        for mode, (accurate_s, cold_s, fast_cycles, cycles) in per_mode.items():
            values[f"fasttier.cold_speedup.{mode}"] = accurate_s / cold_s
            values[f"fasttier.divergence_pct.{mode}"] = abs(
                divergence_pct(fast_cycles, cycles)
            )
        return values


def divergence_pct(fast_cycles: int, accurate_cycles: int) -> float:
    """Fast-tier cycle error against the accurate tier, in percent."""
    return round(100.0 * (fast_cycles - accurate_cycles) / accurate_cycles, 4)
