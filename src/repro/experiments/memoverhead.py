"""Memory-overhead comparison (paper §VII, Bounds Checking discussion).

The paper argues REST's memory overhead scales with the number of
*protected data structures* (redzones + quarantine), not with pointer
count, and needs no shadow space — unlike Watchdog/WatchdogLite, which
reported ~56% extra memory for SPEC, or ASan, which shadows the entire
address space at 1/8 ratio on top of its redzones.

This experiment measures, per benchmark: reserved/requested heap ratio
for each allocator, shadow-region bytes actually touched (ASan), and
the REST-native fast allocator's improvement from shared guards.
"""

from __future__ import annotations

from typing import Dict

from repro.defenses import RestDefense, get_plugin
from repro.experiments.common import DEFAULT_SCALE
from repro.harness.reporting import format_table
from repro.runtime.machine import ExecutionMode, Machine
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.spec import ALL_PROFILES


def _measure(profile, defense_factory, scale: float, seed: int) -> Dict[str, float]:
    machine = Machine(mode=ExecutionMode.TRACE)
    defense = defense_factory(machine)
    SyntheticWorkload(profile, defense, seed=seed, scale=scale).run()
    stats = defense.allocator.stats
    shadow_bytes = 0
    shadow = getattr(defense, "shadow", None)
    if shadow is not None:
        shadow_bytes = len(shadow._mirror)  # one byte per touched granule
    return {
        "requested": stats.bytes_requested,
        "reserved": stats.bytes_reserved,
        "ratio": stats.memory_overhead_ratio,
        "shadow": shadow_bytes,
    }


def regenerate(scale: float = DEFAULT_SCALE, seed: int = 1234) -> str:
    # Memory overhead is measured in the trace phase (allocator and
    # shadow bookkeeping); there is no replay.
    factories = {
        label: get_plugin(label).factory for label in ("plain", "asan", "rest")
    }
    # An allocator variant of REST, not a registered mode.
    factories["rest (fast)"] = lambda m: RestDefense(m, allocator="fast")
    rows = []
    totals = {name: [0, 0, 0] for name in factories}
    for profile in ALL_PROFILES:
        row = [profile.name]
        for name, factory in factories.items():
            measured = _measure(profile, factory, scale, seed)
            totals[name][0] += measured["requested"]
            totals[name][1] += measured["reserved"]
            totals[name][2] += measured["shadow"]
            row.append(f"{(measured['ratio'] - 1) * 100:.0f}%")
        rows.append(row)
    summary = ["TOTAL"]
    for name in factories:
        requested, reserved, _ = totals[name]
        ratio = reserved / requested if requested else 1.0
        summary.append(f"{(ratio - 1) * 100:.0f}%")
    rows.append(summary)
    table = format_table(
        ["benchmark"] + [f"{name} overhead" for name in factories],
        rows,
        title=(
            "Heap memory overhead (reserved vs requested) per allocator\n"
            "(paper §VII: Watchdog reported ~56% extra memory; REST "
            "scales with protected structures, no shadow space)"
        ),
    )
    shadow_note = (
        f"\nASan additionally touched {totals['asan'][2]:,} shadow bytes "
        "across the suite (a 1/8-of-address-space reservation in real "
        "deployments); REST's metadata lives in place of data: 0 shadow "
        "bytes."
    )
    return table + shadow_note
