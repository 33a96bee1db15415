"""Figure 3: breakdown of ASan's overhead sources.

The paper instruments an in-order core and attributes ASan's slowdown
to four components (§II): 1. the security-first allocator, 2. stack
frame setup, 3. memory access validation, 4. libc API interception.
We reproduce the breakdown by enabling the components cumulatively and
differencing the overheads, on the same in-order core configuration.

Expected shape: memory-access validation is "the most persistent and
grievous source of overhead", while the allocator dominates for
benchmarks that allocate frequently (gcc, xalancbmk).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cpu.pipeline import CoreConfig
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_suite
from repro.harness.reporting import bar_chart, format_table
from repro.workloads.spec import ALL_PROFILES

#: Cumulative component stack, bottom-up as in the paper's legend.
COMPONENTS = [
    ("Allocator", dict(asan_allocator=True, asan_stack=False, asan_checks=False, asan_intercepts=False)),
    ("Stack Frame Setup", dict(asan_allocator=True, asan_stack=True, asan_checks=False, asan_intercepts=False)),
    ("Memory Access Validation", dict(asan_allocator=True, asan_stack=True, asan_checks=True, asan_intercepts=False)),
    ("API Intercept", dict(asan_allocator=True, asan_stack=True, asan_checks=True, asan_intercepts=True)),
]


def run(scale: float, seed: int, progress=None):
    specs = [
        DefenseSpec.asan(name=f"cum:{label}", **toggles)
        for label, toggles in COMPONENTS
    ]
    config = SimulationConfig(
        core=CoreConfig.in_order(), scale=scale, seed=seed
    )
    return run_suite(ALL_PROFILES, specs, config, progress=progress)


def breakdown(results) -> Dict[str, Dict[str, float]]:
    """Per-benchmark per-component overhead percentages."""
    out: Dict[str, Dict[str, float]] = {}
    for bench, per_bench in results.items():
        plain = per_bench["Plain"].runtime
        previous = 0.0
        parts: Dict[str, float] = {}
        for label, _ in COMPONENTS:
            cumulative = (per_bench[f"cum:{label}"].runtime / plain - 1.0) * 100.0
            parts[label] = cumulative - previous
            previous = cumulative
        out[bench] = parts
    return out


def render(results) -> str:
    parts = breakdown(results)
    labels = [label for label, _ in COMPONENTS]
    rows: List[List[object]] = []
    for bench, components in parts.items():
        total = sum(components.values())
        rows.append(
            [bench]
            + [f"{components[label]:.1f}" for label in labels]
            + [f"{total:.1f}"]
        )
    table = format_table(
        ["benchmark"] + labels + ["total"],
        rows,
        title=(
            "Figure 3: Breakdown of ASan overhead sources (%) relative "
            "to a plain binary using libc's allocator (in-order core)"
        ),
    )
    chart = bar_chart(
        parts, title="Figure 3 (stacked components, % overhead)", clamp=250.0
    )
    return table + "\n\n" + chart


def regenerate(scale: float, seed: int) -> str:
    return render(run(scale=scale, seed=seed))
