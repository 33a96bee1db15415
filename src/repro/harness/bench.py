"""Simulator identity check (``python -m repro bench``).

Simulates one benchmark in each :data:`BENCH_MODES` defense mode and
records what the simulated machine did: committed micro-ops and
cycles.  Every field is a pure function of (benchmark, scale, seed),
so the committed ``BENCH_simulator.json`` equals a fresh run byte for
byte; any difference means the simulator now computes something else.

Host time is not measured here.  ``benchmarks/e2e`` is the one timing
record of this repository.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: Defense modes benchmarked, in report order.
BENCH_MODES = ("plain", "asan", "rest-secure", "rest-debug")


def bench_specs():
    """The standard defense-mode specs, keyed by the CLI mode names.

    Shared by the bench, the observed runs (``repro run``) and the
    stall-decomposition sweep artifact, so every tool agrees on what
    "rest-debug" etc. mean.
    """
    from repro.core.modes import Mode
    from repro.harness.configs import DefenseSpec

    return {
        "plain": DefenseSpec.plain(),
        "asan": DefenseSpec.asan(),
        "rest-secure": DefenseSpec.rest("Secure Full", mode=Mode.SECURE),
        "rest-debug": DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
        "mte": DefenseSpec.mte("MTE Sync", check_mode="sync"),
        "mte-async": DefenseSpec.mte("MTE Async", check_mode="async"),
        "mte-asymm": DefenseSpec.mte("MTE Asymm", check_mode="asymm"),
    }


def run_bench(
    benchmark: str = "xalancbmk",
    scale: float = 0.25,
    seed: int = 1234,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Simulate every bench mode; returns the manifest."""
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import run_benchmark
    from repro.obs.stalls import format_stall_line
    from repro.workloads.spec import profile_by_name

    specs = bench_specs()
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)

    manifest: Dict = {
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "modes": {},
    }
    for name in BENCH_MODES:
        stats = run_benchmark(profile, specs[name], config).core_stats
        entry = {"uops": stats.committed, "cycles": stats.cycles}
        manifest["modes"][name] = entry
        if progress is not None:
            progress(
                f"{name:12s} {entry['uops']:>8,} uops  "
                f"{entry['cycles']:>8,} cycles"
            )
            progress(f"{'':12s} {format_stall_line(stats)}")
    return manifest


def _flatten(node, prefix: str = "") -> Dict[str, object]:
    if not isinstance(node, dict):
        return {prefix: node}
    flat: Dict[str, object] = {}
    for key, value in node.items():
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return flat


def manifest_drift(baseline: Dict, current: Dict) -> List[str]:
    """Every field where two bench manifests differ (empty = identical).

    Each entry names the field by its dotted path, e.g.
    ``modes.asan.cycles: 63729 != 63730`` (baseline first).
    """
    base = _flatten(baseline)
    cur = _flatten(current)
    missing = "(missing)"
    return [
        f"{path}: {base.get(path, missing)} != {cur.get(path, missing)}"
        for path in sorted(base.keys() | cur.keys())
        if base.get(path, missing) != cur.get(path, missing)
    ]
