"""Experiment: the defense zoo — REST vs MTE vs ASan, one artifact.

Every defense the plugin registry knows is scored on the same two axes
the paper argues about:

* **Overhead** — the full workload suite runs under Plain, ASan, REST
  (secure full) and the three MTE check modes; per-benchmark overhead
  percentages, the suite geomean, and the geomean over the
  allocator-heavy subset (the workloads where redzone/tagging costs
  actually show) are recorded.
* **Coverage** — a seeded foundry corpus plus the hand-written Table
  III suite run under the same modes; the per-family detection cells,
  oracle-misprediction count (must be zero), and detection-latency
  percentiles (sync vs async MTE delivery) are recorded.

The output is canonical JSON (``indent=1, sort_keys=True``): the same
(scale, seed) always produces byte-identical bytes, cold or warm cache,
at any job count — the file is diffable in CI.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

SCHEMA = "rest-repro/defense-zoo/v1"

#: Workload-suite spec labels, in report order (Plain is the baseline).
OVERHEAD_MODES = (
    "ASan",
    "REST Secure",
    "MTE Sync",
    "MTE Async",
    "MTE Asymm",
)

#: Foundry defense axis for the coverage half of the matrix.
COVERAGE_DEFENSES = ("none", "asan", "rest", "mte", "mte-async")

#: Hand-written suite axis (Table III outcomes per mode).
ATTACK_DEFENSES = ("asan", "rest", "mte", "mte-async", "mte-asymm")

#: A benchmark is "alloc-heavy" above this allocation rate — these are
#: the workloads where allocator-side defense costs dominate (paper
#: Figure 3: gcc and xalancbmk).
ALLOC_HEAVY_PER_KILO = 0.1


def _specs() -> List:
    from repro.harness.configs import DefenseSpec
    from repro.core.modes import Mode

    return [
        DefenseSpec.asan("ASan"),
        DefenseSpec.rest("REST Secure", mode=Mode.SECURE,
                         protect_stack=True),
        DefenseSpec.mte("MTE Sync", "sync"),
        DefenseSpec.mte("MTE Async", "async"),
        DefenseSpec.mte("MTE Asymm", "asymm"),
    ]


def run(
    scale: float,
    seed: int,
    progress: Optional[object] = None,
    foundry_seed: int = 7,
) -> Dict:
    """Compute the zoo payload (see module docstring for the axes)."""
    from repro.experiments.common import make_config
    from repro.foundry.runner import run_foundry
    from repro.foundry.matrix import handwritten_matrix
    from repro.harness.experiment import run_suite
    from repro.harness.metrics import geo_mean_overhead
    from repro.core.hwcost import mte_cost, rest_cost
    from repro.workloads.spec import ALL_PROFILES

    config = make_config(scale=scale, seed=seed)
    results = run_suite(ALL_PROFILES, _specs(), config, progress=progress)

    benchmarks: Dict[str, Dict[str, float]] = {}
    for profile in ALL_PROFILES:
        per_bench = results[profile.name]
        plain = per_bench["Plain"].runtime
        benchmarks[profile.name] = {
            mode: round((per_bench[mode].runtime / plain - 1.0) * 100.0, 2)
            for mode in OVERHEAD_MODES
        }
    alloc_heavy = [
        p.name for p in ALL_PROFILES
        if p.allocs_per_kilo >= ALLOC_HEAVY_PER_KILO
    ]
    plains = [results[b]["Plain"].runtime for b in results]
    heavy_plains = [results[b]["Plain"].runtime for b in alloc_heavy]
    geomean: Dict[str, float] = {}
    heavy_geomean: Dict[str, float] = {}
    for mode in OVERHEAD_MODES:
        runtimes = [results[b][mode].runtime for b in results]
        geomean[mode] = round(geo_mean_overhead(runtimes, plains), 2)
        heavy = [results[b][mode].runtime for b in alloc_heavy]
        heavy_geomean[mode] = round(
            geo_mean_overhead(heavy, heavy_plains), 2
        )

    cases = max(18, int(120 * scale))
    matrix = run_foundry(
        foundry_seed, cases, defenses=COVERAGE_DEFENSES, jobs=1
    )
    attacks = handwritten_matrix(ATTACK_DEFENSES)

    return {
        "schema": SCHEMA,
        "scale": scale,
        "seed": seed,
        "overhead": {
            "modes": list(OVERHEAD_MODES),
            "benchmarks": benchmarks,
            "geomean": geomean,
            "alloc_heavy": alloc_heavy,
            "alloc_heavy_geomean": heavy_geomean,
        },
        "coverage": {
            "foundry_seed": foundry_seed,
            "foundry_cases": cases,
            "defenses": list(COVERAGE_DEFENSES),
            "cells": matrix["cells"],
            "latency": matrix["latency"],
            "mispredictions": len(matrix["mispredictions"]),
            "rest_false_negatives": matrix["rest_false_negatives"],
            "attacks": attacks["attacks"],
            "attack_defenses": list(ATTACK_DEFENSES),
        },
        "hardware": {
            "rest": {
                "memory_overhead_pct": round(
                    rest_cost().storage_overhead_fraction * 100.0, 4
                ),
            },
            "mte": {
                "memory_overhead_pct": round(
                    mte_cost().memory_overhead_fraction * 100.0, 4
                ),
                "l1_tag_bits": mte_cost().l1_tag_bits,
            },
        },
    }


def to_json(payload: Dict) -> str:
    """Canonical byte representation, sans trailing newline (the
    run_all writer appends exactly one)."""
    return json.dumps(payload, indent=1, sort_keys=True)


def render_text(payload: Dict) -> str:
    """Human-readable summary of the zoo (CLI / report page)."""
    overhead = payload["overhead"]
    coverage = payload["coverage"]
    lines = [
        "Defense zoo — REST vs MTE vs ASan "
        f"(scale {payload['scale']}, seed {payload['seed']})",
        "=" * 72,
        "",
        "runtime overhead over Plain (%):",
    ]
    modes = overhead["modes"]
    width = max(len(b) for b in overhead["benchmarks"]) + 2
    lines.append(" " * width + "".join(f"{m:>12}" for m in modes))
    for bench, row in overhead["benchmarks"].items():
        lines.append(
            f"{bench:<{width}}" + "".join(f"{row[m]:>12.2f}" for m in modes)
        )
    lines.append(
        f"{'GeoMean':<{width}}"
        + "".join(f"{overhead['geomean'][m]:>12.2f}" for m in modes)
    )
    lines.append(
        f"{'GeoMean(alloc)':<{width}}"
        + "".join(
            f"{overhead['alloc_heavy_geomean'][m]:>12.2f}" for m in modes
        )
    )
    lines.append(
        f"  alloc-heavy subset: {', '.join(overhead['alloc_heavy'])}"
    )
    lines.append("")
    lines.append(
        f"foundry coverage (seed {coverage['foundry_seed']}, "
        f"{coverage['foundry_cases']} cases) — detected/missed:"
    )
    defenses = coverage["defenses"]
    fam_width = max(len(f) for f in coverage["cells"]) + 2
    lines.append(" " * fam_width + "".join(f"{d:>12}" for d in defenses))
    for family, cells in coverage["cells"].items():
        row = f"{family:<{fam_width}}"
        for defense in defenses:
            cell = cells[defense]
            row += f"{cell['detected']:>6}/{cell['missed']:<5}"
        lines.append(row)
    for defense in defenses:
        stats = coverage["latency"][defense]
        if stats["count"]:
            lines.append(
                f"detection latency [{defense}]: p50={stats['p50']} "
                f"p90={stats['p90']} max={stats['max']} cycles"
            )
    lines.append(
        f"oracle mispredictions: {coverage['mispredictions']}"
    )
    hardware = payload["hardware"]
    lines.append("")
    lines.append(
        f"hardware memory overhead: REST "
        f"{hardware['rest']['memory_overhead_pct']}% vs MTE "
        f"{hardware['mte']['memory_overhead_pct']}% "
        f"(+{hardware['mte']['l1_tag_bits']} L1-D tag bits)"
    )
    return "\n".join(lines)


def regenerate(scale: float, seed: int) -> str:
    """Canonical JSON for run_all (written as ``defensezoo.json``)."""
    return to_json(run(scale=scale, seed=seed))
