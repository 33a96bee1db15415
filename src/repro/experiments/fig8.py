"""Figure 8: runtime overheads with 16B, 32B and 64B tokens.

The paper's conclusion: "choosing any single token width does not make a
significant difference in terms of performance", so users can pick the
robustness of wide tokens for free.  This module reruns the secure-mode
full/heap configurations at each supported width.
"""

from __future__ import annotations

from repro.experiments.common import DEFAULT_SCALE, make_config
from repro.harness.configs import figure8_specs
from repro.harness.experiment import run_suite
from repro.harness.metrics import geo_mean_overhead, weighted_mean_overhead
from repro.harness.reporting import bar_chart, format_table, overhead_matrix
from repro.workloads.spec import ALL_PROFILES


def run(scale: float = DEFAULT_SCALE, seed: int = 1234, progress=None):
    config = make_config(scale=scale, seed=seed)
    return run_suite(ALL_PROFILES, figure8_specs(), config,
                     progress=progress)


def render(results) -> str:
    spec_names = [s.name for s in figure8_specs()]
    matrix = overhead_matrix(results, spec_names)
    plains = [results[b]["Plain"].runtime for b in results]

    rows = [
        [bench] + [f"{overheads[name]:.1f}" for name in spec_names]
        for bench, overheads in matrix.items()
    ]
    wtd_row = ["WtdAriMean"]
    geo_row = ["GeoMean"]
    for name in spec_names:
        runtimes = [results[b][name].runtime for b in results]
        wtd_row.append(f"{weighted_mean_overhead(runtimes, plains):.1f}")
        geo_row.append(f"{geo_mean_overhead(runtimes, plains):.1f}")
    rows += [wtd_row, geo_row]

    table = format_table(
        ["benchmark"] + spec_names,
        rows,
        title=(
            "Figure 8: Runtime overheads (%) of 16B, 32B and 64B tokens "
            "in secure mode (full and heap safety)"
        ),
    )
    # Width sensitivity: max spread between widths per scope.
    spreads = []
    for scope in ("Full", "Heap"):
        means = [
            weighted_mean_overhead(
                [results[b][f"{w} {scope}"].runtime for b in results], plains
            )
            for w in (16, 32, 64)
        ]
        spreads.append(
            f"{scope}: widths 16/32/64 -> "
            + "/".join(f"{m:.2f}%" for m in means)
            + f" (spread {max(means) - min(means):.2f} pp)"
        )
    chart = bar_chart(
        matrix, title="Figure 8 (bars, % overhead over Plain)", clamp=90.0
    )
    return table + "\n\n" + "\n".join(spreads) + "\n\n" + chart


def regenerate(scale: float = DEFAULT_SCALE, seed: int = 1234) -> str:
    return render(run(scale=scale, seed=seed))
