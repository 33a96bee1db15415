"""Figure 7: runtime overheads of ASan and REST vs the plain binary.

Reproduces the paper's eight bars per benchmark — ASan, and REST in
{debug, secure, perfect-hardware} x {full, heap} — plus the weighted
arithmetic mean (footnote 5) and geometric mean (footnote 6) columns.

Paper-reported headline values (for comparison):

* REST secure:   2% overhead (full), heap within 0.16% of full
* REST debug:    25% (full) / 23% (heap)
* PerfectHW:     0.2% (full) / 0.03% (heap) below secure
* ASan:          high overhead with test inputs; gcc and xalancbmk are
                 outliers (allocator-dominated, labelled 240-450%)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import DEFAULT_SCALE, make_config
from repro.harness.configs import figure7_specs
from repro.harness.experiment import run_suite
from repro.harness.metrics import geo_mean_overhead, weighted_mean_overhead
from repro.harness.reporting import bar_chart, format_table, overhead_matrix
from repro.workloads.spec import ALL_PROFILES

PAPER_VALUES = {
    "Secure Full": 2.0,
    "Secure Heap": 1.8,
    "Debug Full": 25.0,
    "Debug Heap": 23.0,
}


def run(scale: float = DEFAULT_SCALE, seed: int = 1234, progress=None):
    """Run the full Figure 7 suite; returns results[bench][spec]."""
    config = make_config(scale=scale, seed=seed)
    return run_suite(ALL_PROFILES, figure7_specs(), config,
                     progress=progress)


def render(results) -> str:
    spec_names = [s.name for s in figure7_specs()]
    matrix = overhead_matrix(results, spec_names)
    plains = [results[b]["Plain"].runtime for b in results]

    rows = []
    for bench, overheads in matrix.items():
        rows.append(
            [bench] + [f"{overheads[name]:.1f}" for name in spec_names]
        )
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
            "Figure 7: Runtime overheads (%) of ASan and REST in debug, "
            "secure, and perfect-hardware modes, full and heap safety"
        ),
    )
    chart = bar_chart(
        {bench: overheads for bench, overheads in matrix.items()},
        title="Figure 7 (bars, % overhead over Plain)",
        clamp=180.0,
    )
    return table + "\n\n" + chart


def regenerate(scale: float = DEFAULT_SCALE, seed: int = 1234) -> str:
    return render(run(scale=scale, seed=seed))
