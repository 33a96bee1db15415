"""Cross-cutting analyses built on the simulator and attack suite.

* :mod:`repro.analysis.coverage` — detection-coverage scoring: runs the
  full attack registry against each defense and aggregates by bug
  class, quantifying Table III's qualitative "Linear / Until realloc /
  composable" cells.
* :mod:`repro.analysis.tradeoffs` — security-performance tradeoff
  sweeps for the tunable design parameters (quarantine budget, token
  width), pairing each point's cost with the protection it buys.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.analysis.attribution": (
            "CycleBreakdown",
            "attribute_overhead",
            "breakdown",
        ),
        "repro.analysis.coverage": ("CoverageReport", "coverage_report"),
        "repro.analysis.tradeoffs": (
            "quarantine_tradeoff",
            "token_width_tradeoff",
        ),
    },
)
