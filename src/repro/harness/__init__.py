"""Experiment harness: configurations, runners, metrics, reporting."""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.harness.configs": (
            "DefenseSpec",
            "SimulationConfig",
            "config_payload",
            "table2_text",
        ),
        "repro.harness.experiment": (
            "RunResult",
            "run_benchmark",
            "run_suite",
        ),
        "repro.harness.metrics": (
            "geo_mean_overhead",
            "overhead_percent",
            "weighted_mean_overhead",
        ),
        "repro.harness.parallel": (
            "TIMING_FIELDS",
            "VOLATILE_FIELDS",
            "ResultCache",
            "UnitResult",
            "WorkUnit",
            "code_version_salt",
            "execute_units",
            "failed_units",
            "strip_volatile",
        ),
        "repro.harness.reporting": ("bar_chart", "format_table"),
        "repro.harness.sweeps": ("SweepResult", "seed_sweep"),
    },
)
