"""Security analysis: measured coverage and design-knob tradeoffs.

Quantifies Section V's qualitative discussion: per-bug-class detection
fractions for each defense (the numbers behind Table III's words), the
quarantine-budget protection-window curve, and the token-width
security/cost curve (§III-B, §V-B, §V-C).
"""

from __future__ import annotations

from repro.analysis import (
    coverage_report,
    quarantine_tradeoff,
    token_width_tradeoff,
)
from repro.analysis.coverage import ATTACK_CLASSES
from repro.experiments.common import ATTACK_COLUMNS
from repro.harness.reporting import format_table


def _coverage_table() -> str:
    reports = {
        label: coverage_report(mode) for label, mode in ATTACK_COLUMNS.items()
    }
    rows = []
    for class_name in ATTACK_CLASSES:
        row = [class_name]
        for name in ATTACK_COLUMNS:
            fraction = reports[name].stopped_fraction(class_name)
            row.append(f"{fraction:.0%}")
        rows.append(row)
    table = format_table(
        ["bug class (applicable attacks stopped)"] + list(ATTACK_COLUMNS),
        rows,
        title="Measured detection coverage by bug class",
    )
    rest_missed = ", ".join(reports["rest (full)"].missed_attacks())
    return (
        table
        + f"\nREST's misses, all documented in the paper: {rest_missed}"
    )


def _quarantine_table() -> str:
    rows = [
        [
            f"{p.budget_bytes:,}",
            p.protection_window,
            f"{p.peak_quarantine_bytes:,}",
            p.token_instructions,
        ]
        for p in quarantine_tradeoff()
    ]
    return format_table(
        [
            "quarantine budget (B)",
            "UAF window (frees)",
            "peak held bytes",
            "token instrs",
        ],
        rows,
        title="Quarantine budget vs temporal-protection window (§IV-A)",
    )


def _width_table() -> str:
    rows = [
        [
            f"{p.width} B",
            p.secret_bits,
            f"{p.max_pad_false_negative} B",
            p.arms_per_4k_blacklist,
            f"{p.guaranteed_detection_at} B",
        ]
        for p in token_width_tradeoff()
    ]
    return format_table(
        [
            "token width",
            "secret bits",
            "worst pad miss",
            "arms / 4 KiB blacklist",
            "detection guaranteed at",
        ],
        rows,
        title="Token width tradeoffs (§III-B, §V-B, §V-C)",
    )


def regenerate(scale: float = 1.0, seed: int = 1234) -> str:
    return "\n\n".join(
        [_coverage_table(), _quarantine_table(), _width_table()]
    )
