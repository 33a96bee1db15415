"""Experiment: hand-written attack suite × defense outcome matrix.

The Table III regression lock, as a regenerable experiment: every
registered attack in :mod:`repro.workloads.attacks` runs against every
canonical defense mode and the outcome grid is printed.  The committed
golden (``results/attack_matrix_golden.json``) pins this grid; the
``test_attack_matrix_golden`` test fails on any drift.
"""

from __future__ import annotations


def regenerate(scale: float, seed: int) -> str:
    """Outcome grid text (scale/seed accepted for harness uniformity;
    the suite is deterministic and ignores both)."""
    from repro.foundry.matrix import (
        handwritten_matrix,
        render_attack_matrix_text,
    )

    return render_attack_matrix_text(handwritten_matrix())
