"""Table II: the simulated hardware configuration."""

from __future__ import annotations

from repro.harness.configs import table2_text


def regenerate(scale: float, seed: int) -> str:
    return table2_text()
