"""Table II: the simulated hardware configuration."""

from __future__ import annotations

from repro.harness.configs import table2_text


def regenerate(scale: float = 1.0, seed: int = 1234) -> str:
    return table2_text()
