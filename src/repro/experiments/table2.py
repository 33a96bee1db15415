"""Table II: the simulated hardware configuration."""

from __future__ import annotations

from repro.experiments.common import cli_main
from repro.harness.configs import table2_text


def regenerate(scale: float = 1.0, seed: int = 1234) -> str:
    return table2_text()


if __name__ == "__main__":
    cli_main(regenerate, __doc__.splitlines()[0])
