"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import argparse
from typing import Callable

from repro.harness.configs import SimulationConfig

#: Default workload scale for command-line runs.  0.35 keeps a full
#: Figure 7 sweep (12 benchmarks x 8 configurations) under a minute.
DEFAULT_SCALE = 0.35

#: Column label -> registered defense mode, for the attack-suite tables
#: (Table III's detection matrix, the security coverage table).
ATTACK_COLUMNS = {
    "plain": "plain",
    "asan": "asan",
    "rest (full)": "rest",
    "rest (heap)": "rest-heap",
}


def make_config(scale: float = DEFAULT_SCALE, seed: int = 1234) -> SimulationConfig:
    return SimulationConfig(scale=scale, seed=seed)


def cli_main(regenerate: Callable[..., str], description: str) -> None:
    """Standard __main__ entry: parse --scale/--seed, print the result."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="workload scale factor (1.0 = 40k app instructions/benchmark)",
    )
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()
    print(regenerate(scale=args.scale, seed=args.seed))
