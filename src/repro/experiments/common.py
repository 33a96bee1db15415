"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from repro.harness.configs import SimulationConfig

#: Column label -> registered defense mode, for the attack-suite tables
#: (Table III's detection matrix, the security coverage table).
ATTACK_COLUMNS = {
    "plain": "plain",
    "asan": "asan",
    "rest (full)": "rest",
    "rest (heap)": "rest-heap",
}


def make_config(scale: float, seed: int) -> SimulationConfig:
    return SimulationConfig(scale=scale, seed=seed)

