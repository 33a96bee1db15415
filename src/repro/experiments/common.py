"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from repro.harness.configs import SimulationConfig

#: Default workload scale of a module's ``run``/``regenerate`` called
#: directly; the sweeps pass their own (``run_all.EXPERIMENT_SCALES``).
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

