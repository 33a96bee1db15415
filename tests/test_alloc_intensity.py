"""What the ``alloc_intensity`` calibration knob decides.

``SimulationConfig.alloc_intensity`` (default x25) compresses allocator
churn into the scaled-down traces.  It sets both Figure 7 REST
headlines: on an allocation-heavy benchmark the secure and debug
overheads rise with it, and on an allocation-free benchmark it moves
nothing at all.  Scale 0.2 keeps the twelve runs to about 2 s.
"""

from functools import lru_cache

import pytest

from repro.harness.bench import bench_specs
from repro.harness.configs import SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.workloads.spec import profile_by_name

SCALE = 0.2
MODES = ("plain", "rest-secure", "rest-debug")  # Plain, Secure/Debug Full


@lru_cache(maxsize=None)
def _cycles(benchmark, alloc_intensity):
    config = SimulationConfig(
        scale=SCALE, seed=1234, alloc_intensity=alloc_intensity
    )
    specs = bench_specs()
    return {
        mode: run_benchmark(
            profile_by_name(benchmark), specs[mode], config
        ).cycles
        for mode in MODES
    }


def _overhead(cycles, mode):
    return cycles[mode] / cycles["plain"] - 1


@pytest.mark.parametrize("mode", ["rest-secure", "rest-debug"])
def test_alloc_heavy_overhead_rises_with_intensity(mode):
    assert profile_by_name("gcc").allocs_per_kilo > 0
    low, high = _cycles("gcc", 1), _cycles("gcc", 25)
    assert _overhead(high, mode) > _overhead(low, mode)


def test_alloc_free_cycles_do_not_move():
    assert profile_by_name("lbm").allocs_per_kilo == 0
    assert _cycles("lbm", 1) == _cycles("lbm", 25)
