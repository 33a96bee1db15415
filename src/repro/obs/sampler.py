"""Interval time-series sampling of a simulation run.

Drives a core's :meth:`run_stepwise` generator and snapshots counters
every time the cycle count crosses an ``interval`` boundary, producing
a per-window time series of IPC, structure occupancies, cache miss
rates, and token-detector activity.  The sampler only *reads* state
between yielded cycles, so a sampled run's final statistics are
byte-identical to an unsampled one (enforced by the test suite).

Fast-forward interaction: ``run_stepwise(fast_forward=True)`` skips
cycles in which nothing happens, so during a long stall several
interval boundaries can pass between two yields.  The sampler emits
one sample at the first yielded cycle past the boundary covering the
whole span (its ``cycle`` field records exactly where it landed), so
time axes stay accurate while idle stretches cost one sample instead
of many identical ones.

Samples are flat dicts serialisable with the tracer's JSONL helpers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: Default sampling interval in cycles.
DEFAULT_INTERVAL = 2000


def run_sampled(
    core,
    uops,
    interval: int = DEFAULT_INTERVAL,
    max_cycles: Optional[int] = None,
    on_sample: Optional[Callable[[Dict], None]] = None,
) -> Tuple[object, List[Dict]]:
    """Run ``uops`` on ``core`` sampling every ``interval`` cycles.

    Returns ``(core.stats, samples)``.  The run uses the same
    event-driven fast-forward as :meth:`OutOfOrderCore.run`, so it is
    as fast as a normal run and produces identical statistics.

    ``on_sample`` is called with each sample *as it is taken* — this is
    the live-streaming hook (`repro sweep --live`, the job service's
    ``repro watch``): forwarding the snapshot mid-run is what turns the
    time series from a post-hoc artifact into live telemetry.  The
    callback only observes the already-built dict, so it cannot perturb
    simulation state or statistics.
    """
    if interval <= 0:
        raise ValueError("sampling interval must be positive")
    stats = core.stats
    hierarchy = core.hierarchy
    l1d = hierarchy.l1d.stats
    l2 = hierarchy.l2.stats
    detector = hierarchy.detector
    hier_stats = hierarchy.stats
    rob = core.rob
    iq = core.iq
    lsq = core.lsq

    def snapshot():
        return (
            stats.committed,
            l1d.hits,
            l1d.misses,
            l2.misses,
            detector.fills_checked,
            detector.matches_found,
            hier_stats.arms + hier_stats.disarms,
        )

    samples: List[Dict] = []
    last = snapshot()
    last_cycle = 0
    next_boundary = interval
    for cycle in core.run_stepwise(
        uops, max_cycles=max_cycles, fast_forward=True
    ):
        if cycle < next_boundary:
            continue
        current = snapshot()
        window = cycle - last_cycle
        committed_delta = current[0] - last[0]
        accesses = (current[1] - last[1]) + (current[2] - last[2])
        samples.append(
            {
                "cycle": cycle,
                "window_cycles": window,
                "committed": current[0],
                "ipc": round(committed_delta / window, 4) if window else 0.0,
                "rob": len(rob),
                "iq": len(iq),
                "lq": lsq.lq_occupancy,
                "sq": lsq.sq_occupancy,
                "l1d_misses": current[2] - last[2],
                "l1d_miss_rate": (
                    round((current[2] - last[2]) / accesses, 4)
                    if accesses
                    else 0.0
                ),
                "l2_misses": current[3] - last[3],
                "token_scans": current[4] - last[4],
                "token_hits": current[5] - last[5],
                "token_ops": current[6] - last[6],
            }
        )
        if on_sample is not None:
            on_sample(samples[-1])
        last = current
        last_cycle = cycle
        next_boundary = (cycle // interval + 1) * interval
    return core.stats, samples


def series(samples: List[Dict], field: str) -> List[float]:
    """Extract one field's time series from a sample list."""
    return [sample.get(field, 0) for sample in samples]
