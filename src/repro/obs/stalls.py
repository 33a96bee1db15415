"""Top-down CPI stall accounting.

Decomposes a run's total cycles into named buckets the way PMU
top-down methodologies do: each cycle is attributed to exactly one
cause, highest-priority cause first, so the buckets **sum exactly to
``CoreStats.cycles``** — the invariant every consumer (stats dump,
``repro report`` waterfalls, the stalls.json sweep artifact) relies on
and the test suite enforces under hypothesis-generated counters.

The raw per-cause counters overlap (a cycle can simultaneously charge
"ROB head blocked on a store" and "IQ full": the backend is wedged *and*
dispatch has nowhere to put work), so a naive sum can exceed the cycle
count.  The decomposition walks the causes in a fixed priority order —
useful work first, then the stall causes in the order the paper
discusses them in Section VI-B, most-diagnostic first — and clamps each
bucket to the cycles not yet attributed:

========================  ==============================================
bucket                    source counter
========================  ==============================================
``base``                  ``commit_active_cycles`` — cycles in which at
                          least one instruction committed
``rob_store_blocked``     ``rob_blocked_by_store_cycles`` (the paper's
                          debug-mode headline mechanism)
``iq_full``               ``iq_full_cycles`` (100x for xalanc in debug)
``lsq_full``              ``lq_full_cycles + sq_full_cycles``
``icache``                ``icache_stall_cycles``
``mispredict``            ``mispredict_stall_cycles``
``dram``                  ``dram_stall_cycles`` (latency of data
                          accesses that reached memory)
``other``                 everything left: window-limited (ROB-full)
                          and second-order overlap cycles
========================  ==============================================

The result is an *attribution*, not a cycle-accurate replay: a clamped
bucket means a lower-priority cause overlapped a higher-priority one.
That is exactly the trade PMU top-down makes, and it keeps the
accounting a pure function of the aggregate counters — zero cost on
the simulator hot path.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

#: Bucket names in priority (and display) order; ``other`` is the
#: residual.
STALL_BUCKETS = (
    "base",
    "rob_store_blocked",
    "iq_full",
    "lsq_full",
    "icache",
    "mispredict",
    "dram",
    "other",
)

#: Short display labels for one-line breakdowns and report axes.
BUCKET_LABELS = {
    "base": "base",
    "rob_store_blocked": "rob-store",
    "iq_full": "iq-full",
    "lsq_full": "lsq-full",
    "icache": "icache",
    "mispredict": "mispred",
    "dram": "dram",
    "other": "other",
}


def stall_buckets(stats) -> Dict[str, int]:
    """Decompose ``stats.cycles`` into the priority-clamped buckets.

    ``stats`` is any object with the :class:`repro.cpu.stats.CoreStats`
    counter attributes.  Always returns every bucket, and the values
    always sum exactly to ``stats.cycles``.
    """
    remaining = stats.cycles
    buckets: Dict[str, int] = {}
    for name, counter in (
        ("base", stats.commit_active_cycles),
        ("rob_store_blocked", stats.rob_blocked_by_store_cycles),
        ("iq_full", stats.iq_full_cycles),
        ("lsq_full", stats.lq_full_cycles + stats.sq_full_cycles),
        ("icache", stats.icache_stall_cycles),
        ("mispredict", stats.mispredict_stall_cycles),
        ("dram", stats.dram_stall_cycles),
    ):
        take = counter if counter < remaining else remaining
        if take < 0:
            take = 0
        buckets[name] = take
        remaining -= take
    buckets["other"] = remaining
    return buckets


def largest_remainder(
    weights: Sequence[int], total: int
) -> List[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Hamilton / largest-remainder method in pure integer arithmetic:
    each entry gets ``floor(total * w / sum(weights))``, then the
    leftover units go to the largest fractional remainders (ties broken
    by lower index, so the result is deterministic).  The returned
    list always sums to exactly ``total``; zero weights receive zero.
    All-zero weights return all zeros — the caller decides where an
    unattributable total goes.

    Used by :func:`format_stall_line` (percentage tenths that sum to
    100.0) and by the trace-diff profiler (per-PC bucket shares that
    sum to the aggregate bucket, see :mod:`repro.obs.diff`).
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    grand = sum(weights)
    if not grand:
        return [0] * len(weights)
    shares = [total * w // grand for w in weights]
    leftover = total - sum(shares)
    if leftover:
        remainders = sorted(
            range(len(weights)),
            key=lambda i: (-(total * weights[i] % grand), i),
        )
        for i in remainders[:leftover]:
            shares[i] += 1
    return shares


def format_stall_line(stats, prefix: str = "stalls: ") -> str:
    """One-line percentage breakdown, base first, zero buckets elided.

    e.g. ``stalls: base 52.3% | rob-store 28.9% | dram 9.1% | ...``

    The displayed percentages are largest-remainder rounded to tenths,
    so the shown values always sum to exactly 100.0 (a naive per-bucket
    round can sum to 99.9 or 100.1).  Zero buckets are elided and get
    exactly zero tenths, so eliding them never breaks the sum.
    """
    buckets = stall_buckets(stats)
    cycles = stats.cycles
    if not cycles:
        return prefix + "no cycles"
    tenths = largest_remainder(
        [buckets[name] for name in STALL_BUCKETS], 1000
    )
    parts = []
    for name, tenth in zip(STALL_BUCKETS, tenths):
        if buckets[name]:
            parts.append(f"{BUCKET_LABELS[name]} {tenth / 10:.1f}%")
    return prefix + " | ".join(parts)


def verify_buckets(stats) -> Dict[str, int]:
    """Buckets plus a hard check of the sum-to-cycles invariant."""
    buckets = stall_buckets(stats)
    total = sum(buckets.values())
    if total != stats.cycles:
        raise AssertionError(
            f"stall buckets sum to {total}, expected {stats.cycles}"
        )
    return buckets


#: Defense modes the stalls sweep artifact covers (same set the
#: simulator bench and the hot-path golden use).
STALL_SWEEP_MODES = ("plain", "asan", "rest-secure", "rest-debug")


def collect_mode_stalls(
    benchmark: str, scale: float, seed: int, modes=STALL_SWEEP_MODES
) -> Dict:
    """Run the standard defense modes and collect verified buckets."""
    from repro.harness.bench import bench_specs
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import run_benchmark
    from repro.workloads.spec import profile_by_name

    specs = bench_specs()
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)
    payload: Dict = {
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "buckets": list(STALL_BUCKETS),
        "modes": {},
    }
    for name in modes:
        result = run_benchmark(profile, specs[name], config)
        stats = result.core_stats
        payload["modes"][name] = {
            "defense": specs[name].name,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "cpi": round(stats.cpi, 4),
            "buckets": verify_buckets(stats),
        }
    return payload


def regenerate(scale: float, seed: int) -> str:
    """Work-unit entry point for ``run_all``: the stalls.json artifact.

    Returns the JSON text of the per-defense stall decomposition for
    the sweep's benchmark; ``run_all`` writes it as ``stalls.json``
    next to the experiment outputs so ``repro report`` can render the
    per-defense waterfall from a sweep directory.
    """
    payload = collect_mode_stalls("xalancbmk", scale=scale, seed=seed)
    return json.dumps(payload, indent=2, sort_keys=True)
