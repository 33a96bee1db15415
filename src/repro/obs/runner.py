"""Observed runs: simulate with full observability, write artifacts.

``python -m repro run`` lands here.  One invocation runs a benchmark
under the standard defense modes with a recording tracer and the
interval sampler attached, and writes a self-describing output
directory::

    <outdir>/
      run.json              summary: config, per-mode cycles/CPI and
                            verified stall buckets, artifact paths
      stats-<mode>.txt      full gem5-style stats dump (incl. stalls)
      samples-<mode>.jsonl  interval time series
      events-<mode>.jsonl   structured event trace (--trace-out)
      o3-<mode>.trace       gem5 O3PipeView pipeline trace (--o3)

``repro report <outdir>`` renders the directory as a text or HTML
dashboard (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.sampler import DEFAULT_INTERVAL
from repro.obs.stalls import format_stall_line, verify_buckets
from repro.obs.tracer import RingTracer, write_jsonl


def run_observed(
    outdir: Union[str, Path],
    benchmark: str = "xalancbmk",
    modes: Optional[List[str]] = None,
    scale: float = 0.2,
    seed: int = 1234,
    interval: int = DEFAULT_INTERVAL,
    ring_capacity: int = 1 << 16,
    events: bool = False,
    o3: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    diff: Optional[Tuple[str, str]] = None,
) -> Dict:
    """Run ``benchmark`` under each mode with observability attached.

    Returns the ``run.json`` payload (also written to disk).  Event
    and O3PipeView export are opt-in because they record per-uop data;
    sampling and stall accounting are always on — they are cheap.

    ``diff=(mode_a, mode_b)`` additionally builds the trace-diff/v1
    artifact (``trace-diff.json``, see :mod:`repro.obs.diff`) from the
    two modes' event streams before ``run.json`` is written; requires
    ``events=True``.
    """
    from repro.harness.bench import BENCH_MODES, bench_specs
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import run_benchmark
    from repro.harness.statsdump import format_stats
    from repro.obs.o3 import export_o3_pipeview
    from repro.workloads.spec import profile_by_name

    specs = bench_specs()
    mode_names = list(modes) if modes else list(BENCH_MODES)
    for name in mode_names:
        if name not in specs:
            raise ValueError(
                f"unknown mode {name!r}; known: {', '.join(specs)}"
            )
    if diff is not None:
        if not events:
            raise ValueError(
                "diff needs the per-uop event streams: use "
                "events=True (`repro run --trace-out`)"
            )
        for name in diff:
            if name not in mode_names:
                raise ValueError(f"diff mode {name!r} is not in modes")
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    payload: Dict = {
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "interval": interval,
        "modes": {},
    }
    for name in mode_names:
        spec = specs[name]
        tracer = RingTracer(ring_capacity) if (events or o3) else None
        samples: List[Dict] = []
        result = run_benchmark(
            profile,
            spec,
            config,
            on_sample=samples.append,
            sample_interval=interval,
            tracer=tracer,
        )
        stats = result.core_stats
        entry: Dict = {
            "defense": spec.name,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "cpi": round(stats.cpi, 4),
            "buckets": verify_buckets(stats),
            "stats_file": f"stats-{name}.txt",
        }
        (out / entry["stats_file"]).write_text(format_stats(result) + "\n")
        payload["modes"][name] = entry

        entry["samples_file"] = f"samples-{name}.jsonl"
        entry["sample_count"] = len(samples)
        write_jsonl(samples, out / entry["samples_file"])
        if tracer is not None:
            entry["event_counts"] = tracer.counts()
            entry["events_emitted"] = tracer.emitted
            entry["events_dropped"] = tracer.dropped
        if events:
            entry["events_file"] = f"events-{name}.jsonl"
            write_jsonl(tracer.events(), out / entry["events_file"])
        if o3:
            entry["o3_file"] = f"o3-{name}.trace"
            entry["o3_records"] = export_o3_pipeview(
                tracer.events(), out / entry["o3_file"]
            )
        if progress is not None:
            progress(
                f"{name:12s} {stats.cycles:>10,} cycles  "
                f"CPI {stats.cpi:.2f}  {len(samples)} samples"
            )
            progress(f"{'':12s} {format_stall_line(stats)}")
    if diff is not None:
        from repro.obs.diff import build_trace_diff, write_trace_diff

        mode_a, mode_b = diff
        artifact = build_trace_diff(
            out, mode_a, mode_b, run=payload
        )
        write_trace_diff(artifact, out / "trace-diff.json")
        payload["diff_file"] = "trace-diff.json"
        if progress is not None:
            al = artifact["alignment"]
            progress(
                f"{'diff':12s} {mode_a} vs {mode_b}: "
                f"{artifact['delta']['cycles']:+,} cycles, "
                f"{al['pairs']:,} aligned / {al['b_only']:,} inserted "
                f"-> trace-diff.json"
            )
    (out / "run.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload
