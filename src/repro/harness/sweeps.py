"""Multi-seed sweeps: run-to-run stability of the headline numbers.

The paper reports single numbers per configuration; a reproduction
built on synthetic workloads should show that its conclusions do not
hinge on one lucky seed.  :func:`seed_sweep` reruns a configuration
set across seeds and reports mean and spread of each weighted-mean
overhead.

Sweeps decompose into one work unit per (benchmark, spec, seed) cell —
exactly the granularity of the parallel engine's result cache — so
``seed_sweep(..., jobs=N)`` fans the grid out over worker processes
and ``cache=ResultCache(...)`` makes repeated sweeps incremental.
Samples are merged in seed order regardless of completion order, so
the statistics are identical for every job count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.defenses.plugin import is_baseline
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.harness.metrics import weighted_mean_overhead
from repro.harness.parallel import ResultCache, WorkUnit, execute_units
from repro.workloads.spec import BenchmarkProfile, profile_by_name


@dataclass
class SweepResult:
    """Per-spec overhead statistics across seeds."""

    spec_name: str
    samples: List[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1)
        )

    @property
    def spread(self) -> float:
        return max(self.samples) - min(self.samples)


class SweepError(RuntimeError):
    """A sweep cell failed; carries the structured worker error.

    ``uid`` names the failed cell, ``error`` is the engine's structured
    ``{"type", "message", "traceback"}`` record, ``attempts`` the
    executions consumed, ``count`` how many cells failed in total.  The
    CLI surfaces these instead of a flattened message so scripted
    callers can tell *which* unit died and why.
    """

    def __init__(
        self, uid: str, error: dict, attempts: int = 1, count: int = 1
    ) -> None:
        self.uid = uid
        self.error = error
        self.attempts = attempts
        self.count = count
        message = (
            f"{count} sweep cell(s) failed; first: {uid}: "
            f"{error['type']}: {error['message']}"
        )
        if attempts > 1:
            message += f" (after {attempts} attempts)"
        super().__init__(message)


def raise_on_failed_cells(results: Dict) -> None:
    """Raise :class:`SweepError` for the first failed unit, if any."""
    failures = {
        uid: result for uid, result in results.items() if not result.ok
    }
    if failures:
        uid, result = next(iter(sorted(failures.items())))
        raise SweepError(
            uid, result.error, attempts=result.attempts, count=len(failures)
        )


def run_cell(
    profile: str,
    spec: DefenseSpec,
    scale: float,
    seed: int,
    live: bool = False,
    sample_interval: Optional[int] = None,
) -> Dict[str, float]:
    """Picklable work unit: one (benchmark, spec, seed) simulation.

    Returns only JSON-safe scalars (what the sweep statistics and the
    result cache need), not the full RunResult.  ``live`` streams
    interval-sampler snapshots over the engine's progress channel
    (:func:`repro.harness.parallel.emit_progress`) while the cell runs;
    the sampled replay is stats-identical, and ``live`` is deliberately
    absent from the cache-key payload, so live and plain sweeps share
    cache entries.
    """
    config = SimulationConfig(scale=scale, seed=seed)
    on_sample = None
    if live:
        from repro.harness.parallel import emit_progress

        def on_sample(sample):
            emit_progress("sample", **sample)

    result = run_benchmark(
        profile_by_name(profile),
        spec,
        config,
        on_sample=on_sample,
        sample_interval=sample_interval,
    )
    return {
        "runtime": result.runtime,
        "cycles": result.cycles,
        "instructions": result.instructions,
    }


def _cell_specs(specs: Sequence[DefenseSpec]) -> Dict[str, DefenseSpec]:
    """Spec name -> the spec whose cell that name reads.

    Every baseline spelling reads the one Plain cell, and specs that
    differ only by name (equal ``key_payload()``) read the first such
    spec's cell, so twins never compete for one cache entry.
    """
    plain = DefenseSpec.plain()
    first: Dict[str, DefenseSpec] = {}
    cells = {}
    for spec in specs:
        if is_baseline(spec.defense):
            cells[spec.name] = plain
        else:
            key = json.dumps(spec.key_payload(), sort_keys=True)
            cells[spec.name] = first.setdefault(key, spec)
    return cells


def sweep_units(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    seeds: Sequence[int],
    scale: float,
    live: bool = False,
    sample_interval: Optional[int] = None,
) -> List[WorkUnit]:
    """One work unit per distinct (benchmark, spec, seed) cell, Plain
    included (see :func:`_cell_specs` for which specs share a cell).

    ``live``/``sample_interval`` only change *how* a cell runs (sampled
    replay with streaming snapshots), never what it computes, so they
    go into ``kwargs`` but not ``key_payload``.
    """
    all_specs = [DefenseSpec.plain()]
    for spec in _cell_specs(specs).values():
        if spec not in all_specs:
            all_specs.append(spec)
    units = []
    for seed in seeds:
        config = SimulationConfig(scale=scale, seed=seed)
        for spec in all_specs:
            for profile in profiles:
                kwargs = {
                    "profile": profile.name,
                    "spec": spec,
                    "scale": scale,
                    "seed": seed,
                }
                key_payload = {
                    "profile": profile.name,
                    "spec": spec.key_payload(),
                    "config": config.key_payload(),
                }
                if live:
                    kwargs["live"] = True
                    if sample_interval is not None:
                        kwargs["sample_interval"] = sample_interval
                units.append(
                    WorkUnit(
                        uid=f"{profile.name}/{spec.name}/{seed}",
                        module=__name__,
                        func="run_cell",
                        kwargs=kwargs,
                        key_payload=key_payload,
                    )
                )
    return units


def aggregate_overheads(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    seeds: Sequence[int],
    values: Dict[str, Dict[str, float]],
) -> Dict[str, SweepResult]:
    """Fold per-cell values into per-spec overhead statistics.

    ``values`` maps ``"{benchmark}/{spec}/{seed}"`` unit ids to the
    cell dicts :func:`run_cell` returns.  Samples are merged in seed
    order regardless of how the cells were computed — the parallel
    engine, the job service, or a cache — so the statistics are
    identical for every execution strategy.
    """

    def runtime(profile: BenchmarkProfile, spec_name: str, seed: int) -> float:
        return values[f"{profile.name}/{spec_name}/{seed}"]["runtime"]

    samples: Dict[str, List[float]] = {spec.name: [] for spec in specs}
    cells = _cell_specs(specs)
    for seed in seeds:  # seed order, not completion order: deterministic
        plains = [runtime(p, "Plain", seed) for p in profiles]
        for spec in specs:
            cell = cells[spec.name].name
            runtimes = [runtime(p, cell, seed) for p in profiles]
            samples[spec.name].append(
                weighted_mean_overhead(runtimes, plains)
            )
    return {
        name: SweepResult(spec_name=name, samples=series)
        for name, series in samples.items()
    }


def seed_sweep(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    seeds: Sequence[int],
    scale: float = 0.2,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress=None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    tracer=None,
    live: bool = False,
    sample_interval: Optional[int] = None,
    on_progress=None,
) -> Dict[str, SweepResult]:
    """Run the suite once per seed; returns overhead stats per spec.

    With ``jobs > 1`` the (benchmark × spec × seed) grid is executed by
    the parallel engine; with a ``cache``, repeated sweeps recompute
    only cells not already on disk.  ``timeout``/``retries`` activate
    the engine's resilience layer (hung-cell kill + re-dispatch, seeded
    backoff between attempts) — but a cell that still fails after its
    retry budget aborts the sweep with :class:`SweepError` carrying the
    worker's structured error, because sweep *statistics* over a
    partial grid would be silently wrong (unlike ``run_all``, there is
    no meaningful degraded result).

    ``live=True`` runs each cell through the interval sampler and
    hands each snapshot to ``on_progress("sample", info)`` while the
    cell executes (``repro sweep --live``); results and cache keys are
    unaffected.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be unique (duplicate cells would "
                         "collapse to one cached work unit)")
    units = sweep_units(
        profiles, specs, seeds, scale, live=live,
        sample_interval=sample_interval,
    )
    results = execute_units(
        units,
        jobs=jobs,
        cache=cache,
        progress=progress,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        retry_seed=min(seeds),
        tracer=tracer,
        on_progress=on_progress,
    )
    raise_on_failed_cells(results)
    values = {uid: result.value for uid, result in results.items()}
    return aggregate_overheads(profiles, specs, seeds, values)
