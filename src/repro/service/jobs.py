"""Job model and job kinds of the simulation service.

A **job** is one client-visible request — "regenerate these
experiments", "run this seed sweep" — that the scheduler decomposes
into the parallel engine's :class:`~repro.harness.parallel.WorkUnit`
grid.  Decomposition happens *at admission* so bad parameters are a
structured ``bad_params`` rejection, never a mid-run surprise, and so
the scheduler can dedup per unit key before anything executes.

Job kinds:

``run_all``
    Parameters ``{"scale", "seed", "names", "outdir"}``.  Finalises by
    writing the same artifact directory + ``manifest.json`` a direct
    :func:`repro.experiments.run_all.run_all` produces (via the shared
    :func:`~repro.experiments.run_all.write_outputs`), which is what
    makes service results provably ``strip_volatile``-identical to CLI
    results.  Failed units degrade the manifest instead of failing the
    job, mirroring ``run_all`` semantics.

``sweep``
    Parameters ``{"benchmarks", "specs", "seeds", "scale", "live",
    "sample_interval"}``.  Cells default to ``live=True`` — each
    simulation streams interval-sampler snapshots to ``repro watch``
    while it runs.  Any failed cell fails the job with the structured
    :class:`~repro.harness.sweeps.SweepError` (partial sweep statistics
    would be silently wrong).

The :class:`Job` object also carries the daemon-side bookkeeping: per
unit states, a bounded event log replayed to late watchers, and the
fields persisted across a drain/restart cycle (kind, params, priority,
submission order — everything needed to resubmit; completed units are
recovered from the result cache, not from job state).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.harness.parallel import UnitResult, WorkUnit

#: Priority classes in scheduling order; lower rank runs first.
PRIORITIES = {"high": 0, "normal": 1, "low": 2}

#: Job kinds the service accepts.
JOB_KINDS = ("run_all", "sweep")

#: How many events a job retains for replay to late watchers.
EVENT_LOG_CAPACITY = 2048


class JobParamsError(ValueError):
    """Invalid job kind/parameters — an admission-time rejection."""


def _require(params: dict, allowed: Dict[str, type]) -> None:
    for key, value in params.items():
        if key not in allowed:
            raise JobParamsError(
                f"unknown parameter {key!r}; known: {', '.join(allowed)}"
            )
        if value is not None and not isinstance(value, allowed[key]):
            raise JobParamsError(
                f"parameter {key!r} must be {allowed[key].__name__}, "
                f"got {type(value).__name__}"
            )


def build_units(kind: str, params: dict) -> List[WorkUnit]:
    """Decompose one job request into work units (validates params)."""
    if kind == "run_all":
        _require(
            params,
            {
                "scale": float,
                "seed": int,
                "names": list,
                "outdir": str,
            },
        )
        from repro.experiments.run_all import experiment_units

        try:
            return experiment_units(
                float(params.get("scale", 0.5)),
                int(params.get("seed", 1234)),
                names=params.get("names"),
            )
        except ValueError as error:
            raise JobParamsError(str(error))
    if kind == "sweep":
        _require(
            params,
            {
                "benchmarks": list,
                "specs": list,
                "seeds": list,
                "scale": float,
                "live": bool,
                "sample_interval": int,
            },
        )
        profiles, specs, seeds = _sweep_grid(params)
        from repro.harness.sweeps import sweep_units

        return sweep_units(
            profiles,
            specs,
            seeds,
            float(params.get("scale", 0.1)),
            live=params.get("live", True),
            sample_interval=params.get("sample_interval"),
        )
    raise JobParamsError(
        f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}"
    )


def _sweep_grid(params: dict):
    """Resolve a sweep job's (profiles, specs, seeds) from parameters."""
    from repro.harness.configs import figure7_specs
    from repro.workloads.spec import ALL_PROFILES, profile_by_name

    names = params.get("benchmarks")
    try:
        profiles = (
            [profile_by_name(name) for name in names]
            if names
            else list(ALL_PROFILES)
        )
    except (KeyError, ValueError) as error:
        raise JobParamsError(f"unknown benchmark: {error}")
    all_specs = {spec.name: spec for spec in figure7_specs()}
    spec_names = params.get("specs")
    if spec_names:
        unknown = [name for name in spec_names if name not in all_specs]
        if unknown:
            raise JobParamsError(
                f"unknown spec(s): {', '.join(unknown)}; "
                f"known: {', '.join(all_specs)}"
            )
        specs = [all_specs[name] for name in spec_names]
    else:
        specs = list(all_specs.values())
    seeds = params.get("seeds") or [1, 2, 3, 4, 5]
    if len(set(seeds)) != len(seeds):
        raise JobParamsError("seeds must be unique")
    return profiles, specs, seeds


def finalize_job(
    kind: str, params: dict, units: List[WorkUnit], results: Dict[str, UnitResult],
    outdir: Optional[str], resilient: bool = False,
) -> dict:
    """Fold a completed job's unit results into its final payload.

    Raises ``SweepError`` for a sweep with failed cells; ``run_all``
    degrades into its manifest instead, exactly like the direct CLI
    path, with a ``fault`` section when ``resilient``.
    """
    if kind == "run_all":
        from repro.experiments.run_all import write_outputs

        manifest = write_outputs(
            outdir,
            units,
            results,
            scale=float(params.get("scale", 0.5)),
            seed=int(params.get("seed", 1234)),
            jobs=0,
            resilient=resilient,
        )
        return {"outdir": str(outdir), "manifest": manifest}
    if kind == "sweep":
        from repro.harness.sweeps import (
            aggregate_overheads,
            raise_on_failed_cells,
        )

        raise_on_failed_cells(results)
        profiles, specs, seeds = _sweep_grid(params)
        values = {uid: result.value for uid, result in results.items()}
        stats = aggregate_overheads(profiles, specs, seeds, values)
        return {
            "specs": {
                name: {
                    "mean": result.mean,
                    "stdev": result.stdev,
                    "spread": result.spread,
                    "samples": result.samples,
                }
                for name, result in stats.items()
            },
            "seeds": list(seeds),
        }
    raise JobParamsError(f"unknown job kind {kind!r}")


@dataclass
class Job:
    """One admitted request and its daemon-side bookkeeping."""

    id: str
    kind: str
    params: dict
    priority: str
    seq: int  # admission order; FIFO tiebreak within a priority class
    units: List[WorkUnit]
    outdir: Optional[str] = None
    state: str = "queued"  # queued | running | done | failed
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    results: Dict[str, UnitResult] = field(default_factory=dict)
    unit_state: Dict[str, str] = field(default_factory=dict)
    dedup_hits: int = 0  # units attached to another job's execution
    executed: int = 0  # executions this job itself dispatched (owner)
    error: Optional[dict] = None
    result: Optional[dict] = None
    events: deque = field(
        default_factory=lambda: deque(maxlen=EVENT_LOG_CAPACITY)
    )
    event_seq: int = 0
    watchers: set = field(default_factory=set)  # asyncio.Queue per watcher
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def open(self) -> bool:
        return self.state in ("queued", "running")

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results.values() if not r.ok)

    def record(self, uid: str, result: UnitResult, state: str) -> None:
        self.results[uid] = result
        self.unit_state[uid] = state

    def unit_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for unit in self.units:
            state = self.unit_state.get(unit.uid, "queued")
            counts[state] = counts.get(state, 0) + 1
        return counts

    def to_wire(self, include_result: bool = False) -> dict:
        wire = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "params": self.params,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "units": {"total": len(self.units), **self.unit_counts()},
            "dedup_hits": self.dedup_hits,
            "executed": self.executed,
            "failures": self.failures,
            "outdir": str(self.outdir) if self.outdir else None,
        }
        if self.error is not None:
            wire["error"] = self.error
        if include_result and self.result is not None:
            wire["result"] = self.result
        return wire

    def to_disk(self) -> dict:
        """The persisted form: everything needed to resubmit on restart."""
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "priority": self.priority,
            "seq": self.seq,
        }
