"""Regenerate every experiment into an output directory.

``python -m repro.experiments.run_all --outdir results --scale 0.5 --jobs 4``
writes one text file per table/figure (what EXPERIMENTS.md cites) plus
a manifest recording the parameters used.

Each experiment is an independent work unit fanned out over
``--jobs`` worker processes (see :mod:`repro.harness.parallel`).
Completed units land in a content-addressed cache under the output
directory, so re-running the same sweep skips everything already
computed; a unit that crashes is recorded as a structured error in the
manifest while the rest of the sweep completes, and a re-run recomputes
only the failed/missing cells.  Output is byte-identical regardless of
job count (timing fields aside).

Beneath the experiment units, every simulated (benchmark, spec,
config) cell is shared: experiments run inside
:func:`~repro.harness.parallel.cell_cache`, so a cell that fig7,
fig8, intext and stalls all need is simulated once and read from its
JSON cell record after that.  Attack outcomes are shared the same
way: table3, security and defensezoo read one record per defense mode
(:func:`~repro.harness.experiment.attack_outcomes`), so the attack
suite runs once per mode.  Cell and attack records live in the same
cache directory; under ``--no-cache`` they live in a scratch directory
under ``--outdir`` that is deleted when the experiments finish.

``--timeout``/``--retries`` activate the engine's resilience layer:
hung workers are killed and re-dispatched, failed attempts retry with
seeded backoff, and units that exhaust the budget are *quarantined* —
the manifest gains a structured ``quarantine`` section and a ``fault``
counter summary (which ``repro report`` renders), the sweep completes
degraded instead of aborting, and the engine's ``fault.*`` events are
written to ``events-engine.jsonl``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.parallel import (
    FAULT_PLAN_ENV,
    ResultCache,
    WorkUnit,
    cell_cache,
    execute_units,
    failed_units,
    fault_summary,
    quarantine_report,
)

#: experiment name -> scale cap (None = use the requested scale): a
#: capped experiment runs at ``min(cap, requested)``.
EXPERIMENT_SCALES = {
    "table1": None,
    "table2": None,
    "table3": None,
    "fig3": 0.35,  # in-order core: slower per instruction
    "fig7": None,
    "fig8": None,
    "intext": None,
    "memoverhead": 0.35,
    "security": None,
    #: Table III regression lock: the attack suite x defense-mode grid,
    #: read from the attack rows it shares with table3, security and
    #: defensezoo.
    "attackmatrix": None,
    #: Defense zoo: REST-vs-MTE-vs-ASan overhead/coverage matrix; runs
    #: the full workload suite under six specs plus a foundry corpus,
    #: so its scale is capped small whatever the sweep's.
    "defensezoo": 0.2,
    #: Observability artifact: per-defense top-down stall decomposition
    #: (written as ``stalls.json``; rendered by ``repro report``).
    "stalls": None,
}

#: Units that live outside ``repro.experiments`` and/or write something
#: other than a ``.txt`` file: name -> (module, output filename).
_SPECIAL_UNITS = {
    "stalls": ("repro.obs.stalls", "stalls.json"),
    "defensezoo": ("repro.experiments.defensezoo", "defensezoo.json"),
}


def experiment_units(
    scale: float,
    seed: int,
    scales: Optional[Dict] = None,
    names: Optional[List[str]] = None,
) -> List[WorkUnit]:
    """One picklable work unit per experiment module.

    ``names`` restricts the sweep to a subset (request order, duplicates
    collapsed); an unknown name raises ``ValueError`` so callers —
    including the job service's admission control — reject bad requests
    up front instead of failing mid-sweep.
    """
    scales = EXPERIMENT_SCALES if scales is None else scales
    if names is not None:
        names = list(dict.fromkeys(names))
        unknown = [name for name in names if name not in scales]
        if unknown:
            raise ValueError(
                f"unknown experiment(s): {', '.join(unknown)}; "
                f"known: {', '.join(scales)}"
            )
        scales = {name: scales[name] for name in names}
    units = []
    for name, cap in scales.items():
        effective = scale if cap is None else min(cap, scale)
        module, _ = _SPECIAL_UNITS.get(
            name, (f"repro.experiments.{name}", None)
        )
        units.append(
            WorkUnit(
                uid=name,
                module=module,
                func="regenerate",
                kwargs={"scale": effective, "seed": seed},
                key_payload={
                    "experiment": name,
                    "scale": effective,
                    "seed": seed,
                },
            )
        )
    return units


def write_outputs(
    outdir,
    units: List[WorkUnit],
    results: Dict,
    scale: float,
    seed: int,
    jobs: int = 1,
    resilient: bool = False,
    wall_seconds: float = 0.0,
) -> Dict:
    """Write per-experiment artifacts + ``manifest.json`` for one sweep.

    Shared by :func:`run_all` and the job service's ``run_all`` job
    finalizer, so a job submitted through the service produces a
    directory (and manifest) ``strip_volatile``-identical to a direct
    run of the same configuration.  Returns the manifest dict.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "experiments": {},
    }
    unit_cpu = unit_wall = 0.0
    for unit in units:  # unit order, not completion order: deterministic
        result = results[unit.uid]
        # Failed-unit timing counts too: a degraded sweep must not
        # under-report what it actually spent.
        unit_cpu += result.cpu_seconds
        unit_wall += result.wall_seconds
        record = {
            "scale": unit.kwargs["scale"],
            "cached": result.cached,
            "cpu_seconds": round(result.cpu_seconds, 3),
            "wall_seconds": round(result.wall_seconds, 3),
            "attempts": result.attempts,
        }
        if result.ok:
            _, special_name = _SPECIAL_UNITS.get(unit.uid, (None, None))
            target = out / (special_name or f"{unit.uid}.txt")
            target.write_text(result.value + "\n")
            record["status"] = "ok"
            record["file"] = target.name
        else:
            record["status"] = "error"
            record["error"] = result.error
        manifest["experiments"][unit.uid] = record
    manifest["quarantine"] = quarantine_report(results)
    if resilient:
        manifest["fault"] = fault_summary(results)
    manifest["units_timing"] = {
        "cpu_seconds": round(unit_cpu, 3),
        "wall_seconds": round(unit_wall, 3),
    }
    manifest["wall_seconds"] = round(wall_seconds, 3)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def run_all(
    outdir: str,
    scale: float = 0.5,
    seed: int = 1234,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    quiet: bool = False,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    names: Optional[List[str]] = None,
) -> Path:
    """Run every experiment; returns the output directory path.

    Failures do not abort the sweep: the manifest records a structured
    error per failed experiment (``status: "error"``), lists every unit
    that exhausted its retry budget in the ``quarantine`` section, and
    every other cell still completes and is written.  Callers that need
    an exit code should inspect the manifest (see :func:`main`).
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cache = None
    if use_cache:
        cache = ResultCache(cache_dir if cache_dir is not None else out / "cache")
    units = experiment_units(scale, seed, names=names)
    progress = None if quiet else (lambda msg: print(f"  {msg}", flush=True))

    resilient = (
        timeout is not None
        or retries > 0
        or bool(os.environ.get(FAULT_PLAN_ENV))
    )
    events: List[Dict] = []

    def record(kind: str, info: dict) -> None:
        if kind.startswith("fault."):
            events.append({"cycle": 0, "kind": kind, **info})

    wall0 = time.perf_counter()
    with cell_cache(
        cache.root if cache is not None else None, scratch_parent=out
    ):
        results = execute_units(
            units,
            jobs=jobs,
            cache=cache,
            progress=progress,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            retry_seed=seed,
            on_progress=record if resilient else None,
        )

    manifest = write_outputs(
        out,
        units,
        results,
        scale=scale,
        seed=seed,
        jobs=jobs,
        resilient=resilient,
        wall_seconds=time.perf_counter() - wall0,
    )
    if events:
        (out / "events-engine.jsonl").write_text("".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        ))

    failures = failed_units(results)
    if not quiet:
        done = sum(1 for r in results.values() if r.ok)
        hits = sum(1 for r in results.values() if r.cached)
        degraded = " DEGRADED" if manifest["quarantine"] else ""
        print(
            f"  {done}/{len(units)} experiments ok ({hits} cached, "
            f"{len(failures)} failed) in {manifest['wall_seconds']:.1f}s "
            f"-> {out}{degraded}"
        )
        for uid, error in sorted(failures.items()):
            attempts = results[uid].attempts
            print(
                f"  QUARANTINED {uid}: {error['type']}: "
                f"{error['message']} (after {attempts} attempt(s))"
            )
    return out


def positive_int(text: str) -> int:
    """argparse type for counts that only make sense strictly positive
    (``--jobs``): ``--jobs 0`` is a usage error, not a serial run."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def non_negative_int(text: str) -> int:
    """argparse type for counts where zero means "none" (``--retries``)."""
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def positive_float(text: str) -> float:
    """argparse type for durations (``--timeout``): strictly positive."""
    import argparse

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def cache_directory(text: str) -> str:
    """argparse type for cache-directory flags: reject plain files."""
    import argparse

    if Path(text).is_file():
        raise argparse.ArgumentTypeError(
            f"{text!r} is a file, not a cache directory"
        )
    return text


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--jobs",
        "-j",
        type=positive_int,
        default=1,
        help="worker processes (1 = run in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        type=cache_directory,
        default=None,
        help="result cache location (default: <outdir>/cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock timeout (hung workers are killed "
             "and re-dispatched)",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="extra attempts per failed unit before quarantine",
    )
    args = parser.parse_args(argv)
    out = run_all(
        args.outdir,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
    )
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [
        name
        for name, record in manifest["experiments"].items()
        if record["status"] != "ok"
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
