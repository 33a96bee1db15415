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

``--timeout``/``--retries`` activate the engine's resilience layer:
hung workers are killed and re-dispatched, failed attempts retry with
seeded backoff, and units that exhaust the budget are *quarantined* —
the manifest gains a structured ``quarantine`` section and a ``fault``
counter summary, the sweep completes degraded instead of aborting, and
the engine's ``fault.*`` events are written to
``events-engine.jsonl`` for ``repro report``.
"""

from __future__ import annotations

import argparse
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
    tracer=None,
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
        manifest["fault"] = fault_summary(results, tracer)
        if tracer is not None and len(tracer):
            from repro.obs.tracer import write_jsonl

            write_jsonl(tracer.events(), out / "events-engine.jsonl")
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
    tracer = None
    if resilient:
        from repro.obs.tracer import RingTracer

        tracer = RingTracer()

    wall0 = time.perf_counter()
    results = execute_units(
        units,
        jobs=jobs,
        cache=cache,
        progress=progress,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        retry_seed=seed,
        tracer=tracer,
    )

    manifest = write_outputs(
        out,
        units,
        results,
        scale=scale,
        seed=seed,
        jobs=jobs,
        tracer=tracer,
        resilient=resilient,
        wall_seconds=time.perf_counter() - wall0,
    )

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _cache_dir(text: str) -> str:
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(
            f"{text!r} is a file, not a cache directory"
        )
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        help="worker processes (1 = run in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_cache_dir,
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
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock timeout (hung workers are killed "
             "and re-dispatched)",
    )
    parser.add_argument(
        "--retries",
        type=int,
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
