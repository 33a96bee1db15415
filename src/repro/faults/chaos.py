"""The chaos proof: injected faults cost retries, never results.

One proof with two executors:

* ``repro chaos`` (:func:`run_chaos`) runs the engine's experiment
  sweep under a seeded fault plan (``REPRO_FAULT_PLAN``), per-unit
  timeouts and a retry budget; ``corrupt_cache`` faults additionally
  pre-seed damaged entries into the run's result cache before it
  starts.
* ``repro loadgen`` (:mod:`repro.service.loadgen`) runs the same kind
  of plan on a coordinator and its workers while seeded SIGKILLs take
  workers down mid-flight.

Both share everything else.  The reference is one fault-free direct
``run_all`` with no cache (:func:`direct_baseline`); the plan is
compiled and written by :func:`compile_plan`; and a run's facts
(:func:`chaos_record`) pass one :func:`verdict`:

* after ``strip_volatile``, every non-quarantined experiment record
  and artifact of the chaos run is **byte-identical** to the baseline
  (:func:`check_identity`), and the quarantine set is exactly the
  plan's permanent faults;
* the faults fired: a runner that never killed a hang would still heal
  to identity once the hang slept itself out, so the chaos manifest's
  ``fault`` counters must reach the plan (:func:`missing_faults`);
* on the fleet, every planned kill landed mid-flight.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import run_all as driver
from repro.faults.inject import ENV_VAR, corrupt_cache_entry
from repro.faults.plan import FaultPlan
from repro.harness.parallel import ResultCache, WorkUnit, strip_volatile

#: Default kind mix for a chaos run: every *healable* failure mode the
#: engine must recover from.  (``raise`` shows up via ``--permanent``
#: faults, which exercise quarantine.)
DEFAULT_KINDS = ("hang", "crash", "transient", "memory_error",
                 "corrupt_cache")


@dataclass
class ChaosReport:
    """Outcome of one ``repro chaos`` run: its record and verdict."""

    plan: FaultPlan
    record: Dict
    baseline_dir: Path
    chaos_dir: Path
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def direct_baseline(
    outdir, scale: float, seed: int, jobs: int,
    names: Optional[List[str]] = None, quiet: bool = True,
) -> Path:
    """The reference of every chaos run: a fault-free direct ``run_all``
    with no cache (any active fault plan is set aside meanwhile)."""
    previous = os.environ.pop(ENV_VAR, None)
    try:
        return driver.run_all(
            outdir, scale=scale, seed=seed, jobs=jobs, use_cache=False,
            quiet=quiet, names=names,
        )
    finally:
        if previous is not None:
            os.environ[ENV_VAR] = previous


def compile_plan(
    out: Path,
    units: Sequence[WorkUnit],
    fault_seed: int,
    kinds: Sequence[str],
    fraction: float,
    permanent: int,
    hang_seconds: float,
    say: Callable[[str], None],
) -> Tuple[FaultPlan, Path]:
    """Compile the seeded plan over ``units``, write it to
    ``out/fault-plan.json`` and announce its mix."""
    plan = FaultPlan(seed=fault_seed).compile_mix(
        [unit.uid for unit in units],
        kinds=list(kinds),
        fraction=fraction,
        permanent=permanent,
        hang_seconds=hang_seconds,
    )
    say(
        "injecting "
        + ", ".join(
            f"{count} {kind}" for kind, count in plan.kind_counts().items()
        )
        + (f" ({permanent} permanent)" if permanent else "")
    )
    return plan, plan.write(Path(out) / "fault-plan.json")


def quarantine_problems(
    quarantined: Sequence[str], expected: Sequence[str]
) -> List[str]:
    """One line per disagreement between the quarantined units and the
    plan's permanent faults."""
    return [
        f"{uid}: quarantined but its fault was healable"
        for uid in quarantined
        if uid not in expected
    ] + [
        f"{uid}: permanently faulted but not quarantined"
        for uid in sorted(expected)
        if uid not in quarantined
    ]


def check_identity(
    baseline_dir: Path, chaos_dir: Path, expected_quarantine: Sequence[str]
) -> Tuple[List[str], List[str], List[str]]:
    """Compare a sweep against its reference run.

    Returns ``(quarantined, mismatches, problems)``: the run's
    quarantined units; one line per non-quarantined experiment whose
    record (after ``strip_volatile``) or artifact bytes differ; and
    every disagreement between the quarantine set and
    ``expected_quarantine`` (the plan's permanent faults).  The runs
    are identical iff both lists are empty.
    """
    baseline = json.loads((baseline_dir / "manifest.json").read_text())
    chaos = json.loads((chaos_dir / "manifest.json").read_text())
    quarantined = sorted(chaos.get("quarantine", {}))

    def records(manifest: Dict) -> Dict:
        return {
            name: record
            for name, record in manifest.get("experiments", {}).items()
            if name not in quarantined
        }

    def artifact(outdir: Path, filename: str) -> Optional[bytes]:
        path = outdir / filename
        return path.read_bytes() if path.is_file() else None

    mismatches: List[str] = []
    base_records, chaos_records = records(baseline), records(chaos)
    for name in sorted(set(base_records) | set(chaos_records)):
        record = base_records.get(name)
        if strip_volatile(record) != strip_volatile(chaos_records.get(name)):
            mismatches.append(f"{name}: manifest record differs")
            continue
        filename = record.get("file")
        if filename and record.get("status") == "ok" and artifact(
            baseline_dir, filename
        ) != artifact(chaos_dir, filename):
            mismatches.append(f"{name}: artifact bytes differ")
    return (
        quarantined,
        mismatches,
        quarantine_problems(quarantined, expected_quarantine),
    )


#: Fault kinds whose every injection fails an attempt, so costs a retry.
_FAILING_KINDS = ("hang", "crash", "transient", "memory_error")


def missing_faults(
    kind_counts: Dict[str, int], fault: Dict[str, int]
) -> List[str]:
    """One line per ``fault`` counter of a chaos run below the plan's
    ``kind_counts``.

    Every planned hang must have timed out, every planned crash
    crashed, and every planned failing fault cost at least one retry.
    """
    floors = {
        "timeouts": kind_counts.get("hang", 0),
        "crashes": kind_counts.get("crash", 0),
        "retries": sum(kind_counts.get(kind, 0) for kind in _FAILING_KINDS),
    }
    return [
        f"fault.{name}: {fault.get(name, 0)} counted, {floor} planned"
        for name, floor in floors.items()
        if fault.get(name, 0) < floor
    ]


def chaos_record(
    baseline_dir: Path, chaos_dir: Path, plan: FaultPlan
) -> Dict:
    """The facts :func:`verdict` judges, for one chaos run's output."""
    quarantined, mismatches, problems = check_identity(
        baseline_dir, chaos_dir, plan.permanent_uids()
    )
    manifest = json.loads((chaos_dir / "manifest.json").read_text())
    return {
        "fault": manifest.get("fault", {}),
        "fault_kinds": plan.kind_counts(),
        "identity": not mismatches and not problems,
        "mismatches": mismatches,
        "quarantine_actual": quarantined,
        "quarantine_expected": plan.permanent_uids(),
    }


def verdict(record: Dict) -> List[str]:
    """Every reason a chaos run's record fails the proof; [] passes.

    A record without ``fault`` counters fails the fault floor like one
    whose counters are all zero.
    """
    lines = list(record.get("mismatches", [])) + quarantine_problems(
        record.get("quarantine_actual", []),
        record.get("quarantine_expected", []),
    )
    lines += missing_faults(
        record.get("fault_kinds", {}), record.get("fault", {})
    )
    landed = len(record.get("kills_executed", []))
    planned = record.get("kills_planned", 0)
    if landed < planned:
        lines.append(
            f"only {landed} of {planned} planned kill(s) landed mid-flight"
        )
    return lines


def summarize(
    name: str, record: Dict, problems: Sequence[str], say
) -> None:
    """Print a chaos run's fault counters, quarantine and verdict."""
    from repro.harness.statsdump import format_fault_stats

    say(format_fault_stats(record.get("fault", {})))
    if record["quarantine_actual"]:
        say(
            f"{name}: quarantined (expected): "
            + ", ".join(record["quarantine_actual"])
        )
    for line in problems:
        say(f"{name}: PROBLEM: {line}")
    say(
        f"{name}: PASS — degraded run byte-identical to baseline "
        "for all non-quarantined units"
        if not problems
        else f"{name}: FAIL"
    )


def run_chaos(
    outdir: str,
    scale: float = 0.35,
    seed: int = 1234,
    jobs: int = 2,
    timeout: float = 60.0,
    retries: int = 2,
    backoff: float = 0.1,
    fault_seed: int = 7,
    kinds: Sequence[str] = DEFAULT_KINDS,
    fraction: float = 0.6,
    permanent: int = 0,
    hang_seconds: float = 300.0,
    quiet: bool = False,
) -> ChaosReport:
    """Run the baseline and the chaos sweep and judge them.

    ``permanent`` makes that many of the planned faults unhealable so
    the run also demonstrates quarantine; those units are *expected* in
    the chaos manifest's ``quarantine`` section and excluded from the
    identity check.  Everything else must match the baseline exactly.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    say = (lambda *_: None) if quiet else print

    say(f"chaos: fault-free baseline (scale {scale}, jobs {jobs})")
    baseline_dir = direct_baseline(
        out / "baseline", scale, seed, jobs, quiet=quiet
    )
    units = driver.experiment_units(scale, seed)
    plan, plan_path = compile_plan(
        out, units, fault_seed, kinds, fraction, permanent, hang_seconds,
        lambda line: say(f"chaos: {line}"),
    )

    # corrupt_cache faults are driver-side: damage the entry the unit
    # would hit before the chaos sweep starts.
    chaos_dir = out / "chaos"
    cache = ResultCache(chaos_dir / "cache")
    by_uid = {unit.uid: unit for unit in units}
    for uid, spec in plan.faults.items():
        if spec.kind == "corrupt_cache":
            corrupt_cache_entry(cache, by_uid[uid], spec)

    previous_plan = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(plan_path)
    try:
        driver.run_all(
            chaos_dir,
            scale=scale,
            seed=seed,
            jobs=jobs,
            quiet=quiet,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
        )
    finally:
        if previous_plan is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous_plan

    record = chaos_record(baseline_dir, chaos_dir, plan)
    report = ChaosReport(
        plan=plan,
        record=record,
        baseline_dir=baseline_dir,
        chaos_dir=chaos_dir,
        problems=verdict(record),
    )
    if not quiet:
        summarize("chaos", record, report.problems, say)
    return report
