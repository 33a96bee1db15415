"""``repro chaos``: prove the sweep engine heals under injected faults.

The chaos driver runs the experiment sweep twice into one output
directory:

1. **baseline/** — fault-free, the reference manifest and artifacts;
2. **chaos/** — the same sweep with a seeded fault plan active
   (``REPRO_FAULT_PLAN``), per-unit timeouts, and a retry budget;
   ``corrupt_cache`` faults additionally pre-seed damaged entries into
   the chaos run's result cache before it starts.

The verdict is the whole point: after ``strip_volatile``, every
non-quarantined experiment record and artifact of the chaos run must
be **byte-identical** to the fault-free baseline — injected hangs,
crashes, transient failures, allocator errors, and cache corruption
may cost retries, but they must never change a result.  Units the plan
made permanently faulty must end up quarantined (and nothing else may).
And the faults must have fired: a runner that never killed a hang
would still heal to identity once the hang slept itself out, so the
chaos manifest's ``fault`` counters must reach the plan
(:func:`missing_faults`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import run_all as driver
from repro.faults.inject import ENV_VAR, corrupt_cache_entry
from repro.faults.plan import FaultPlan
from repro.harness.parallel import ResultCache, strip_volatile

#: Default kind mix for a chaos run: every *healable* failure mode the
#: engine must recover from.  (``raise`` shows up via ``--permanent``
#: faults, which exercise quarantine.)
DEFAULT_KINDS = ("hang", "crash", "transient", "memory_error",
                 "corrupt_cache")


@dataclass
class ChaosReport:
    """Outcome of one chaos-vs-baseline comparison."""

    ok: bool
    plan: FaultPlan
    fault: Dict[str, int]
    baseline_dir: Path
    chaos_dir: Path
    quarantined: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def check_identity(
    baseline_dir: Path, chaos_dir: Path, expected_quarantine: Sequence[str]
) -> Tuple[List[str], List[str], List[str]]:
    """Compare a fault-injected sweep against its fault-free baseline.

    Returns ``(quarantined, mismatches, problems)``: the chaos run's
    quarantined units; one line per non-quarantined experiment whose
    record (after ``strip_volatile``) or artifact bytes differ; and
    every disagreement between the quarantine set and
    ``expected_quarantine`` (the plan's permanent faults).  The run
    healed iff both lists are empty.
    """
    baseline = json.loads((baseline_dir / "manifest.json").read_text())
    chaos = json.loads((chaos_dir / "manifest.json").read_text())
    quarantined = sorted(chaos.get("quarantine", {}))
    expected = set(expected_quarantine)
    problems = [
        f"{uid}: quarantined but its fault was healable"
        for uid in quarantined
        if uid not in expected
    ] + [
        f"{uid}: permanently faulted but not quarantined"
        for uid in sorted(expected)
        if uid not in quarantined
    ]

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
    return quarantined, mismatches, problems


#: Fault kinds whose every injection fails an attempt, so costs a retry.
_FAILING_KINDS = ("hang", "crash", "transient", "memory_error")


def missing_faults(plan: FaultPlan, fault: Dict[str, int]) -> List[str]:
    """One line per ``fault`` counter of a chaos run below the plan.

    Every planned hang must have timed out, every planned crash
    crashed, and every planned failing fault cost at least one retry.
    """
    counts = plan.kind_counts()
    floors = {
        "timeouts": counts.get("hang", 0),
        "crashes": counts.get("crash", 0),
        "retries": sum(counts.get(kind, 0) for kind in _FAILING_KINDS),
    }
    return [
        f"fault.{name}: {fault.get(name, 0)} counted, {floor} planned"
        for name, floor in floors.items()
        if fault.get(name, 0) < floor
    ]


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
    """Run baseline + chaos sweeps and compare; returns the report.

    ``permanent`` makes that many of the planned faults unhealable so
    the run also demonstrates quarantine; those units are *expected* in
    the chaos manifest's ``quarantine`` section and excluded from the
    identity check.  Everything else must match the baseline exactly.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    say = (lambda *_: None) if quiet else print

    previous_plan = os.environ.pop(ENV_VAR, None)
    try:
        say(f"chaos: fault-free baseline (scale {scale}, jobs {jobs})")
        baseline_dir = driver.run_all(
            out / "baseline", scale=scale, seed=seed, jobs=jobs, quiet=quiet
        )

        units = driver.experiment_units(scale, seed)
        plan = FaultPlan(seed=fault_seed).compile_mix(
            [unit.uid for unit in units],
            kinds=list(kinds),
            fraction=fraction,
            permanent=permanent,
            hang_seconds=hang_seconds,
        )
        plan_path = plan.write(out / "fault-plan.json")
        say(
            "chaos: injecting "
            + ", ".join(
                f"{count} {kind}"
                for kind, count in plan.kind_counts().items()
            )
            + (f" ({permanent} permanent)" if permanent else "")
        )

        # corrupt_cache faults are driver-side: damage the entry the
        # unit would hit before the chaos sweep starts.
        chaos_dir = out / "chaos"
        cache = ResultCache(chaos_dir / "cache")
        by_uid = {unit.uid: unit for unit in units}
        for uid, spec in plan.faults.items():
            if spec.kind == "corrupt_cache":
                corrupt_cache_entry(cache, by_uid[uid], spec)

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
            del os.environ[ENV_VAR]
    finally:
        if previous_plan is not None:
            os.environ[ENV_VAR] = previous_plan

    quarantined, mismatches, problems = check_identity(
        baseline_dir, chaos_dir, plan.permanent_uids()
    )
    chaos = json.loads((chaos_dir / "manifest.json").read_text())
    fault = chaos.get("fault", {})
    problems += missing_faults(plan, fault)

    report = ChaosReport(
        ok=not problems and not mismatches,
        plan=plan,
        fault=fault,
        baseline_dir=baseline_dir,
        chaos_dir=chaos_dir,
        quarantined=quarantined,
        mismatches=mismatches,
        problems=problems,
    )

    if not quiet:
        from repro.harness.statsdump import format_fault_stats

        say(format_fault_stats(report.fault))
        if quarantined:
            say(f"chaos: quarantined (expected): {', '.join(quarantined)}")
        for line in problems + mismatches:
            say(f"chaos: PROBLEM: {line}")
        say(
            "chaos: PASS — degraded run byte-identical to baseline "
            "for all non-quarantined units"
            if report.ok
            else "chaos: FAIL"
        )
    return report
