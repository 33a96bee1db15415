"""``repro loadgen``: prove the sweep fabric under chaos.

Runs against *real* daemon processes: the coordinator and its workers
are spawned as subprocesses of this harness, exactly as an operator
would run them.  A canonical ``run_all`` job is run twice: a
fault-free single-worker baseline, then a multi-worker run with a
seeded unit-level fault plan active inside the workers
(``REPRO_FAULT_PLAN``) *and* a seeded :class:`WorkerKillPlan` executed
against the fleet — workers SIGKILLed mid-flight once the coordinator
has redeemed N results, replacements rejoining after a delay.  The run
passes only if the merged manifest is ``strip_volatile``-identical to
the baseline for every non-quarantined unit and the quarantine set
equals the fault plan's permanents exactly — worker death may cost
reassignments, never results.

The outcome (identity verdict, quarantine sets, kills landed) is
written to ``BENCH_service.json`` and checked in CI via ``--baseline``.
No host time is recorded: ``benchmarks/e2e`` is the one timing record,
and its ``service`` workload is the fabric under a submission storm.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.plan import FaultPlan, WorkerKillPlan
from repro.service.client import ServiceClient, ServiceError, wait_for_daemon

#: Format tag of the committed benchmark artifact.
FORMAT = "bench-service/v2"

#: Experiments of the canonical chaos job: every run_all experiment
#: without a fixed large-scale override, so the job tracks ``--scale``
#: and stays CI-sized.
FAST_EXPERIMENTS = (
    "table1", "table2", "table3", "fig7", "fig8",
    "intext", "security", "stalls",
)


@dataclass
class LoadgenOptions:
    """Knobs of one loadgen run (defaults: the committed bench shape)."""

    out: str
    seed: int = 11
    fault_seed: int = 7
    slots: int = 2  # per worker
    scale: float = 0.05
    chaos_workers: int = 2
    kills: int = 1
    permanent: int = 1
    timeout: float = 120.0  # per-unit wall-clock kill (worker-side)
    retries: int = 2  # worker-side retry budget per unit
    job_deadline: float = 600.0  # give up waiting for any one job
    quiet: bool = False


# ---------------------------------------------------------------- fleet


class Fleet:
    """One coordinator + N worker subprocesses over a short Unix socket.

    Sockets live in a fresh ``/tmp`` directory because ``AF_UNIX``
    paths are capped at ~108 bytes and loadgen output directories can
    be arbitrarily deep.
    """

    def __init__(
        self,
        state_dir: Path,
        options: LoadgenOptions,
        worker_env: Optional[Dict[str, str]] = None,
        max_jobs: int = 16,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.options = options
        self.worker_env = dict(worker_env or {})
        self.max_jobs = max_jobs
        self.socket_dir = Path(tempfile.mkdtemp(prefix="repro-fab-"))
        self.socket_path = str(self.socket_dir / "d.sock")
        self.coordinator: Optional[subprocess.Popen] = None
        self.workers: List[Optional[subprocess.Popen]] = []
        self._next_worker = 0

    def _env(self, extra: Dict[str, str]) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        parts = [src] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        env.update(extra)
        return env

    def start_coordinator(self) -> None:
        log = (self.state_dir / "coordinator.out").open("ab")
        self.coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--coordinator",
                "--state-dir", str(self.state_dir),
                "--socket", self.socket_path,
                "--max-jobs", str(self.max_jobs),
                "--timeout", str(self.options.timeout),
                "--retries", str(self.options.retries),
                "--heartbeat", "0.5",
                "--drain-grace", "30",
            ],
            env=self._env({}),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        wait_for_daemon(socket_path=self.socket_path, timeout=30.0)

    def start_worker(self) -> int:
        """Launch one worker; returns its index in the fleet list."""
        index = self._next_worker
        self._next_worker += 1
        log = (self.state_dir / f"worker-{index}.out").open("ab")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", self.socket_path,
                "--name", f"w{index}",
                "--slots", str(self.options.slots),
            ],
            env=self._env(self.worker_env),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        self.workers.append(process)
        return index

    def kill_worker(self, index: int) -> bool:
        """SIGKILL one worker (no drain, no goodbye) — the chaos move."""
        process = self.workers[index] if index < len(self.workers) else None
        if process is None or process.poll() is not None:
            return False
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        self.workers[index] = None
        return True

    def live_worker_indices(self) -> List[int]:
        return [
            index
            for index, process in enumerate(self.workers)
            if process is not None and process.poll() is None
        ]

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket_path)

    def wait_capacity(self, min_workers: int, timeout: float = 30.0) -> None:
        """Block until the coordinator has registered enough workers."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with self.client() as client:
                    if client.workers()["fabric"]["workers"] >= min_workers:
                        return
            except (OSError, ServiceError):
                pass
            time.sleep(0.1)
        raise TimeoutError(
            f"fabric did not reach {min_workers} worker(s) in {timeout}s"
        )

    def shutdown(self) -> None:
        # Workers first (SIGTERM → clean bye), then drain the
        # coordinator, then hard-kill anything that ignored us.
        for process in self.workers:
            if process is not None and process.poll() is None:
                process.terminate()
        try:
            with self.client() as client:
                client.shutdown()
        except (OSError, ServiceError):
            pass
        if self.coordinator is not None:
            try:
                self.coordinator.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.coordinator.kill()
                self.coordinator.wait(timeout=10)
        for process in self.workers:
            if process is not None and process.poll() is None:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
        try:
            for leftover in self.socket_dir.iterdir():
                leftover.unlink()
            self.socket_dir.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------- chaos phase


def _submit_run_all(
    fleet: Fleet, outdir: Path, options: LoadgenOptions
) -> str:
    with fleet.client() as client:
        job = client.submit(
            "run_all",
            {
                "scale": options.scale,
                "seed": 1234,
                "names": list(FAST_EXPERIMENTS),
                "outdir": str(outdir),
            },
        )
    return job["id"]


def _wait_job(fleet: Fleet, job_id: str, deadline_s: float) -> Dict:
    """Poll a job to terminal state, tolerating coordinator hiccups."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with fleet.client() as client:
                job = client.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
        except (OSError, ServiceError):
            pass
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} still open after {deadline_s}s")


def _execute_kill_plan(
    fleet: Fleet,
    kill_plan: WorkerKillPlan,
    job_id: str,
    options: LoadgenOptions,
    say,
) -> List[Dict]:
    """Watch the redeemed-results counter; fire kills on schedule."""
    executed: List[Dict] = []
    pending = sorted(kill_plan.kills, key=lambda kill: kill.after_results)
    rejoin_at: List[float] = []
    deadline = time.monotonic() + options.job_deadline
    while (pending or rejoin_at) and time.monotonic() < deadline:
        now = time.monotonic()
        while rejoin_at and now >= rejoin_at[0]:
            rejoin_at.pop(0)
            index = fleet.start_worker()
            say(f"loadgen: replacement worker w{index} joining")
        redeemed = None
        job_state = None
        try:
            with fleet.client() as client:
                view = client.workers()
                redeemed = (view.get("fabric") or {}).get("redeemed", 0)
                job_state = client.status(job_id)["state"]
        except (OSError, ServiceError):
            pass
        if redeemed is not None:
            while pending and redeemed >= pending[0].after_results:
                kill = pending.pop(0)
                live = fleet.live_worker_indices()
                if not live:
                    break
                victim = live[kill.worker % len(live)]
                if fleet.kill_worker(victim):
                    say(
                        f"loadgen: SIGKILL worker {victim} after "
                        f"{redeemed} redeemed result(s)"
                    )
                    executed.append(
                        {
                            "worker": victim,
                            "after_results": kill.after_results,
                            "observed_redeemed": redeemed,
                        }
                    )
                    rejoin_at.append(
                        time.monotonic() + kill.rejoin_delay
                    )
        if job_state in ("done", "failed"):
            # Too late for any kill still pending — record that, the
            # bench gate checks kills actually landed.
            break
        time.sleep(0.05)
    return executed


def run_chaos_phase(options: LoadgenOptions, say) -> Dict:
    out = Path(options.out)
    from repro.experiments.run_all import experiment_units
    from repro.faults.chaos import check_identity

    units = experiment_units(
        options.scale, 1234, names=list(FAST_EXPERIMENTS)
    )

    # -- fault-free single-worker baseline ------------------------------
    say("loadgen: chaos baseline (1 worker, no faults)")
    baseline_run = out / "baseline-run"
    fleet = Fleet(out / "baseline-state", options)
    try:
        fleet.start_coordinator()
        fleet.start_worker()
        fleet.wait_capacity(1)
        job_id = _submit_run_all(fleet, baseline_run, options)
        job = _wait_job(fleet, job_id, options.job_deadline)
        if job["state"] != "done":
            raise RuntimeError(
                f"baseline job failed: {job.get('error')}"
            )
    finally:
        fleet.shutdown()

    # -- seeded fault plan + kill schedule ------------------------------
    fault_plan = FaultPlan(seed=options.fault_seed).compile_mix(
        [unit.uid for unit in units],
        kinds=("transient", "crash"),
        fraction=0.5,
        permanent=options.permanent,
        hang_seconds=300.0,
    )
    fault_path = fault_plan.write(out / "fault-plan.json")
    kill_plan = WorkerKillPlan.compile(
        seed=options.seed,
        workers=options.chaos_workers,
        kills=options.kills,
        total_units=len(units),
        rejoin_delay=1.0,
    )
    kill_plan.write(out / "kill-plan.json")
    say(
        "loadgen: chaos run "
        f"({options.chaos_workers} workers, {options.kills} kill(s), "
        + ", ".join(
            f"{count} {kind}"
            for kind, count in fault_plan.kind_counts().items()
        )
        + f", {options.permanent} permanent)"
    )

    # -- chaos run: multi-worker + fault env + kill schedule ------------
    chaos_run = out / "chaos-run"
    fleet = Fleet(
        out / "chaos-state",
        options,
        worker_env={"REPRO_FAULT_PLAN": str(fault_path)},
    )
    kills_executed: List[Dict] = []
    try:
        fleet.start_coordinator()
        for _ in range(options.chaos_workers):
            fleet.start_worker()
        fleet.wait_capacity(options.chaos_workers)
        job_id = _submit_run_all(fleet, chaos_run, options)
        kills_executed = _execute_kill_plan(
            fleet, kill_plan, job_id, options, say
        )
        job = _wait_job(fleet, job_id, options.job_deadline)
        if job["state"] != "done":
            raise RuntimeError(f"chaos job failed: {job.get('error')}")
        with fleet.client() as client:
            fabric_stats = client.ping().get("fabric", {})
    finally:
        fleet.shutdown()

    # Drop the lease journal next to the manifest so ``repro report``
    # on the chaos output renders the fabric section.
    journal = fleet.state_dir / "fabric-events.jsonl"
    if journal.is_file():
        shutil.copy(journal, chaos_run / "fabric-events.jsonl")

    quarantine_expected = fault_plan.permanent_uids()
    quarantine_actual, mismatches, problems = check_identity(
        baseline_run, chaos_run, quarantine_expected
    )
    identity = not mismatches and not problems
    return {
        "workers": options.chaos_workers,
        "kills_planned": options.kills,
        "kills_executed": kills_executed,
        "permanent_faults": options.permanent,
        "fault_kinds": fault_plan.kind_counts(),
        "identity": identity,
        "mismatches": mismatches,
        "quarantine_expected": quarantine_expected,
        "quarantine_actual": quarantine_actual,
        "fabric": fabric_stats,
        "units": len(units),
    }


# ----------------------------------------------------------- bench gate


def compare_to_baseline(current: Dict, baseline: Dict) -> List[str]:
    """Deterministic-field drift between a run and the committed bench.

    Everything compared here is exact by construction, so any
    difference is a real behaviour change.
    """
    problems: List[str] = []
    if baseline.get("format") != current.get("format"):
        problems.append(
            f"format: {baseline.get('format')} != {current.get('format')}"
        )
    if baseline.get("config") != current.get("config"):
        problems.append(
            "config differs from baseline (regenerate BENCH_service.json "
            "when loadgen parameters change)"
        )
    chaos = current.get("chaos", {})
    base_chaos = baseline.get("chaos", {})
    if not chaos.get("identity"):
        problems.append(
            "chaos identity failed: "
            + "; ".join(chaos.get("mismatches", ["(no detail)"]))
        )
    if chaos.get("quarantine_expected") != chaos.get("quarantine_actual"):
        problems.append(
            f"quarantine {chaos.get('quarantine_actual')} != plan "
            f"permanents {chaos.get('quarantine_expected')}"
        )
    if base_chaos and chaos.get("quarantine_expected") != base_chaos.get(
        "quarantine_expected"
    ):
        problems.append(
            "fault plan drifted: expected quarantine set changed"
        )
    if len(chaos.get("kills_executed", [])) < chaos.get("kills_planned", 0):
        problems.append(
            f"only {len(chaos.get('kills_executed', []))} of "
            f"{chaos.get('kills_planned')} planned kill(s) landed "
            "mid-flight"
        )
    return problems


def run_loadgen(options: LoadgenOptions) -> Dict:
    """Run the chaos proof; returns the bench payload (not yet gated)."""
    say = (lambda *_: None) if options.quiet else print
    out = Path(options.out)
    out.mkdir(parents=True, exist_ok=True)

    chaos = run_chaos_phase(options, say)
    say(
        "loadgen: chaos identity "
        + ("PASS" if chaos["identity"] else "FAIL")
        + f" (quarantine {chaos['quarantine_actual']})"
    )

    return {
        "format": FORMAT,
        "config": {
            "seed": options.seed,
            "fault_seed": options.fault_seed,
            "scale": options.scale,
            "slots_per_worker": options.slots,
            "chaos_workers": options.chaos_workers,
            "kills": options.kills,
            "permanent": options.permanent,
        },
        "chaos": chaos,
    }
