"""``repro loadgen``: the chaos proof on the sweep fabric.

Runs against *real* daemon processes: the coordinator and its workers
are spawned as subprocesses of this harness, exactly as an operator
would run them.  A canonical ``run_all`` job runs on a multi-worker
fleet with a seeded unit-level fault plan active inside the workers
(``REPRO_FAULT_PLAN``) *and* a seeded :class:`WorkerKillPlan` executed
against the fleet — workers SIGKILLed mid-flight once the coordinator
has redeemed N results, replacements rejoining after a delay.  This is
the fleet executor of :mod:`repro.faults.chaos`: its output is judged
against the same fault-free direct ``run_all`` and by the same
:func:`~repro.faults.chaos.verdict` as ``repro chaos`` — identity for
every non-quarantined unit, quarantine equal to the plan's permanents,
``fault`` counters that reach the plan, and every planned kill landed.
Worker death may cost reassignments, never results.

The run's record is written to ``BENCH_service.json`` and checked in
CI via ``--baseline`` (:func:`compare_to_baseline`).  No host time is
recorded: ``benchmarks/e2e`` is the one timing record, and its
``service`` workload is the fabric under a submission storm.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.plan import WorkerKillPlan
from repro.service.client import ServiceClient, ServiceError, wait_for_daemon

#: Format tag of the committed benchmark artifact.
FORMAT = "bench-service/v2"

#: The fleet's chaos shape, pinned as ``BENCH_service.json``'s
#: ``config``: the kill plan's seed, the fault plan's seed, the
#: canonical job's scale, the fleet (workers and slots per worker), the
#: seeded kills and the unhealable faults (the expected quarantine).
CONFIG = {
    "chaos_workers": 2,
    "fault_seed": 7,
    "kills": 1,
    "permanent": 1,
    "scale": 0.05,
    "seed": 11,
    "slots_per_worker": 2,
}

#: Experiments of the canonical chaos job: every run_all experiment
#: without a fixed large-scale override, so the job stays CI-sized.
FAST_EXPERIMENTS = (
    "table1", "table2", "table3", "fig7", "fig8",
    "intext", "security", "stalls",
)

#: Worker-side per-unit wall-clock kill and retry budget.
UNIT_TIMEOUT = 120.0
UNIT_RETRIES = 2

#: How long to wait for the chaos job before giving up.
JOB_DEADLINE = 600.0


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
        worker_env: Optional[Dict[str, str]] = None,
        max_jobs: int = 16,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
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
                "--timeout", str(UNIT_TIMEOUT),
                "--retries", str(UNIT_RETRIES),
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
                "--slots", str(CONFIG["slots_per_worker"]),
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


# ---------------------------------------------------------- chaos run


def _wait_job(fleet: Fleet, job_id: str) -> Dict:
    """Poll a job to terminal state, tolerating coordinator hiccups."""
    deadline = time.monotonic() + JOB_DEADLINE
    while time.monotonic() < deadline:
        try:
            with fleet.client() as client:
                job = client.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
        except (OSError, ServiceError):
            pass
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} still open after {JOB_DEADLINE}s")


def _execute_kill_plan(
    fleet: Fleet, kill_plan: WorkerKillPlan, job_id: str, say
) -> List[Dict]:
    """Watch the redeemed-results counter; fire kills on schedule."""
    executed: List[Dict] = []
    pending = sorted(kill_plan.kills, key=lambda kill: kill.after_results)
    rejoin_at: List[float] = []
    deadline = time.monotonic() + JOB_DEADLINE
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
            # verdict checks kills actually landed.
            break
        time.sleep(0.05)
    return executed


def run_loadgen(outdir, quiet: bool = False) -> Dict:
    """Run the fleet's chaos proof into ``outdir``; returns the bench
    payload, whose ``chaos`` record :func:`compare_to_baseline` judges."""
    from repro.experiments.run_all import experiment_units
    from repro.faults.chaos import chaos_record, compile_plan, direct_baseline

    say = (lambda *_: None) if quiet else print
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    scale, names = CONFIG["scale"], list(FAST_EXPERIMENTS)

    say("loadgen: fault-free direct baseline")
    baseline_run = direct_baseline(out / "baseline-run", scale, 1234, 2, names)
    units = experiment_units(scale, 1234, names=names)
    fault_plan, fault_path = compile_plan(
        out, units, CONFIG["fault_seed"], ("transient", "crash"), 0.5,
        CONFIG["permanent"], 300.0, lambda line: say(f"loadgen: {line}"),
    )
    kill_plan = WorkerKillPlan.compile(
        seed=CONFIG["seed"],
        workers=CONFIG["chaos_workers"],
        kills=CONFIG["kills"],
        total_units=len(units),
        rejoin_delay=1.0,
    )
    kill_plan.write(out / "kill-plan.json")
    say(
        f"loadgen: chaos run ({CONFIG['chaos_workers']} workers, "
        f"{CONFIG['kills']} kill(s))"
    )

    chaos_run = out / "chaos-run"
    fleet = Fleet(
        out / "chaos-state", worker_env={"REPRO_FAULT_PLAN": str(fault_path)}
    )
    try:
        fleet.start_coordinator()
        for _ in range(CONFIG["chaos_workers"]):
            fleet.start_worker()
        fleet.wait_capacity(CONFIG["chaos_workers"])
        with fleet.client() as client:
            job_id = client.submit(
                "run_all",
                {"scale": scale, "seed": 1234, "names": names,
                 "outdir": str(chaos_run)},
            )["id"]
        kills_executed = _execute_kill_plan(fleet, kill_plan, job_id, say)
        job = _wait_job(fleet, job_id)
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

    record = chaos_record(baseline_run, chaos_run, fault_plan)
    record.update(
        fabric=fabric_stats,
        kills_executed=kills_executed,
        kills_planned=CONFIG["kills"],
        permanent_faults=CONFIG["permanent"],
        units=len(units),
        workers=CONFIG["chaos_workers"],
    )
    return {"format": FORMAT, "config": dict(CONFIG), "chaos": record}


# ----------------------------------------------------------- bench gate


def compare_to_baseline(current: Dict, baseline: Optional[Dict]) -> List[str]:
    """Every reason a bench payload fails: the chaos verdict on its
    record, plus drift from the committed bench when one is given.

    Everything compared is exact by construction, so any difference is
    a real behaviour change.
    """
    from repro.faults.chaos import verdict

    chaos = current.get("chaos", {})
    problems: List[str] = []
    if baseline is not None:
        if baseline.get("format") != current.get("format"):
            problems.append(
                f"format: {baseline.get('format')} != {current.get('format')}"
            )
        if baseline.get("config") != current.get("config"):
            problems.append(
                "config differs from baseline (regenerate "
                "BENCH_service.json when the loadgen shape changes)"
            )
        base_chaos = baseline.get("chaos", {})
        drifted = [
            key for key in ("fault_kinds", "quarantine_expected")
            if chaos.get(key) != base_chaos.get(key)
        ]
        if drifted:
            problems.append(f"fault plan drifted: {', '.join(drifted)}")
    return problems + verdict(chaos)
