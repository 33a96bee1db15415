"""Cache-aware job scheduler: priorities, single-flight dedup, drain.

The scheduler owns the daemon's entire job state and runs entirely on
the event loop (no locks — every mutation happens between awaits).  It
decomposes admitted jobs into work units and schedules *units*, not
jobs, so one long sweep cannot convoy a later high-priority request
behind it.

Scheduling order is ``(priority class, admission seq, unit index)``:
strict priority between classes, FIFO fairness within a class, and a
job's own units in their natural order.  Dispatch happens only when a
worker slot frees, so the order is honoured at the moment capacity
exists, not at admission time.

**Admission control** is explicit: more than ``max_jobs`` open jobs is
a structured ``queue_full`` rejection (the client retries or backs
off), never an unbounded queue; a draining daemon rejects everything
with ``draining``.

**Single-flight dedup** works at the unit's *cache key* — the same
content hash the :class:`~repro.harness.parallel.ResultCache` uses.
At admission each unit first consults the cache (a hit never executes),
then the in-flight table: if another job is already running an
execution with the same key, the new job *attaches* as a subscriber
and both receive the one result when it lands (and it is written to
the cache once).  N clients submitting the same sweep concurrently
therefore cost exactly one execution per unique cell, which
``executions_started`` makes observable (and testable).

**Drain** (SIGTERM): admission closes, queued units stop dispatching,
in-flight attempts get a grace period before SIGKILL, completed
results land in the cache as usual, and every still-open job is
persisted to ``queue.json``.  A restarted daemon resubmits the
persisted jobs under their original ids; their completed units come
back as cache hits, so a drain loses zero completed work.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.parallel import (
    WORKER_ABORTED,
    ResultCache,
    UnitResult,
    WorkUnit,
)
from repro.harness.persistence import atomic_write_json
from repro.service.jobs import (
    PRIORITIES,
    Job,
    JobParamsError,
    build_units,
    finalize_job,
)
from repro.service.pool import UnitExecutor

#: Persisted queue file name (under the daemon state directory).
QUEUE_FILE = "queue.json"


class AdmissionError(Exception):
    """A submit the scheduler refuses; ``code`` is the protocol code."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


@dataclass
class Execution:
    """One in-flight unit execution, shared by every subscribed job."""

    key: str
    unit: WorkUnit
    subscribers: List[Tuple[Job, str]] = field(default_factory=list)
    task: object = None  # asyncio.Task, set at dispatch


class Scheduler:
    def __init__(
        self,
        executor: UnitExecutor,
        cache: Optional[ResultCache],
        slots: int = 2,
        max_jobs: int = 8,
        salt: Optional[str] = None,
        jobs_dir=None,
    ) -> None:
        self.executor = executor
        self.cache = cache
        self.slots = max(1, slots)
        self.max_jobs = max_jobs
        self.salt = salt
        self.jobs_dir = jobs_dir  # default run_all artifact root
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        self.executions_started = 0
        self._next_job = 1
        self._next_seq = 1
        self._ready: List[Tuple[int, int, int, str]] = []  # heap
        self._inflight: Dict[str, Execution] = {}  # cache key -> execution
        self._heap_units: Dict[str, Tuple[Job, WorkUnit]] = {}
        self._loop = None  # captured lazily on first submit

    # ------------------------------------------------------------- events

    def _event(self, job: Job, kind: str, **fields) -> None:
        job.event_seq += 1
        event = {
            "type": "event",
            "seq": job.event_seq,
            "ts": round(time.time(), 3),
            "job": job.id,
            "kind": kind,
        }
        event.update(fields)
        job.events.append(event)
        for queue in list(job.watchers):
            queue.put_nowait(event)

    # ------------------------------------------------------------- submit

    def submit(
        self,
        kind: str,
        params: dict,
        priority: str = "normal",
        job_id: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Job:
        """Admit one job (or reject with :class:`AdmissionError`)."""
        import asyncio

        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        if self.draining:
            raise AdmissionError(
                "draining", "daemon is draining; resubmit after restart"
            )
        if priority not in PRIORITIES:
            raise AdmissionError(
                "bad_params",
                f"unknown priority {priority!r}; "
                f"known: {', '.join(PRIORITIES)}",
            )
        open_jobs = sum(1 for job in self.jobs.values() if job.open)
        if open_jobs >= self.max_jobs:
            raise AdmissionError(
                "queue_full",
                f"{open_jobs} open jobs (limit {self.max_jobs}); "
                "retry after one completes",
            )
        try:
            units = build_units(kind, dict(params))
        except JobParamsError as error:
            raise AdmissionError("bad_params", str(error))
        if job_id is None:
            job_id = f"j{self._next_job:04d}"
            self._next_job += 1
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq) + 1
        job = Job(
            id=job_id,
            kind=kind,
            params=dict(params),
            priority=priority,
            seq=seq,
            units=units,
        )
        if kind == "run_all":
            # Default artifact directory is stable across a drain/restart
            # cycle because the job keeps its id.
            job.outdir = params.get("outdir")
            if job.outdir is None and self.jobs_dir is not None:
                from pathlib import Path

                job.outdir = str(Path(self.jobs_dir) / job.id)
            if job.outdir is None:
                # Job not yet registered: rejecting here leaks nothing.
                raise AdmissionError(
                    "bad_params",
                    "run_all jobs need an outdir (daemon has no jobs_dir)",
                )
        self.jobs[job.id] = job
        self._event(
            job, "job.queued", job_kind=kind, units=len(units),
            priority=priority,
        )
        self._admit_units(job)
        self._maybe_finish(job)
        self._pump()
        return job

    def _admit_units(self, job: Job) -> None:
        rank = PRIORITIES[job.priority]
        for idx, unit in enumerate(job.units):
            key = unit.cache_key(self.salt)
            if self.cache is not None:
                entry = self.cache.get(key, unit)
                if entry is not None:
                    job.record(
                        unit.uid,
                        UnitResult(
                            uid=unit.uid, ok=True,
                            value=entry["value"], cached=True,
                        ),
                        "cached",
                    )
                    self._event(job, "unit.cached", uid=unit.uid)
                    continue
            execution = self._inflight.get(key)
            if execution is not None:
                # Single-flight: attach to the running execution.
                execution.subscribers.append((job, unit.uid))
                job.unit_state[unit.uid] = "shared"
                job.dedup_hits += 1
                self._event(
                    job, "unit.shared", uid=unit.uid,
                    owner=execution.subscribers[0][0].id,
                )
                continue
            job.unit_state[unit.uid] = "queued"
            entry_key = f"{job.id}/{unit.uid}"
            self._heap_units[entry_key] = (job, unit)
            heapq.heappush(self._ready, (rank, job.seq, idx, entry_key))

    # ----------------------------------------------------------- dispatch

    def _pump(self) -> None:
        """Dispatch queued units into free slots, best-priority first."""
        if self.draining:
            return
        while self._ready and len(self._inflight) < self.slots:
            _, _, _, entry_key = heapq.heappop(self._ready)
            pair = self._heap_units.pop(entry_key, None)
            if pair is None:
                continue
            job, unit = pair
            if not job.open:
                continue
            key = unit.cache_key(self.salt)
            execution = self._inflight.get(key)
            if execution is not None:
                # A sibling job dispatched this key while we queued.
                execution.subscribers.append((job, unit.uid))
                job.unit_state[unit.uid] = "shared"
                job.dedup_hits += 1
                self._event(
                    job, "unit.shared", uid=unit.uid,
                    owner=execution.subscribers[0][0].id,
                )
                continue
            if self.cache is not None:
                # A sibling's execution of this key may have *finished*
                # while we sat in the queue — without this check the
                # unit re-executes work that is already in the cache,
                # and "executed == unique units" stops holding under
                # concurrent submission storms.
                entry = self.cache.get(key, unit)
                if entry is not None:
                    job.record(
                        unit.uid,
                        UnitResult(
                            uid=unit.uid, ok=True,
                            value=entry["value"], cached=True,
                        ),
                        "cached",
                    )
                    self._event(job, "unit.cached", uid=unit.uid)
                    self._maybe_finish(job)
                    continue
            self._dispatch(job, unit, key)

    def _dispatch(self, job: Job, unit: WorkUnit, key: str) -> None:
        import asyncio

        execution = Execution(
            key=key, unit=unit, subscribers=[(job, unit.uid)]
        )
        self._inflight[key] = execution
        self.executions_started += 1
        job.executed += 1
        if job.started is None:
            job.started = time.time()
            job.state = "running"
            self._event(job, "job.started")
        job.unit_state[unit.uid] = "running"
        self._event(job, "unit.started", uid=unit.uid)
        execution.task = asyncio.ensure_future(self._run(execution))

    async def _run(self, execution: Execution) -> None:
        unit = execution.unit

        def on_event(kind: str, info: dict) -> None:
            # Progress and fault.* alike: every subscribed job sees it.
            for job, _uid in list(execution.subscribers):
                self._event(job, kind, **info)

        try:
            result = await self.executor.run_unit(unit, on_event=on_event)
        except Exception as error:  # noqa: BLE001 — must never leak
            result = UnitResult(
                uid=unit.uid,
                ok=False,
                error={
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": "",
                },
            )
        if result.ok and self.cache is not None:
            self.cache.put(execution.key, unit, result.value)
        self._inflight.pop(execution.key, None)
        aborted = (result.error or {}).get("type") == WORKER_ABORTED
        for job, uid in execution.subscribers:
            delivered = UnitResult(
                uid=uid,
                ok=result.ok,
                value=result.value,
                error=result.error,
                cpu_seconds=result.cpu_seconds,
                wall_seconds=result.wall_seconds,
                cached=job.unit_state.get(uid) == "shared",
                attempts=result.attempts,
                quarantined=result.quarantined,
            )
            if aborted:
                state = "aborted"
            elif result.ok:
                state = "done"
            else:
                state = "failed"
            job.record(uid, delivered, state)
            kind = {
                "done": "unit.done",
                "failed": "unit.failed",
                "aborted": "unit.aborted",
            }[state]
            fields = {"uid": uid, "attempts": result.attempts}
            if not result.ok:
                fields["error"] = result.error["type"]
            self._event(job, kind, **fields)
        for job, _uid in execution.subscribers:
            self._maybe_finish(job)
        self._pump()

    # --------------------------------------------------------- completion

    def _maybe_finish(self, job: Job) -> None:
        import asyncio

        if not job.open:
            return
        terminal = {"cached", "done", "failed", "aborted"}
        if not all(
            job.unit_state.get(unit.uid) in terminal for unit in job.units
        ):
            return
        if any(
            job.unit_state.get(unit.uid) == "aborted" for unit in job.units
        ):
            # Drain interrupted this job: leave it open so the queue
            # persister carries it across the restart.
            return
        asyncio.ensure_future(self._finalize(job))

    async def _finalize(self, job: Job) -> None:
        import asyncio

        try:
            job.result = await asyncio.to_thread(
                finalize_job,
                job.kind, job.params, job.units, job.results, job.outdir,
            )
            job.state = "done"
        except Exception as error:  # noqa: BLE001 — job fails, daemon lives
            job.state = "failed"
            job.error = {
                "type": type(error).__name__,
                "message": str(error),
            }
            for attr in ("uid", "attempts", "count"):
                if hasattr(error, attr):
                    job.error[attr] = getattr(error, attr)
        job.finished = time.time()
        self._event(
            job,
            "job.done" if job.state == "done" else "job.failed",
            state=job.state,
            failures=job.failures,
            dedup_hits=job.dedup_hits,
            executed=job.executed,
            error=job.error,
        )
        job.done_event.set()
        self._pump()

    # -------------------------------------------------------------- drain

    async def drain(self, grace: float) -> None:
        """Close admission, finish/abort in-flight work, settle jobs."""
        self.draining = True
        self.executor.begin_drain(grace)
        tasks = [
            execution.task
            for execution in list(self._inflight.values())
            if execution.task is not None
        ]
        if tasks:
            import asyncio

            await asyncio.gather(*tasks, return_exceptions=True)

    def persist(self, state_dir) -> int:
        """Write every still-open job to ``queue.json``; returns count."""
        from pathlib import Path

        open_jobs = sorted(
            (job for job in self.jobs.values() if job.open),
            key=lambda job: job.seq,
        )
        payload = {
            "next_job": self._next_job,
            "next_seq": self._next_seq,
            "jobs": [job.to_disk() for job in open_jobs],
        }
        atomic_write_json(Path(state_dir) / QUEUE_FILE, payload)
        return len(open_jobs)

    def restore(self, state_dir) -> int:
        """Resubmit jobs persisted by a drained daemon; returns count."""
        import json
        from pathlib import Path

        path = Path(state_dir) / QUEUE_FILE
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return 0
        except (json.JSONDecodeError, OSError):
            # A torn queue file should be impossible (writes are
            # fsync'd temp + atomic rename), but if one ever appears —
            # filesystem bug, manual edit — quarantine it under a
            # .corrupt name so the evidence survives and the daemon
            # still starts cleanly.
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
            return 0
        if not isinstance(payload, dict):
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
            return 0
        self._next_job = max(self._next_job, payload.get("next_job", 1))
        self._next_seq = max(self._next_seq, payload.get("next_seq", 1))
        restored = 0
        for record in payload.get("jobs", []):
            try:
                self.submit(
                    record["kind"],
                    record.get("params", {}),
                    priority=record.get("priority", "normal"),
                    job_id=record.get("id"),
                    seq=record.get("seq"),
                )
                restored += 1
            except AdmissionError:
                continue
        try:
            path.unlink()
        except OSError:
            pass
        return restored

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        counters = {
            "jobs": len(self.jobs),
            "open": sum(1 for job in self.jobs.values() if job.open),
            "inflight": len(self._inflight),
            "queued_units": len(self._heap_units),
            "executions": self.executions_started,
            "dedup_hits": sum(
                job.dedup_hits for job in self.jobs.values()
            ),
            "draining": self.draining,
        }
        if self.cache is not None:
            counters["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "races": self.cache.races,
                "healed": self.cache.healed,
            }
        return counters
