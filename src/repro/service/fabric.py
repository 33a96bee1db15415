"""Coordinator side of the distributed sweep fabric.

``repro serve --coordinator`` keeps the whole v1 service surface —
scheduler, admission control, single-flight dedup, shared result
cache — but executes units on *remote worker daemons* (``repro worker
--connect``) instead of a local pool.  This module owns everything
worker-facing:

* the **worker registry**: every registered worker's name, capacity,
  connection, and last-heartbeat time.  Total registered capacity is
  the scheduler's slot count, updated live as workers join and leave.
* **leases**: one per assigned unit.  A lease is the coordinator's
  claim check — it is granted at assignment, redeemed by exactly one
  ``w.result``, and *revoked* when the worker's connection dies or its
  heartbeats stop.  A revoked lease's unit is deterministically
  reassigned (see below) with a bounded budget; a unit that exhausts
  the budget is delivered to the scheduler as a structured
  ``WorkerLost`` failure with ``quarantined=True``, which reuses the
  PR 4 quarantine-and-continue semantics — the sweep completes
  degraded rather than hanging on a dead host.
* **routing**: units are routed by rendezvous (highest-random-weight)
  hashing of ``(worker name, unit cache key)`` over the live workers
  with free capacity.  The content-addressed unit key therefore gives
  the fabric free, deterministic placement — the same worker set and
  the same sweep shard identically every run, and a reassignment after
  one worker's death lands on a deterministic survivor.
* **liveness**: workers heartbeat every ``heartbeat`` seconds; the
  monitor task declares a worker dead after ``miss_factor`` silent
  intervals (or instantly on connection EOF) and revokes all its
  leases.  A worker that rejoins registers as a fresh worker and
  immediately becomes routable again — rejoin is indistinguishable
  from a new worker joining, which is what makes kill/rejoin churn
  safe.

Late results are harmless by construction: a ``w.result`` for a lease
the coordinator no longer holds is discarded (results are
content-addressed and idempotent), so a worker that was *declared*
dead but was merely slow can never double-deliver into a job.

Everything here runs on the daemon's event loop; like the scheduler,
mutation happens only between awaits, so there are no locks.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.harness.parallel import (
    QUARANTINE,
    WORKER_ABORTED,
    RetryPolicy,
    UnitResult,
    WorkUnit,
)
from repro.service import protocol

#: How often the monitor task scans lease/worker deadlines, as a
#: fraction of the heartbeat interval.
_MONITOR_FRACTION = 0.5

#: Structured error type for a unit whose workers kept dying.
WORKER_LOST = "WorkerLost"


@dataclass
class WorkerHandle:
    """One registered worker daemon (coordinator-side view)."""

    name: str
    slots: int
    pid: int
    writer: asyncio.StreamWriter
    registered: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.monotonic)
    inflight: int = 0  # leases currently assigned to this worker
    completed: int = 0  # results this worker delivered
    alive: bool = True

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - self.inflight)

    def to_wire(self) -> Dict:
        return {
            "name": self.name,
            "slots": self.slots,
            "pid": self.pid,
            "inflight": self.inflight,
            "completed": self.completed,
            "registered": round(self.registered, 3),
        }


@dataclass
class Lease:
    """One in-flight assignment: unit → worker, redeemed by one result.

    ``on_event`` is the run's event callback; the worker's
    ``w.progress`` frames for this lease reach it (see
    :meth:`FabricDispatcher.progress_from`).
    """

    id: str
    unit: WorkUnit
    on_event: Callable[[str, dict], None]
    worker: str
    granted: float = field(default_factory=time.monotonic)
    future: "asyncio.Future" = None  # resolves to UnitResult or None (lost)


def rendezvous_rank(key: str, names: List[str]) -> List[str]:
    """Worker names in deterministic preference order for one unit key.

    Classic highest-random-weight hashing: every (worker, key) pair
    hashes independently, so removing one worker only moves the units
    that lived on it — the rest of the sweep's placement is unchanged,
    which keeps kill/rejoin churn from reshuffling the world.
    """
    return sorted(
        names,
        key=lambda name: hashlib.sha256(
            f"{name}\0{key}".encode()
        ).hexdigest(),
        reverse=True,
    )


class FabricDispatcher:
    """Remote execution backend with the :class:`UnitExecutor` interface.

    The scheduler calls :meth:`run_unit` exactly as it would on the
    local executor; this class hides assignment, lease tracking,
    revocation, and bounded reassignment behind that one awaitable.
    """

    def __init__(
        self,
        heartbeat: float = 1.0,
        miss_factor: float = 3.0,
        unit_retries: int = 2,
        timeout: Optional[float] = None,
        retries: int = 0,
        salt: Optional[str] = None,
        log: Optional[Callable[[str], None]] = None,
        events_path: Optional[Path] = None,
    ) -> None:
        self.heartbeat = heartbeat
        self.miss_factor = miss_factor
        # A lost lease is a failed attempt with no backoff: up to
        # ``unit_retries`` reassignments, then the policy quarantines.
        self.lost_policy = RetryPolicy(retries=unit_retries, backoff=0.0)
        self.timeout = timeout  # worker-side per-unit policy, sent in assign
        self.retries = retries
        self.salt = salt
        self.log = log if log is not None else (lambda message: None)
        self.events_path = Path(events_path) if events_path else None
        self.workers: Dict[str, WorkerHandle] = {}
        self.leases: Dict[str, Lease] = {}
        self.on_capacity_change: Optional[Callable[[int], None]] = None
        self.assignments = 0
        self.reassignments = 0
        self.redeemed = 0
        self.lost_units = 0
        self.workers_joined = 0
        self.workers_lost = 0
        self._next_lease = 1
        self._next_worker = 1
        self._wake = asyncio.Event()  # capacity freed / worker joined
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._monitor_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------ events

    def _record(self, kind: str, **fields) -> None:
        """Append one fabric event to the JSONL log (best-effort)."""
        if self.events_path is None:
            return
        event = {"kind": kind, "ts": round(time.time(), 3)}
        event.update(fields)
        try:
            with self.events_path.open("a") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:
            pass

    # ---------------------------------------------------------- capacity

    @property
    def capacity(self) -> int:
        return sum(
            worker.slots for worker in self.workers.values() if worker.alive
        )

    def _capacity_changed(self) -> None:
        self._wake.set()
        if self.on_capacity_change is not None:
            self.on_capacity_change(self.capacity)

    # ------------------------------------------------------ registration

    def register(self, frame: dict, writer: asyncio.StreamWriter) -> WorkerHandle:
        """Admit one worker connection (its ``w.register`` frame)."""
        requested = frame.get("name")
        name = (
            str(requested)
            if requested
            else f"worker-{self._next_worker:03d}"
        )
        self._next_worker += 1
        if name in self.workers:
            # A rejoin under a live name: the old registration is dead
            # weight (its connection is gone or about to be) — drop it
            # first so the rejoined worker is the one that counts.
            self.worker_lost(name, reason="replaced by rejoin")
        worker = WorkerHandle(
            name=name,
            slots=max(1, int(frame.get("slots", 1))),
            pid=int(frame.get("pid", 0)),
            writer=writer,
        )
        self.workers[name] = worker
        self.workers_joined += 1
        self.log(
            f"fabric: worker {name} joined "
            f"(slots={worker.slots}, pid={worker.pid})"
        )
        self._record("worker.join", worker=name, slots=worker.slots,
                     pid=worker.pid)
        self._capacity_changed()
        return worker

    def heartbeat_from(self, name: str) -> None:
        worker = self.workers.get(name)
        if worker is not None:
            worker.last_seen = time.monotonic()

    def worker_lost(self, name: str, reason: str = "connection lost") -> None:
        """Unregister one worker and revoke every lease it held."""
        worker = self.workers.pop(name, None)
        if worker is None:
            return
        worker.alive = False
        self.workers_lost += 1
        self.log(f"fabric: worker {name} lost ({reason})")
        self._record("worker.lost", worker=name, reason=reason)
        for lease in [
            lease for lease in self.leases.values() if lease.worker == name
        ]:
            self._revoke(lease, reason=f"worker {name}: {reason}")
        try:
            worker.writer.close()
        except Exception:  # noqa: BLE001 — already dead is fine
            pass
        self._capacity_changed()

    # ------------------------------------------------------------ leases

    def _revoke(self, lease: Lease, reason: str) -> None:
        """Revoke one lease: its unit goes back to the reassignment loop."""
        if self.leases.pop(lease.id, None) is None:
            return  # already redeemed or revoked
        worker = self.workers.get(lease.worker)
        if worker is not None:
            worker.inflight = max(0, worker.inflight - 1)
        self.log(
            f"fabric: revoke {lease.id} ({lease.unit.uid}) — {reason}"
        )
        self._record("lease.revoke", lease=lease.id, uid=lease.unit.uid,
                     worker=lease.worker, reason=reason)
        if lease.future is not None and not lease.future.done():
            lease.future.set_result(None)  # None = lost, caller reassigns
        self._wake.set()

    def redeem(self, lease_id: str, result_wire: dict) -> None:
        """Deliver one ``w.result``; unknown leases are discarded."""
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            # Revoked (missed heartbeat, presumed-dead worker): the
            # reassigned execution is authoritative; this late copy is
            # dropped on the floor.
            self.log(f"fabric: late result for unknown lease {lease_id}")
            self._record("lease.late", lease=lease_id)
            return
        worker = self.workers.get(lease.worker)
        if worker is not None:
            worker.inflight = max(0, worker.inflight - 1)
            worker.completed += 1
        self.redeemed += 1
        self._record("lease.redeem", lease=lease_id, uid=lease.unit.uid,
                     worker=lease.worker)
        if lease.future is not None and not lease.future.done():
            lease.future.set_result(protocol.result_from_wire(result_wire))
        self._wake.set()

    def progress_from(self, lease_id: str, event: dict) -> None:
        """Deliver one ``w.progress`` event to its lease's run.

        An event for a lease no longer held (redeemed, or revoked and
        reassigned) is dropped, like a late result.
        """
        lease = self.leases.get(lease_id)
        if lease is None or not isinstance(event, dict):
            return
        info = dict(event)
        lease.on_event(info.pop("kind", "progress"), info)

    # ---------------------------------------------------------- dispatch

    def _route(self, key: str) -> Optional[WorkerHandle]:
        """Deterministic placement: HRW order, first with a free slot."""
        live = [
            worker.name
            for worker in self.workers.values()
            if worker.alive and worker.free_slots > 0
        ]
        if not live:
            return None
        return self.workers[rendezvous_rank(key, live)[0]]

    def _grant(
        self,
        worker: WorkerHandle,
        unit: WorkUnit,
        on_event: Callable[[str, dict], None],
    ) -> Lease:
        lease = Lease(
            id=f"L{self._next_lease:06d}",
            unit=unit,
            on_event=on_event,
            worker=worker.name,
            future=asyncio.get_event_loop().create_future(),
        )
        self._next_lease += 1
        self.leases[lease.id] = lease
        worker.inflight += 1
        self.assignments += 1
        self._record("lease.grant", lease=lease.id, uid=unit.uid,
                     worker=worker.name)
        worker.writer.write(
            protocol.encode_frame(
                {
                    "type": "w.assign",
                    "lease": lease.id,
                    "unit": protocol.unit_to_wire(unit),
                    "timeout": self.timeout,
                    "retries": self.retries,
                }
            )
        )
        return lease

    def _aborted(self, unit: WorkUnit, attempt: int) -> UnitResult:
        return UnitResult(
            uid=unit.uid,
            ok=False,
            error={
                "type": WORKER_ABORTED,
                "message": "coordinator drained while the unit was "
                "pending; it will re-run after restart",
                "traceback": "",
            },
            attempts=attempt,
        )

    async def run_unit(
        self,
        unit: WorkUnit,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> UnitResult:
        """Run one unit on the fabric to a final :class:`UnitResult`.

        Same contract as :meth:`UnitExecutor.run_unit`: never raises,
        returns quarantined-or-aborted structured failures instead.
        ``on_event`` receives ``fabric.*`` lifecycle decisions and the
        events the worker forwards for the unit's current lease.
        """
        emit = on_event if on_event is not None else (lambda kind, info: None)
        key = unit.cache_key(self.salt)
        assignment = 0
        while True:
            if self._draining:
                return self._aborted(unit, max(1, assignment))
            worker = self._route(key)
            if worker is None:
                # No live worker with a free slot: wait for a join or a
                # freed slot, re-checking drain state periodically.
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=self.heartbeat
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            assignment += 1
            lease = self._grant(worker, unit, emit)
            emit(
                "fabric.assign",
                {
                    "uid": unit.uid,
                    "worker": worker.name,
                    "lease": lease.id,
                    "assignment": assignment,
                },
            )
            outcome = await lease.future
            if outcome is not None:
                outcome.attempts = max(outcome.attempts, assignment)
                return outcome
            # Lease revoked: the worker died or went silent mid-unit.
            emit(
                "fabric.lost",
                {
                    "uid": unit.uid,
                    "worker": worker.name,
                    "lease": lease.id,
                    "assignment": assignment,
                },
            )
            if self._draining:
                return self._aborted(unit, assignment)
            lost = UnitResult(
                uid=unit.uid,
                ok=False,
                error={
                    "type": WORKER_LOST,
                    "message": (
                        f"{assignment} worker(s) died or went silent "
                        f"while running this unit"
                    ),
                    "traceback": "",
                },
            )
            answer, _ = self.lost_policy.decide(lost, assignment)
            if answer == QUARANTINE:
                self.lost_units += 1
                return self.lost_policy.finish(
                    lost, assignment, (0.0, 0.0), True, emit
                )
            self.reassignments += 1

    # ----------------------------------------------------------- monitor

    async def monitor(self) -> None:
        """Heartbeat watchdog; runs for the daemon's lifetime."""
        interval = max(0.05, self.heartbeat * _MONITOR_FRACTION)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            deadline = self.heartbeat * self.miss_factor
            for worker in list(self.workers.values()):
                if now - worker.last_seen > deadline:
                    self.worker_lost(
                        worker.name,
                        reason=(
                            f"missed heartbeats for "
                            f"{now - worker.last_seen:.1f}s"
                        ),
                    )
            if (
                self._drain_deadline is not None
                and now >= self._drain_deadline
            ):
                for lease in list(self.leases.values()):
                    self._revoke(lease, reason="drain grace expired")

    # ------------------------------------------------------------- drain

    def begin_drain(self, grace: float) -> None:
        """Mirror of :meth:`UnitExecutor.begin_drain` for the fabric.

        Stops granting leases, asks every worker to finish what it
        holds, and arms a deadline after which outstanding leases are
        revoked — their units come back ``WorkerAborted`` and persist
        across the restart, exactly like locally-aborted units.
        """
        self._draining = True
        self._drain_deadline = time.monotonic() + max(0.0, grace)
        self._wake.set()
        for worker in self.workers.values():
            try:
                worker.writer.write(
                    protocol.encode_frame(
                        {"type": "w.drain", "grace": grace}
                    )
                )
            except Exception:  # noqa: BLE001 — dying worker, fine
                pass

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict:
        return {
            "workers": len(self.workers),
            "capacity": self.capacity,
            "leases": len(self.leases),
            "assignments": self.assignments,
            "reassignments": self.reassignments,
            "redeemed": self.redeemed,
            "lost_units": self.lost_units,
            "workers_joined": self.workers_joined,
            "workers_lost": self.workers_lost,
        }
