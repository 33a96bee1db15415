"""Supervised attempts: one worker process per attempt, one retry policy.

A work unit that runs out of process (:func:`execute_units` with
``jobs > 1``, a ``timeout``, ``retries`` or an active
``REPRO_FAULT_PLAN``; every unit of the job service and the fabric)
runs each attempt in its own worker process.  A worker that dies hard
(``os._exit``, SIGKILL, OOM-kill) fails exactly its own unit as a
``WorkerCrash``; with a per-unit wall-clock ``timeout`` a hung worker
is SIGKILLed as a ``WorkerTimeout``.  With ``retries`` a failed
attempt is retried after a seeded exponential backoff with jitter, and
a unit that exhausts the budget is *quarantined*: the sweep completes
in a marked-degraded state instead of aborting.

Supervision exists once, shared by the sweep engine, the job service
and the distributed fabric: :class:`RetryPolicy` decides what an
attempt's outcome means (retry after a seeded backoff, quarantine, or
done) and stamps the final result; :class:`SupervisedAttempt` runs one
attempt in its own process and classifies crashes, timeouts and drain
aborts; and the async runner :func:`run_unit` drives one unit's
attempts on an event loop.  :func:`supervise_units` runs the engine's
pending units through ``run_unit`` under ``asyncio.run``; the local
daemon and every fabric worker await ``run_unit`` per unit.  All of
them report progress events and ``fault.*`` decisions through one
``emit(kind, info)`` callable.

**Import before fork.**  :mod:`repro.harness.parallel` imports this
module only when it has a unit to supervise, so a run that finds every
unit cached loads neither ``multiprocessing`` nor ``asyncio``.  A
unit's own module is imported in the parent just before its worker
forks (:func:`_import_target`), so forked workers inherit it and a
sweep pays each import once.
"""

from __future__ import annotations

import asyncio
import importlib
import multiprocessing
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.harness.parallel import (
    UnitResult,
    WorkUnit,
    _execute_task,
    backoff_delay,
    install_progress,
)


def _import_target(unit: WorkUnit) -> None:
    """Import ``unit``'s module here, before a worker forks.

    Forked workers inherit it, so a sweep pays each import once, and a
    run that finds every unit cached imports no target at all.  A
    module that fails to import is left to the worker, which reports
    the error as the unit's structured failure.
    """
    try:
        importlib.import_module(unit.module)
    except Exception:  # noqa: BLE001 — the worker reports it
        pass


def _pool_context():
    """Prefer fork (cheap, inherits in-process monkeypatches); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _supervised_worker(conn, task) -> None:
    """Entry point of a per-attempt supervised worker process.

    Progress events travel over ``conn`` as ``(kind, info)`` pairs,
    ahead of the one :class:`UnitResult` that ends the attempt.
    """
    install_progress(lambda kind, info: conn.send((kind, info)))
    try:
        result = _execute_task(task)
        conn.send(result)
    except Exception:  # noqa: BLE001 — e.g. unpicklable value
        try:
            conn.send(
                UnitResult(
                    uid=task[0],
                    ok=False,
                    error={
                        "type": "WorkerProtocolError",
                        "message": "worker could not deliver its result",
                        "traceback": traceback.format_exc(),
                    },
                    attempts=task[4],
                )
            )
        except Exception:  # noqa: BLE001
            pass
    finally:
        conn.close()


def _quiet(kind: str, info: dict) -> None:
    """The ``emit`` of a caller that records no ``fault.*`` events."""


#: Answers of :meth:`RetryPolicy.decide`.
RETRY, QUARANTINE, DONE = "retry", "quarantine", "done"

#: Structured error type of an attempt killed because its host is
#: draining; final, never quarantined (the unit re-runs after restart).
WORKER_ABORTED = "WorkerAborted"


@dataclass(frozen=True)
class RetryPolicy:
    """The one retry/backoff/quarantine policy of every executor.

    The supervised-attempt runner (:func:`run_unit`) and the fabric's
    lost-lease bound (``backoff=0``) both ask this object what an
    attempt's outcome means: retry after a seeded backoff delay,
    quarantine (the retry budget is spent), or done.  ``WorkerAborted``
    and an active drain are final and never quarantined.
    """

    retries: int = 0
    backoff: float = 0.25
    retry_seed: int = 0

    def decide(
        self, result: UnitResult, attempt: int, draining: bool = False
    ) -> Tuple[str, float]:
        """``(answer, delay)`` for attempt number ``attempt`` (1-based)."""
        if (
            result.ok
            or draining
            or (result.error or {}).get("type") == WORKER_ABORTED
        ):
            return DONE, 0.0
        if attempt > self.retries:
            return QUARANTINE, 0.0
        return RETRY, backoff_delay(
            self.backoff, attempt, result.uid, self.retry_seed
        )

    def finish(
        self,
        result: UnitResult,
        attempt: int,
        tally: Sequence[float],
        quarantine: bool,
        emit: Callable[[str, dict], None] = _quiet,
    ) -> UnitResult:
        """Stamp a final result: the ``tally`` of every attempt, the
        attempt count and the quarantine mark (announced as
        ``fault.quarantine``)."""
        (result.cpu_seconds, result.wall_seconds,
         result.timeouts, result.crashes) = tally
        result.attempts = attempt
        result.quarantined = quarantine
        if quarantine:
            emit(
                "fault.quarantine",
                {
                    "uid": result.uid,
                    "attempts": attempt,
                    "error": result.error["type"],
                },
            )
        return result

    def settle(
        self,
        result: UnitResult,
        attempt: int,
        tally: List[float],
        emit: Callable[[str, dict], None] = _quiet,
        draining: bool = False,
    ) -> Optional[float]:
        """Account one attempt; the delay before the next, or None.

        ``tally`` is the unit's running ``[cpu, wall, timeouts,
        crashes]`` total.  None means ``result`` is final and stamped
        (see :meth:`finish`).
        """
        error = (result.error or {}).get("type")
        tally[0] += result.cpu_seconds
        tally[1] += result.wall_seconds
        tally[2] += error == "WorkerTimeout"
        tally[3] += error == "WorkerCrash"
        answer, delay = self.decide(result, attempt, draining)
        if answer == RETRY:
            emit(
                "fault.retry",
                {
                    "uid": result.uid,
                    "attempt": attempt,
                    "error": result.error["type"],
                    "delay": round(delay, 4),
                },
            )
            return delay
        self.finish(result, attempt, tally, answer == QUARANTINE, emit)
        return None


class SupervisedAttempt:
    """One attempt of one unit in its own worker process.

    The worker reports over a one-way pipe: its progress events, then
    its result.  :func:`run_unit` awaits :attr:`conn` and calls
    :meth:`collect` each time it is ready; in between, :meth:`expire`
    enforces the per-unit timeout and an optional drain deadline.  A
    dead worker takes down exactly this attempt, never a shared pool.
    """

    def __init__(
        self,
        context,
        unit: WorkUnit,
        attempt: int,
        timeout: Optional[float],
    ) -> None:
        self.unit = unit
        self.attempt = attempt
        self.timeout = timeout
        self.conn, child_conn = context.Pipe(duplex=False)
        task = (unit.uid, unit.module, unit.func, unit.kwargs, attempt)
        self.process = context.Process(
            target=_supervised_worker,
            args=(child_conn, task),
            daemon=True,
        )
        _import_target(unit)
        self.process.start()
        child_conn.close()
        self.started = time.monotonic()
        self.deadline = (
            self.started + timeout if timeout is not None else None
        )

    def _failure(self, error_type: str, message: str) -> UnitResult:
        return UnitResult(
            uid=self.unit.uid,
            ok=False,
            error={"type": error_type, "message": message, "traceback": ""},
            wall_seconds=time.monotonic() - self.started,
            attempts=self.attempt,
        )

    def close(self, kill: bool = True) -> Optional[int]:
        """Reap the worker (SIGKILL first unless ``kill=False``) and
        close the pipe; returns the exit code."""
        if kill:
            self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()
        return self.process.exitcode

    def collect(
        self, emit: Callable[[str, dict], None] = _quiet
    ) -> Optional[UnitResult]:
        """Read :attr:`conn` once it is ready; the result, or None while
        the worker still runs.

        Every progress event read on the way goes to ``emit``, in the
        order the worker sent it.  Pipe EOF with no result means the
        worker died hard (``os._exit``, SIGKILL, OOM-kill): a
        ``WorkerCrash`` carrying the exit code, read after the worker
        is joined.
        """
        try:
            while True:
                message = self.conn.recv()
                if isinstance(message, UnitResult):
                    break
                emit(*message)
                if not self.conn.poll(0):
                    return None
        except (EOFError, OSError):
            code = self.close(kill=False)
            emit(
                "fault.crash",
                {"uid": self.unit.uid, "attempt": self.attempt,
                 "exit_code": code},
            )
            return self._failure(
                "WorkerCrash",
                f"worker died with exit code {code} on attempt "
                f"{self.attempt}",
            )
        self.close(kill=False)
        return message

    def expire(
        self,
        now: float,
        emit: Callable[[str, dict], None] = _quiet,
        drain_deadline: Optional[float] = None,
    ) -> Optional[UnitResult]:
        """SIGKILL a worker past its deadline; None while it may run.

        Past the per-unit timeout the attempt is a ``WorkerTimeout``;
        past ``drain_deadline`` it is ``WorkerAborted``.
        """
        if self.deadline is not None and now >= self.deadline:
            self.close()
            emit(
                "fault.timeout",
                {"uid": self.unit.uid, "attempt": self.attempt,
                 "timeout": self.timeout},
            )
            return self._failure(
                "WorkerTimeout",
                f"exceeded {self.timeout}s wall-clock on attempt "
                f"{self.attempt}",
            )
        if drain_deadline is not None and now >= drain_deadline:
            self.close()
            return self._failure(
                WORKER_ABORTED,
                "daemon drain grace expired; unit will be re-run after "
                "restart",
            )
        return None


class Drain:
    """Drain state of one host, shared by every :func:`run_unit` it starts.

    :meth:`begin` stops retries and arms a grace deadline: an attempt
    still running when it passes is killed as ``WorkerAborted``.  Runs
    waiting on an attempt are woken at once so they see the deadline.
    """

    def __init__(self) -> None:
        self.deadline: Optional[float] = None
        self.wakers: set = set()  # wake callables of runs awaiting a pipe

    def begin(self, grace: float) -> None:
        self.deadline = time.monotonic() + max(0.0, grace)
        for wake in list(self.wakers):
            wake()


async def _outcome(
    running: SupervisedAttempt,
    emit: Callable[[str, dict], None],
    drain: Drain,
) -> UnitResult:
    """Await one attempt's result on the event loop: read its pipe when
    it turns readable, kill it at its own or the drain's deadline."""
    loop = asyncio.get_running_loop()
    fd = running.conn.fileno()
    while True:
        waiter = loop.create_future()

        def wake() -> None:
            if not waiter.done():
                waiter.set_result(None)

        deadline = min(
            (d for d in (running.deadline, drain.deadline) if d is not None),
            default=None,
        )
        timer = (
            None if deadline is None
            else loop.call_later(deadline - time.monotonic(), wake)
        )
        loop.add_reader(fd, wake)
        drain.wakers.add(wake)
        try:
            await waiter
        finally:
            loop.remove_reader(fd)  # before collect/expire close the pipe
            drain.wakers.discard(wake)
            if timer is not None:
                timer.cancel()
        if running.conn.poll(0):
            result = running.collect(emit)
            if result is not None:
                return result
        result = running.expire(time.monotonic(), emit, drain.deadline)
        if result is not None:
            return result


async def run_unit(
    unit: WorkUnit,
    on_event: Optional[Callable[[str, dict], None]] = None,
    timeout: Optional[float] = None,
    policy: RetryPolicy = RetryPolicy(),
    drain: Optional[Drain] = None,
    slots: Optional[asyncio.Semaphore] = None,
    flush: Optional[Callable[[UnitResult], None]] = None,
) -> UnitResult:
    """Run one unit to its final result, one supervised attempt at a time.

    The one runner of supervised attempts: :func:`supervise_units`,
    the job service's local daemon and every fabric worker await it per
    unit.  Each attempt forks on the event loop's own thread, so the
    process forks single-threaded.  Its result pipe is awaited with
    ``loop.add_reader``, bounded by ``timeout`` and ``drain``'s
    deadline; ``policy`` decides after each attempt, and a backoff is
    an ``asyncio.sleep``.  ``on_event`` receives, in order, each
    attempt's progress events and the ``fault.*`` decisions.

    ``slots`` (an ``asyncio.Semaphore``) bounds the attempts in flight
    across runs; a run holds it while an attempt runs, never while it
    backs off.  A run cancelled while its attempt's successful result
    already sits in the pipe (``KeyboardInterrupt`` tearing a sweep
    down) stamps that result and passes it to ``flush``; the worker is
    killed and joined either way.
    """
    emit = on_event if on_event is not None else _quiet
    drain = drain if drain is not None else Drain()
    context = _pool_context()
    tally = [0.0, 0.0, 0, 0]
    attempt = 1
    while True:
        async with slots if slots is not None else nullcontext():
            running = SupervisedAttempt(context, unit, attempt, timeout)
            try:
                result = await _outcome(running, emit, drain)
            except (asyncio.CancelledError, KeyboardInterrupt):
                done = running.collect() if running.conn.poll(0) else None
                if flush is not None and done is not None and done.ok:
                    policy.settle(done, attempt, tally)
                    flush(done)
                raise
            finally:
                running.close()
        delay = policy.settle(
            result, attempt, tally, emit, draining=drain.deadline is not None
        )
        if delay is None:
            return result
        await asyncio.sleep(delay)
        attempt += 1


def supervise_units(
    pending: Sequence[WorkUnit],
    absorb: Callable[..., None],
    jobs: int,
    timeout: Optional[float],
    policy: RetryPolicy,
    on_progress: Optional[Callable[[str, dict], None]] = None,
) -> None:
    """Run every pending unit through :func:`run_unit`, up to ``jobs``
    attempts at once, passing each final result to ``absorb``.

    The supervised half of :func:`~repro.harness.parallel.execute_units`.
    On ``KeyboardInterrupt`` every successful result already delivered
    (in a run's pipe, or finished in the same wake) is passed to
    ``absorb(result, quiet=True)`` before the interrupt propagates.
    """

    async def sweep() -> None:
        slots = asyncio.Semaphore(max(1, jobs))
        runs = {
            asyncio.ensure_future(run_unit(
                unit, on_progress, timeout, policy, slots=slots,
                flush=lambda result: absorb(result, quiet=True),
            ))
            for unit in pending
        }
        done: List[UnitResult] = []
        try:
            while runs:
                finished, runs = await asyncio.wait(
                    runs, return_when=asyncio.FIRST_COMPLETED
                )
                done = [task.result() for task in finished]
                while done:
                    absorb(done.pop())
        finally:
            # On KeyboardInterrupt each cancelled run flushes the result
            # in its pipe; runs that finished in the same wake are
            # flushed here.
            for task in runs:
                task.cancel()
            if runs:
                await asyncio.wait(runs)
            for result in done:
                if result.ok:
                    absorb(result, quiet=True)

    asyncio.run(sweep())
