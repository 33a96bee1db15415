"""Persistent worker pool of the simulation job service.

The daemon cannot use :func:`repro.harness.parallel.execute_units`
directly — that call owns its workers for one synchronous sweep, while
the service interleaves units from *many* jobs, deduplicates across
them, and must keep admitting work while simulations run.  So the pool
reuses the engine one layer lower: each attempt is one
:class:`~repro.harness.parallel.SupervisedAttempt` (the engine's
supervised worker process), waited on in a thread via
:func:`asyncio.to_thread`, and the engine's
:class:`~repro.harness.parallel.RetryPolicy` decides between attempts
while the event loop stays responsive.

Per-attempt processes — not a long-lived ``Pool`` — are a deliberate
inheritance from the resilience layer: a hung simulation is SIGKILLed
at its deadline and a crashed one takes down exactly one attempt,
never the daemon.  An attempt's progress events (interval-sampler
snapshots) arrive over its own pipe and are handed to the loop as they
come, so they stream to watchers while units run.

Draining: :meth:`UnitExecutor.begin_drain` stops retries and arms a
grace deadline; in-flight attempts that outlive it are killed and
report a ``WorkerAborted`` structured error, which the scheduler treats
as "requeue on restart", not quarantine.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.harness.parallel import (
    RetryPolicy,
    SupervisedAttempt,
    UnitResult,
    WorkUnit,
    _pool_context,
)

#: Poll period of an attempt's wait; bounds drain latency.  A result
#: wakes the wait at once.
_POLL_SECONDS = 0.05


class UnitExecutor:
    """Runs work units as supervised processes under asyncio.

    One instance per daemon.  Concurrency is *not* limited here — the
    scheduler owns slot accounting so that priority order decides which
    unit gets a freed slot; this class only knows how to run one unit
    to a final :class:`UnitResult` (retries included).
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        retry_seed: int = 0,
    ) -> None:
        self.context = _pool_context()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.retry_seed = retry_seed
        self._draining = False
        self._drain_deadline: Optional[float] = None

    def begin_drain(self, grace: float) -> None:
        """Stop retrying; kill attempts still running after ``grace``."""
        self._draining = True
        self._drain_deadline = time.monotonic() + max(0.0, grace)

    async def run_unit(
        self,
        unit: WorkUnit,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> UnitResult:
        """Run one unit to its final result (retries + quarantine).

        ``on_event`` receives, on the event loop and in order, the
        unit's progress events while it runs and the same ``fault.*``
        events the engine emits on its tracer (retry, timeout, crash,
        quarantine).
        """
        emit = on_event if on_event is not None else (lambda kind, info: None)
        loop = asyncio.get_running_loop()

        def from_thread(kind: str, info: dict) -> None:
            try:
                loop.call_soon_threadsafe(emit, kind, info)
            except RuntimeError:  # loop already closed
                pass

        # Built per unit: a fabric worker updates timeout/retries from
        # each assignment.
        policy = RetryPolicy(self.retries, self.backoff, self.retry_seed)
        spent = [0.0, 0.0]
        attempt = 1
        while True:
            # The attempt's callbacks are queued on the loop before the
            # thread's completion, so they all run before ``settle``.
            result = await asyncio.to_thread(
                self._attempt, unit, attempt, from_thread
            )
            delay = policy.settle(
                result, attempt, spent, emit, draining=self._draining
            )
            if delay is None:
                return result
            await asyncio.sleep(delay)
            attempt += 1

    def _attempt(
        self,
        unit: WorkUnit,
        attempt: int,
        emit: Callable[[str, dict], None],
    ) -> UnitResult:
        """One supervised attempt; blocking — runs in a worker thread."""
        running = SupervisedAttempt(self.context, unit, attempt, self.timeout)
        try:
            while True:
                if running.conn.poll(_POLL_SECONDS):
                    result = running.collect(emit)
                    if result is not None:
                        return result
                result = running.expire(
                    time.monotonic(), emit, self._drain_deadline
                )
                if result is not None:
                    return result
        finally:
            running.close()
