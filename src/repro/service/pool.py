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
never the daemon.  Workers get the daemon's progress queue installed
(tagged per execution), so interval-sampler snapshots stream to
watchers while units run.

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
        progress_queue=None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        retry_seed: int = 0,
    ) -> None:
        self.context = _pool_context()
        self.progress_queue = progress_queue
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.retry_seed = retry_seed
        self._draining = False
        self._drain_deadline: Optional[float] = None

    def make_queue(self):
        """A progress queue matching this executor's mp context."""
        return self.context.Queue()

    def begin_drain(self, grace: float) -> None:
        """Stop retrying; kill attempts still running after ``grace``."""
        self._draining = True
        self._drain_deadline = time.monotonic() + max(0.0, grace)

    async def run_unit(
        self,
        unit: WorkUnit,
        tag: Optional[str] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> UnitResult:
        """Run one unit to its final result (retries + quarantine).

        ``tag`` stamps the worker's progress events so the daemon can
        route one shared queue to the right execution's watchers.
        ``on_event`` receives the same ``fault.*`` events the engine
        emits on its tracer (retry, timeout, crash, quarantine), called
        on the event loop.
        """
        emit = on_event if on_event is not None else (lambda kind, info: None)
        # Built per unit: a fabric worker updates timeout/retries from
        # each assignment.
        policy = RetryPolicy(self.retries, self.backoff, self.retry_seed)
        spent = [0.0, 0.0]
        attempt = 1
        while True:
            events = []
            result = await asyncio.to_thread(
                self._attempt,
                unit,
                attempt,
                tag,
                lambda kind, info: events.append((kind, info)),
            )
            for kind, info in events:
                emit(kind, info)
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
        tag: Optional[str],
        emit: Callable[[str, dict], None],
    ) -> UnitResult:
        """One supervised attempt; blocking — runs in a worker thread."""
        running = SupervisedAttempt(
            self.context, unit, attempt, self.timeout,
            self.progress_queue, tag,
        )
        try:
            while True:
                if running.conn.poll(_POLL_SECONDS):
                    return running.collect(emit)
                result = running.expire(
                    time.monotonic(), emit, self._drain_deadline
                )
                if result is not None:
                    return result
        finally:
            running.close()
