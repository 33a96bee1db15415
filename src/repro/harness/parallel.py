"""Parallel sweep engine: work units, result cache, failure isolation.

Experiment sweeps (``run_all``, ``seed_sweep``) decompose into
independent *work units* — picklable descriptions of one computation
(an experiment regeneration, or one (benchmark, spec, seed) simulation
cell).  :func:`execute_units` fans units out over ``multiprocessing``
workers and merges results deterministically regardless of completion
order: results are keyed by unit id, and callers iterate in their own
unit order, so ``jobs=4`` output is byte-identical to ``jobs=1``.

Four properties the engine guarantees:

* **Caching.**  Every unit has a content-addressed key — a hash of its
  full configuration payload plus a code-version salt — and completed
  values are written to an on-disk :class:`ResultCache`.  Re-running a
  sweep skips every cell whose key is already present; editing any
  source file under ``repro`` changes the salt and invalidates the
  cache wholesale (stale results silently poisoning a sweep is worse
  than recomputing).  Entries are cross-checked against the requesting
  unit's identity on read: a corrupt, truncated, or mismatched entry
  (stale salt logic, hash collision, hand-edited file) reads as a miss.
* **Failure isolation.**  A unit that raises does not abort the sweep:
  the worker catches the exception and returns a structured error
  (type, message, traceback) that the caller records; all other units
  complete.
* **Supervision.**  A unit that runs out of process runs each attempt
  in its own supervised worker process.  A worker that dies hard
  (``os._exit``, SIGKILL, OOM-kill) fails exactly its own unit as a
  ``WorkerCrash``; with a per-unit wall-clock ``timeout`` a hung worker
  is SIGKILLed as a ``WorkerTimeout``.  With ``retries`` a failed
  attempt is retried after a seeded exponential backoff with jitter,
  and a unit that exhausts the budget is *quarantined*: the sweep
  completes in a marked-degraded state instead of aborting.
  Retry/timeout/crash/quarantine decisions are emitted as ``fault.*``
  events on an optional tracer (see :mod:`repro.obs.tracer`).
* **Resume.**  Because successful units are cached as they finish, a
  crashed, interrupted, or partially-failed sweep re-run recomputes
  only the missing/failed cells.  ``KeyboardInterrupt`` flushes every
  completed-but-unmerged result to the cache before propagating.

A unit runs in one of two ways: in the calling process (``jobs=1``, or
a single pending unit, with no ``timeout``, ``retries`` or active
``REPRO_FAULT_PLAN``), or supervised as above.  There is no third,
shared-pool path: a pool loses a dead worker's task and waits for it
forever.

Supervision's two halves are shared with the job service and the
distributed fabric, so each exists once: :class:`RetryPolicy` decides
what an attempt's outcome means (retry after a seeded backoff,
quarantine, or done) and stamps the final result, and
:class:`SupervisedAttempt` runs one attempt in its own process and
classifies crashes, timeouts and drain aborts.  Both report through
one ``emit(kind, info)`` callable.

Timing discipline: units report their own ``cpu_seconds`` (process CPU
time, well-defined under parallelism) and ``wall_seconds``; retried
units accumulate timing across *all* attempts, failed ones included,
so degraded sweeps do not under-report cost.  Sweep-level wall time is
the caller's.  :func:`strip_volatile` removes exactly the fields that
vary run-to-run so determinism comparisons and regression diffs can
ignore them.

**Progress channel.**  Anything a unit's target passes to
:func:`emit_progress` — interval sampler snapshots, custom milestones
— is stamped with the unit id and reaches the caller *while the unit
runs*, not after, through the same ``emit(kind, info)`` callable that
carries the attempt's ``fault.*`` events.  A supervised worker sends
each event over its attempt's result pipe ahead of the result; the
in-process path calls the sink directly.  :func:`execute_units` hands
these events to its ``on_progress=`` callable.  This is what ``repro
sweep --live`` and the job service's ``repro watch`` render.  With no
sink installed :func:`emit_progress` is a dormant ``is None`` check,
so cache keys, results, and the hot path are unaffected.

**Cell cache.**  Inside a :func:`cell_cache` block, the simulation
cells and attack rows that units compute are shared through one
:class:`ResultCache` as well (:func:`_cached`), so a sweep computes
each of them once.

**Import before fork.**  This module imports nothing of the simulator.
A unit's module is imported in the parent just before workers fork
(:func:`_import_target`), so forked workers inherit it and a sweep
pays each import once, while a run that finds every unit cached
imports no target at all.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import itertools
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    TypeVar,
)

#: Environment variable activating worker-side fault injection (see
#: :mod:`repro.faults.inject`).  Checked once per work-unit attempt.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fields that record *when/how* a sweep ran rather than *what* it
#: computed.  Byte-identical-output comparisons (tests, regression
#: tooling) strip these; everything else in a manifest must be
#: deterministic.
TIMING_FIELDS = frozenset(
    {"started", "finished", "seconds", "cpu_seconds", "wall_seconds"}
)

#: Timing fields plus run-circumstance fields (worker count, cache
#: hits, retry/quarantine bookkeeping) that legitimately differ
#: between equivalent runs — a healed chaos sweep must compare equal
#: to a fault-free one.
VOLATILE_FIELDS = TIMING_FIELDS | frozenset(
    {"jobs", "cached", "hostname", "attempts", "fault", "quarantine"}
)


def strip_volatile(obj, fields: frozenset = VOLATILE_FIELDS):
    """Recursively drop volatile fields from JSON-shaped data."""
    if isinstance(obj, dict):
        return {
            key: strip_volatile(value, fields)
            for key, value in obj.items()
            if key not in fields
        }
    if isinstance(obj, list):
        return [strip_volatile(value, fields) for value in obj]
    return obj


#: Progress sink of this process (see module docstring), an
#: ``emit(kind, info)`` callable.  Installed by the supervised worker
#: entry or the in-process path, called by :func:`emit_progress` from
#: inside a unit's target callable.
_PROGRESS_SINK: Optional[Callable[[str, dict], None]] = None
_PROGRESS_UID: Optional[str] = None


def install_progress(sink: Optional[Callable[[str, dict], None]]) -> None:
    """Install the progress sink of this process (None: dormant)."""
    global _PROGRESS_SINK
    _PROGRESS_SINK = sink


def emit_progress(kind: str, **fields) -> bool:
    """Pass one progress event to the sink; returns True if delivered.

    Callable from any work-unit target.  With no sink installed it is
    a no-op returning False, so live-capable units run identically
    (and hit the same cache entries) outside a live sweep.  The sink
    receives ``(kind, {"uid": <current unit>, **fields})``.  Delivery
    is best-effort — a sink that fails must never fail the unit.
    """
    sink = _PROGRESS_SINK
    if sink is None:
        return False
    info = {"uid": _PROGRESS_UID}
    info.update(fields)
    try:
        sink(kind, info)
    except Exception:  # noqa: BLE001 — best-effort by contract
        return False
    return True


_SALT_MEMO: Optional[str] = None


def code_version_salt() -> str:
    """Digest of every source file in the ``repro`` package.

    Folded into each cache key so that any code change invalidates all
    cached results.  ``REPRO_CACHE_SALT`` overrides (tests, or callers
    that version their cache some other way).
    """
    global _SALT_MEMO
    override = os.environ.get("REPRO_CACHE_SALT")
    if override is not None:
        return override
    if _SALT_MEMO is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _SALT_MEMO = digest.hexdigest()[:16]
    return _SALT_MEMO


@dataclass(frozen=True)
class WorkUnit:
    """One independent computation of a sweep.

    The target callable is named by module/function path (not held as
    an object) so units pickle cheaply and identically across start
    methods; ``kwargs`` must be picklable.  ``key_payload`` is the
    JSON-safe identity of the computation — everything that influences
    the result must appear in it, because it (plus the code salt) is
    the cache key.
    """

    uid: str
    module: str
    func: str
    kwargs: dict = field(default_factory=dict)
    key_payload: dict = field(default_factory=dict)

    def cache_key(self, salt: Optional[str] = None) -> str:
        body = json.dumps(
            {
                "module": self.module,
                "func": self.func,
                "payload": self.key_payload,
                "salt": salt if salt is not None else code_version_salt(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class UnitResult:
    """Outcome of one work unit (success, structured failure, or cache hit).

    ``attempts`` counts executions including retries; ``cpu_seconds``/
    ``wall_seconds`` accumulate over every attempt, failed ones
    included.  ``quarantined`` marks a unit that exhausted its retry
    budget under the resilience layer.
    """

    uid: str
    ok: bool
    value: object = None
    error: Optional[dict] = None
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    cached: bool = False
    attempts: int = 1
    quarantined: bool = False


class ResultCache:
    """Content-addressed on-disk store of completed work-unit values.

    Values must be JSON-serialisable (experiment text, metric dicts).
    Writes are exclusive-create: the entry is serialised to an
    ``O_EXCL`` temp file and *published* with a hard link that fails if
    the key already holds a valid entry (first writer wins, ``races``
    counts the losers), falling back to an atomic rename when the entry
    on disk is invalid (healing corruption) or the filesystem lacks
    links.  Concurrent writers of one key — two daemon workers, or a
    daemon plus a CLI sweep — therefore can never interleave partial
    JSON, and readers only ever see a complete entry or none.  A
    corrupt entry reads as a miss.  When the requesting
    :class:`WorkUnit` is passed to
    :meth:`get`, the stored ``uid``/``payload`` are cross-checked
    against it and any mismatch also reads as a miss (``mismatches``
    counts these) — returning a value recorded for a *different*
    computation would silently poison the sweep.
    """

    # Temp files younger than this are presumed live publishes, not
    # crashed-writer debris; a real publish lasts milliseconds.
    STALE_TMP_SECONDS = 60.0

    def __init__(self, root) -> None:
        self.root = Path(root)
        if self.root.is_file():
            raise ValueError(
                f"cache root {self.root} is a file, not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.mismatches = 0
        self.races = 0
        self.healed = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entries(self):
        """Yield ``(path, entry_or_None)`` for every entry file.

        ``entry`` is None for a torn/unparseable file.  Stray temp
        files from crashed writers are yielded with ``entry is None``
        too, so one scan finds everything :meth:`heal` removes.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.name.endswith(".tmp"):
                    # A fresh temp may be a publish in flight from a
                    # live writer; only temps past the grace window
                    # are crashed-writer debris.
                    try:
                        age = time.time() - path.stat().st_mtime
                    except OSError:
                        continue
                    if age >= self.STALE_TMP_SECONDS:
                        yield path, None
                    continue
                if path.suffix != ".json":
                    continue
                try:
                    entry = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    yield path, None
                    continue
                if not isinstance(entry, dict) or "value" not in entry:
                    yield path, None
                    continue
                yield path, entry

    def _remove(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False  # a concurrent healer got it first
        except OSError:
            return False

    def heal(self, log=None) -> int:
        """Remove torn entries and stray temp files; returns the count.

        Safe under concurrent writers: publication is always a whole
        complete file (hard link or atomic rename), so anything torn is
        garbage from a crashed or killed writer, never a write in
        flight.  The one benign race — a torn entry replaced by a valid
        one between scan and unlink — costs at most a recomputable
        cache miss, never corruption.
        """
        removed = 0
        for path, entry in list(self._entries()):
            if entry is None and self._remove(path):
                removed += 1
                if log is not None:
                    log(f"cache: healed torn entry {path.name}")
        self.healed += removed
        return removed

    def get(
        self, key: str, unit: Optional[WorkUnit] = None
    ) -> Optional[dict]:
        """Return the stored entry ``{"uid", "payload", "value"}`` or None."""
        try:
            entry = json.loads(self._path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or "value" not in entry:
            self.misses += 1
            return None
        if unit is not None and (
            entry.get("uid") != unit.uid
            or entry.get("payload") != unit.key_payload
        ):
            self.mismatches += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _valid_entry(self, path: Path, unit: WorkUnit) -> bool:
        """True if ``path`` holds a complete entry for this unit."""
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return (
            isinstance(entry, dict)
            and "value" in entry
            and entry.get("uid") == unit.uid
            and entry.get("payload") == unit.key_payload
        )

    def put(self, key: str, unit: WorkUnit, value) -> Path:
        """Exclusive-create publish of one completed value.

        The entry is fully written to an ``O_EXCL`` temp file first;
        publication is a hard link (fails iff the key already exists),
        so a reader can never observe partial JSON no matter how many
        writers race on the key.  A loser of the race leaves the
        existing entry alone when it is valid (``races`` counts this)
        and replaces it atomically when it is torn or mismatched — the
        chaos layer's cache-corruption faults must stay healable.
        """
        entry = {
            "uid": unit.uid,
            "payload": unit.key_payload,
            "value": value,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(json.dumps(entry, indent=2, sort_keys=True))
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                if self._valid_entry(path, unit):
                    self.races += 1
                else:
                    try:
                        os.replace(tmp_name, path)
                    except FileNotFoundError:
                        self.races += 1
                    tmp_name = None
            except FileNotFoundError:
                # A healer reaped our temp mid-publish.  The value
                # is recomputable, so a lost publish is a benign miss,
                # never a reason to crash the worker.
                tmp_name = None
                self.races += 1
            except OSError:
                # Filesystem without hard links: plain atomic rename.
                try:
                    os.replace(tmp_name, path)
                except FileNotFoundError:
                    self.races += 1
                tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stores += 1
        return path


#: The cell cache :func:`_cached` consults (None: off), which
#: ``run_benchmark`` and ``attack_outcomes`` of
#: :mod:`repro.harness.experiment` read through.  Only
#: :func:`cell_cache` sets it; forked workers inherit it.
_CELL_CACHE: Optional[ResultCache] = None

_T = TypeVar("_T")


@contextmanager
def cell_cache(root=None, scratch_parent=None) -> Iterator[ResultCache]:
    """Share cell and attack records through one :class:`ResultCache`.

    Entries live under ``root``.  With ``root`` None they live in a
    scratch directory made under ``scratch_parent`` (default: the
    system temp directory) and deleted on exit, so nothing is read
    from an earlier run.  Worker processes forked inside the block
    inherit the cache and share cells through its first-writer-wins
    publish; spawned workers start without it and compute every cell
    themselves, with the same results.  The previous cache comes back
    on exit, also when the block raises.
    """
    global _CELL_CACHE
    previous = _CELL_CACHE
    scratch = None
    if root is None:
        scratch = root = tempfile.mkdtemp(prefix=".cells-", dir=scratch_parent)
    code_version_salt()  # memoised before any worker forks
    _CELL_CACHE = ResultCache(root)
    try:
        yield _CELL_CACHE
    finally:
        _CELL_CACHE = previous
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _cached(
    unit: WorkUnit,
    compute: Callable[[], _T],
    encode: Callable[[_T], dict],
    decode: Callable[[dict], _T],
) -> _T:
    """``unit``'s value: read from the installed cell cache, or computed
    and published there; just computed when no cache is installed."""
    cache = _CELL_CACHE
    if cache is None:
        return compute()
    key = unit.cache_key()
    entry = cache.get(key, unit)
    if entry is not None:
        return decode(entry["value"])
    value = compute()
    cache.put(key, unit, encode(value))
    return value


def _execute_task(task) -> UnitResult:
    """Worker entry: run one unit, never raise (failure isolation).

    ``task`` is ``(uid, module, func, kwargs, attempt)``; the attempt
    number is 1-based, and retries thread it through so deterministic
    fault plans can key on it.  The fault hook costs one environment
    lookup per unit when dormant.
    """
    global _PROGRESS_UID
    uid, module_name, func_name, kwargs, attempt = task
    _PROGRESS_UID = uid  # stamp emit_progress events with the unit id
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        if os.environ.get(FAULT_PLAN_ENV):
            from repro.faults.inject import maybe_inject

            maybe_inject(uid, attempt)
        module = importlib.import_module(module_name)
        func = getattr(module, func_name)
        value = func(**kwargs)
        return UnitResult(
            uid=uid,
            ok=True,
            value=value,
            cpu_seconds=time.process_time() - cpu0,
            wall_seconds=time.perf_counter() - wall0,
            attempts=attempt,
        )
    except Exception as error:  # noqa: BLE001 — isolation is the point
        return UnitResult(
            uid=uid,
            ok=False,
            error={
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(),
            },
            cpu_seconds=time.process_time() - cpu0,
            wall_seconds=time.perf_counter() - wall0,
            attempts=attempt,
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


def backoff_delay(
    base: float, attempt: int, uid: str, seed: int = 0
) -> float:
    """Seeded exponential backoff with jitter for one failed attempt.

    Doubles per attempt with a deterministic jitter factor in
    [0.5, 1.5), derived from (seed, uid, attempt) — so a replayed chaos
    run waits exactly as long, and simultaneous retries of different
    units decorrelate instead of stampeding.
    """
    rng = random.Random(f"{seed}:{uid}:{attempt}")
    return base * (2 ** (attempt - 1)) * (0.5 + rng.random())


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

    The sweep engine, the job service's :class:`UnitExecutor` and the
    fabric's lost-lease bound (``backoff=0``) all ask this object what
    an attempt's outcome means: retry after a seeded backoff delay,
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
        spent: Sequence[float],
        quarantine: bool,
        emit: Callable[[str, dict], None] = _quiet,
    ) -> UnitResult:
        """Stamp a final result: timing over every attempt, the attempt
        count and the quarantine mark (announced as ``fault.quarantine``)."""
        result.cpu_seconds, result.wall_seconds = spent
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
        spent: List[float],
        emit: Callable[[str, dict], None] = _quiet,
        draining: bool = False,
    ) -> Optional[float]:
        """Account one attempt; the delay before the next, or None.

        ``spent`` is the unit's running ``[cpu, wall]`` total.  None
        means ``result`` is final and stamped (see :meth:`finish`).
        """
        spent[0] += result.cpu_seconds
        spent[1] += result.wall_seconds
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
        self.finish(result, attempt, spent, answer == QUARANTINE, emit)
        return None


#: Serialises import-then-fork of :class:`SupervisedAttempt` starts.
_START_LOCK = threading.Lock()


class SupervisedAttempt:
    """One attempt of one unit in its own worker process.

    The worker reports over a one-way pipe: its progress events, then
    its result.  The owner waits on :attr:`conn` (alone, or
    multiplexed with other attempts) and calls :meth:`collect` each
    time it is ready; in between, :meth:`expire` enforces the per-unit
    timeout and an optional drain deadline.  A dead worker takes down
    exactly this attempt, never a shared pool.
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
        # The service starts attempts from several threads: none may
        # fork while another is half-way through importing its target.
        with _START_LOCK:
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


def _run_supervised(
    pending: List[WorkUnit],
    jobs: int,
    absorb: Callable[[UnitResult, bool], None],
    timeout: Optional[float],
    policy: RetryPolicy,
    emit: Callable[[str, dict], None],
) -> None:
    """Out-of-process dispatch: one :class:`SupervisedAttempt` per attempt.

    Owning each attempt's process (instead of sharing a pool) is what
    makes hung-worker SIGKILL, hard-crash detection and re-dispatch
    possible: a dead worker fails its own unit and nothing else.
    Up to ``jobs`` attempts run at once, multiplexed on their pipes.
    ``absorb`` receives only *final* results — retries are internal —
    with timing accumulated across attempts.
    """
    context = _pool_context()
    queue = deque((unit, 1) for unit in pending)
    waiting: List = []  # (ready_at, seq, unit, attempt) retry backoff heap
    seq = itertools.count()
    inflight: Dict = {}  # conn -> SupervisedAttempt
    spent: Dict[str, List[float]] = {}  # uid -> [cpu, wall]

    def settle(
        attempt: SupervisedAttempt, result: UnitResult, quiet: bool = False
    ) -> None:
        unit = attempt.unit
        delay = policy.settle(
            result,
            attempt.attempt,
            spent.setdefault(unit.uid, [0.0, 0.0]),
            emit,
        )
        if delay is None:
            absorb(result, quiet)
        else:
            heapq.heappush(
                waiting,
                (time.monotonic() + delay, next(seq), unit,
                 attempt.attempt + 1),
            )

    try:
        while queue or waiting or inflight:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, _, unit, number = heapq.heappop(waiting)
                queue.append((unit, number))
            while queue and len(inflight) < jobs:
                unit, number = queue.popleft()
                attempt = SupervisedAttempt(context, unit, number, timeout)
                inflight[attempt.conn] = attempt
            if not inflight:
                if waiting:
                    time.sleep(
                        max(0.0, min(0.05, waiting[0][0] - time.monotonic()))
                    )
                continue

            wake = [now + 0.05] + [
                attempt.deadline
                for attempt in inflight.values()
                if attempt.deadline is not None
            ]
            if waiting:
                wake.append(waiting[0][0])
            ready = _mp_connection.wait(
                list(inflight), timeout=max(0.0, min(wake) - now)
            )
            for conn in ready:
                attempt = inflight[conn]
                result = attempt.collect(emit)
                if result is not None:
                    del inflight[conn]
                    settle(attempt, result)

            now = time.monotonic()
            for conn, attempt in list(inflight.items()):
                result = attempt.expire(now, emit)
                if result is not None:
                    del inflight[conn]
                    settle(attempt, result)
    except KeyboardInterrupt:
        # Checkpoint flush: absorb every completed-but-unmerged result
        # (which writes it to the cache) before tearing workers down,
        # so an interrupted sweep resumes without re-executing them.
        for conn, attempt in list(inflight.items()):
            try:
                while conn.poll(0):
                    result = conn.recv()
                    if isinstance(result, UnitResult):
                        if result.ok:
                            settle(attempt, result, quiet=True)
                        break
            except Exception:  # noqa: BLE001 — best-effort flush
                pass
        raise
    finally:
        for attempt in inflight.values():
            try:
                attempt.close()
            except Exception:  # noqa: BLE001
                pass


def execute_units(
    units: Iterable[WorkUnit],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    salt: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    retry_seed: int = 0,
    tracer=None,
    on_progress: Optional[Callable[[str, dict], None]] = None,
) -> Dict[str, UnitResult]:
    """Run every unit, in parallel when ``jobs > 1``; returns {uid: result}.

    Cache hits are resolved up front and skip execution entirely.
    Completion order never affects the result mapping — merge is by
    unit id — and successful values are written back to the cache as
    they arrive, which is what makes interrupted sweeps resumable
    (``KeyboardInterrupt`` additionally flushes completed-but-unmerged
    results before propagating).

    With ``jobs > 1`` and more than one pending unit, each attempt runs
    in its own supervised worker process, up to ``jobs`` at once; a
    worker that dies hard fails only its unit (``WorkerCrash``).
    ``timeout`` (per-unit wall seconds) SIGKILLs a hung worker
    (``WorkerTimeout``), and ``retries`` (extra attempts after the
    first) re-runs a failed attempt after a seeded exponential
    ``backoff``; a unit that exhausts the budget is quarantined
    (``ok=False, quarantined=True``) instead of aborting the sweep.
    Either one, or an active ``REPRO_FAULT_PLAN``, also puts a
    ``jobs=1`` run under supervision, so an injected crash can never
    take the parent down.  Otherwise units run one by one in the
    calling process.

    ``on_progress(kind, info)`` receives every event unit targets
    pass to :func:`emit_progress`, stamped with the unit id, while the
    units run; it is called in the calling process.
    """
    ordered: List[WorkUnit] = list(units)
    seen = set()
    for unit in ordered:
        if unit.uid in seen:
            raise ValueError(f"duplicate work-unit id {unit.uid!r}")
        seen.add(unit.uid)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    results: Dict[str, UnitResult] = {}
    pending: List[WorkUnit] = []
    keys: Dict[str, str] = {}
    for unit in ordered:
        if cache is not None:
            key = keys[unit.uid] = unit.cache_key(salt)
            entry = cache.get(key, unit)
            if entry is not None:
                results[unit.uid] = UnitResult(
                    uid=unit.uid, ok=True, value=entry["value"], cached=True
                )
                if progress is not None:
                    progress(f"{unit.uid} [cached]")
                continue
        pending.append(unit)

    by_uid = {unit.uid: unit for unit in pending}

    def absorb(result: UnitResult, quiet: bool = False) -> None:
        results[result.uid] = result
        if result.ok and cache is not None:
            unit = by_uid[result.uid]
            cache.put(keys[unit.uid], unit, result.value)
        if progress is not None and not quiet:
            if result.ok:
                status = "ok"
            elif result.quarantined:
                status = (
                    f"QUARANTINED: {result.error['type']} "
                    f"after {result.attempts} attempt(s)"
                )
            else:
                status = f"FAILED: {result.error['type']}"
            progress(f"{result.uid} [{status}]")

    supervised = (
        timeout is not None
        or retries > 0
        or (jobs > 1 and len(pending) > 1)
        or (
            bool(os.environ.get(FAULT_PLAN_ENV))
            # A supervised worker may not spawn children, so a sweep
            # nested in one (defensezoo runs the foundry) stays put.
            and not multiprocessing.current_process().daemon
        )
    )
    if not supervised:
        previous = _PROGRESS_SINK
        if on_progress is not None:
            install_progress(on_progress)
        try:
            for unit in pending:
                absorb(_execute_task(
                    (unit.uid, unit.module, unit.func, unit.kwargs, 1)
                ))
        finally:
            if on_progress is not None:
                install_progress(previous)
        return results

    record = tracer is not None and getattr(tracer, "enabled", False)

    def emit(kind: str, info: dict) -> None:
        # The tracer records the supervisor's fault.* decisions only;
        # everything else an attempt reports is the units' progress.
        if kind.startswith("fault."):
            if record:
                tracer.emit(kind, 0, **info)
        elif on_progress is not None:
            on_progress(kind, info)

    _run_supervised(
        pending,
        jobs=max(1, jobs),
        absorb=absorb,
        timeout=timeout,
        policy=RetryPolicy(retries, backoff, retry_seed),
        emit=emit,
    )
    return results


def failed_units(results: Dict[str, UnitResult]) -> Dict[str, dict]:
    """Map of uid -> structured error for every failed unit."""
    return {
        uid: result.error
        for uid, result in results.items()
        if not result.ok
    }


def quarantine_report(results: Dict[str, UnitResult]) -> Dict[str, dict]:
    """Manifest ``quarantine`` section: every unit that ended failed.

    Keyed by uid; each entry records the attempts consumed and the
    final structured error, which is what a degraded sweep publishes
    instead of aborting.
    """
    return {
        uid: {
            "attempts": result.attempts,
            "error": result.error,
        }
        for uid, result in sorted(results.items())
        if not result.ok
    }


def fault_summary(
    results: Dict[str, UnitResult], tracer=None
) -> Dict[str, int]:
    """Retry/timeout/crash/quarantine counters for one engine run.

    Derived from final results plus (when a tracer was attached) the
    per-attempt ``fault.*`` events, which also see failures that later
    healed.  Rendered as ``fault.*`` statsdump rows and recorded in the
    sweep manifest's ``fault`` section.
    """
    summary = {
        "retries": sum(
            result.attempts - 1 for result in results.values()
            if not result.cached
        ),
        "timeouts": 0,
        "crashes": 0,
        "quarantined": sum(
            1 for result in results.values() if result.quarantined
        ),
    }
    if tracer is not None:
        for event in tracer.events():
            kind = event.get("kind", "")
            if kind == "fault.timeout":
                summary["timeouts"] += 1
            elif kind == "fault.crash":
                summary["crashes"] += 1
    else:
        for result in results.values():
            error = result.error or {}
            if error.get("type") == "WorkerTimeout":
                summary["timeouts"] += 1
            elif error.get("type") == "WorkerCrash":
                summary["crashes"] += 1
    return summary
