"""The simulation job daemon: asyncio server + scheduler + supervised runs.

``repro serve --state-dir DIR`` runs one daemon per state directory.
It listens on a Unix socket (``DIR/daemon.sock``; optionally also TCP
via ``--tcp HOST:PORT``), speaks the JSON-lines protocol of
:mod:`repro.service.protocol`, and owns:

* a :class:`~repro.service.scheduler.Scheduler` (job table, priority
  queue, single-flight dedup, admission control),
* unit execution: each unit awaits the engine's supervised-attempt
  runner (:func:`~repro.harness.supervision.run_unit`) with the daemon's
  timeout, retry policy and drain; in ``--coordinator`` mode a
  :class:`~repro.service.fabric.FabricDispatcher` runs it on
  registered workers instead,
* the shared :class:`~repro.harness.parallel.ResultCache` under
  ``DIR/cache`` — the same content-addressed store CLI sweeps use, so
  daemon and CLI runs feed each other,
* live progress: each unit run hands its events (sampler snapshots,
  ``fault.*``) to the scheduler's per-execution callback while the
  unit runs, which fans them out to every subscribed job's watchers
  (this is what makes ``repro watch`` live rather than post-hoc).

Failure domains are deliberately nested: a malformed frame kills one
*connection*; a crashed simulation kills one *attempt*; a failed unit
fails one *job*; only SIGTERM/SIGINT touch the daemon itself, and then
via graceful drain — stop admitting, give in-flight attempts a grace
period, persist still-open jobs to ``queue.json``, exit.  A restarted
daemon restores that queue and re-runs only what the cache does not
already hold.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.harness.parallel import ResultCache
from repro.harness.supervision import Drain, RetryPolicy, run_unit
from repro.service import protocol
from repro.service.fabric import FabricDispatcher
from repro.service.scheduler import AdmissionError, Scheduler

#: Socket filename inside the state directory.
SOCKET_NAME = "daemon.sock"


class StartupError(Exception):
    """The daemon cannot start (bind failure, endpoint owned by a live
    daemon).  :func:`serve` turns it into a structured stderr line and
    exit code 1 instead of a traceback."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


@dataclass
class ServiceConfig:
    """Everything one daemon instance needs to run."""

    state_dir: str
    socket_path: Optional[str] = None  # default: <state_dir>/daemon.sock
    tcp: Optional[Tuple[str, int]] = None
    slots: int = 2  # concurrent simulations
    max_jobs: int = 8  # open-job admission limit
    timeout: Optional[float] = None  # per-unit wall-clock kill
    retries: int = 0
    backoff: float = 0.25
    drain_grace: float = 10.0  # seconds in-flight work gets on SIGTERM
    salt: Optional[str] = None  # cache salt override (tests)
    coordinator: bool = False  # execute on registered workers, not local
    heartbeat: float = 1.0  # worker heartbeat interval (coordinator)
    miss_factor: float = 3.0  # silent intervals before a worker is dead
    unit_retries: int = 2  # reassignments after a worker loss, per unit

    def resolved_socket(self) -> Path:
        if self.socket_path is not None:
            return Path(self.socket_path)
        return Path(self.state_dir) / SOCKET_NAME


class Daemon:
    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._log_path = self.state_dir / "daemon.log"
        self.cache = ResultCache(self.state_dir / "cache")
        self.cache.heal(log=self.log)  # clear torn entries from a crash
        self.fabric: Optional[FabricDispatcher] = None
        if config.coordinator:
            self.fabric = FabricDispatcher(
                heartbeat=config.heartbeat,
                miss_factor=config.miss_factor,
                unit_retries=config.unit_retries,
                timeout=config.timeout,
                retries=config.retries,
                salt=config.salt,
                log=self.log,
                events_path=self.state_dir / "fabric-events.jsonl",
            )
            run, begin_drain = self.fabric.run_unit, self.fabric.begin_drain
        else:
            drain = Drain()
            run = functools.partial(
                run_unit,
                timeout=config.timeout,
                policy=RetryPolicy(config.retries, config.backoff),
                drain=drain,
            )
            begin_drain = drain.begin
        self.scheduler = Scheduler(
            run,
            begin_drain,
            self.cache,
            slots=config.slots,
            max_jobs=config.max_jobs,
            salt=config.salt,
            jobs_dir=self.state_dir / "jobs",
            resilient=config.timeout is not None or config.retries > 0,
        )
        if self.fabric is not None:
            # Capacity is whatever the registered workers bring; with no
            # workers yet, units queue instead of dispatching.
            self.scheduler.slots = 0
            self.fabric.on_capacity_change = self._on_capacity
        self.started = time.time()
        self._stop = asyncio.Event()
        self._drained = asyncio.Event()
        self._monitor_task: Optional[asyncio.Task] = None
        self._server = None
        self._tcp_server = None

    def _on_capacity(self, capacity: int) -> None:
        """Fabric capacity changed: retune the scheduler's slot count."""
        self.scheduler.slots = capacity
        self.log(f"fabric capacity now {capacity} slot(s)")
        self.scheduler._pump()

    # ---------------------------------------------------------------- log

    def log(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        with self._log_path.open("a") as handle:
            handle.write(f"{stamp} {message}\n")

    # ------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # line exceeded the stream limit
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_frame(
                                "bad_frame", "frame exceeds size limit"
                            )
                        )
                    )
                    await writer.drain()
                    return
                if not line:
                    return  # client closed
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_frame(line)
                    rtype = protocol.check_request(frame)
                except protocol.ProtocolError as error:
                    # Poison only this connection: report and hang up.
                    writer.write(protocol.encode_frame(error.frame()))
                    await writer.drain()
                    return
                if rtype in protocol.WORKER_REQUEST_TYPES:
                    if self.fabric is None:
                        writer.write(
                            protocol.encode_frame(
                                protocol.error_frame(
                                    "not_coordinator",
                                    "this daemon executes locally; start "
                                    "it with --coordinator to accept "
                                    "workers",
                                )
                            )
                        )
                        await writer.drain()
                        return
                    if rtype != "w.register":
                        writer.write(
                            protocol.encode_frame(
                                protocol.error_frame(
                                    "bad_frame",
                                    f"{rtype} before w.register",
                                )
                            )
                        )
                        await writer.drain()
                        return
                    # The connection is a worker's for its lifetime.
                    await self._serve_worker(frame, reader, writer)
                    return
                try:
                    done = await self._dispatch(rtype, frame, writer)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as error:  # noqa: BLE001 — daemon survives
                    self.log(
                        f"internal error handling {rtype}: "
                        f"{type(error).__name__}: {error}"
                    )
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_frame(
                                "internal",
                                f"{type(error).__name__}: {error}",
                            )
                        )
                    )
                    await writer.drain()
                    return
                if done:
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Mid-stream disconnect: this connection only; jobs and all
            # other clients are unaffected.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, rtype: str, frame: dict, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; returns True when the connection is done."""

        def send(payload: dict) -> None:
            writer.write(protocol.encode_frame(payload))

        if rtype == "ping":
            pong = {
                "type": "pong",
                "v": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
                "uptime": round(time.time() - self.started, 3),
                "stats": self.scheduler.stats(),
            }
            if self.fabric is not None:
                pong["fabric"] = self.fabric.stats()
            send(pong)
            await writer.drain()
            return False
        if rtype == "workers":
            listing = {
                "type": "workers",
                "coordinator": self.fabric is not None,
                "workers": [],
                "fabric": None,
            }
            if self.fabric is not None:
                listing["workers"] = [
                    worker.to_wire()
                    for worker in sorted(
                        self.fabric.workers.values(),
                        key=lambda w: w.name,
                    )
                ]
                listing["fabric"] = self.fabric.stats()
            send(listing)
            await writer.drain()
            return False
        if rtype == "submit":
            kind = frame.get("kind")
            params = frame.get("params") or {}
            if not isinstance(kind, str) or not isinstance(params, dict):
                send(
                    protocol.error_frame(
                        "bad_params", "submit needs kind:str and params:dict"
                    )
                )
                await writer.drain()
                return False
            try:
                job = self.scheduler.submit(
                    kind, params, priority=frame.get("priority", "normal")
                )
            except AdmissionError as error:
                self.log(f"reject {kind}: {error.code}: {error}")
                send(protocol.error_frame(error.code, str(error)))
                await writer.drain()
                return False
            self.log(
                f"submit {job.id} kind={kind} units={len(job.units)} "
                f"priority={job.priority} dedup={job.dedup_hits}"
            )
            send({"type": "submitted", "job": job.to_wire()})
            await writer.drain()
            return False
        if rtype == "status":
            job = self.scheduler.jobs.get(frame.get("job"))
            if job is None:
                send(
                    protocol.error_frame(
                        "unknown_job", f"no job {frame.get('job')!r}"
                    )
                )
            else:
                send({"type": "status", "job": job.to_wire(include_result=True)})
            await writer.drain()
            return False
        if rtype == "jobs":
            listing = [
                job.to_wire()
                for job in sorted(
                    self.scheduler.jobs.values(), key=lambda j: j.seq
                )
            ]
            send({"type": "jobs", "jobs": listing})
            await writer.drain()
            return False
        if rtype == "watch":
            return await self._watch(frame, writer)
        if rtype == "shutdown":
            send({"type": "ok", "draining": True})
            await writer.drain()
            self.log("shutdown requested over protocol")
            self.request_stop()
            return True
        return True  # unreachable: check_request vetted rtype

    async def _watch(self, frame: dict, writer: asyncio.StreamWriter) -> bool:
        job = self.scheduler.jobs.get(frame.get("job"))
        if job is None:
            writer.write(
                protocol.encode_frame(
                    protocol.error_frame(
                        "unknown_job", f"no job {frame.get('job')!r}"
                    )
                )
            )
            await writer.drain()
            return False
        live: asyncio.Queue = asyncio.Queue()
        job.watchers.add(live)
        last_seq = 0
        try:
            # Replay first (subscribing *before* the snapshot + seq dedup
            # makes the handoff gapless), then stream until done.
            for event in list(job.events):
                writer.write(protocol.encode_frame(event))
                last_seq = event["seq"]
            await writer.drain()
            while not (job.done_event.is_set() and live.empty()):
                if self._drained.is_set() and live.empty() and job.open:
                    # Drain interrupted this job.  It is persisted and
                    # will resume under the same id after restart; tell
                    # the subscriber so instead of hanging up on it.
                    writer.write(
                        protocol.encode_frame(
                            {
                                "type": "draining",
                                "job": job.id,
                                "state": job.state,
                                "persisted": True,
                            }
                        )
                    )
                    await writer.drain()
                    return True
                try:
                    event = await asyncio.wait_for(live.get(), timeout=0.2)
                except asyncio.TimeoutError:
                    continue
                if event["seq"] <= last_seq:
                    continue
                last_seq = event["seq"]
                writer.write(protocol.encode_frame(event))
                await writer.drain()
        finally:
            job.watchers.discard(live)
        writer.write(
            protocol.encode_frame(
                {"type": "done", "job": job.id, "state": job.state}
            )
        )
        await writer.drain()
        return False  # connection may issue further requests

    # ------------------------------------------------------------ workers

    async def _serve_worker(
        self,
        frame: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Own one worker connection from ``w.register`` to EOF."""
        handle = self.fabric.register(frame, writer)
        writer.write(
            protocol.encode_frame(
                {
                    "type": "w.registered",
                    "worker": handle.name,
                    "heartbeat": self.fabric.heartbeat,
                }
            )
        )
        await writer.drain()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    wframe = protocol.decode_frame(line)
                    wtype = protocol.check_request(wframe)
                except protocol.ProtocolError as error:
                    self.log(
                        f"fabric: protocol error from {handle.name}: "
                        f"{error}"
                    )
                    return
                # Any frame is proof of life, not just heartbeats.
                self.fabric.heartbeat_from(handle.name)
                if wtype == "w.heartbeat":
                    continue
                if wtype == "w.result":
                    self.fabric.redeem(
                        wframe.get("lease"), wframe.get("result") or {}
                    )
                elif wtype == "w.progress":
                    self.fabric.progress_from(
                        wframe.get("lease"), wframe.get("event") or {}
                    )
                elif wtype == "w.bye":
                    self.log(f"fabric: worker {handle.name} said bye")
                    return
                else:  # a second w.register on a live connection
                    self.log(
                        f"fabric: unexpected {wtype} from {handle.name}"
                    )
                    return
        finally:
            # Only unregister if this connection still owns the name —
            # a rejoined worker may have replaced the registration.
            if self.fabric.workers.get(handle.name) is handle:
                self.fabric.worker_lost(
                    handle.name, reason="connection closed"
                )

    # -------------------------------------------------------- run / stop

    def request_stop(self) -> None:
        """Begin a graceful drain.  Must be called on the event loop;
        foreign threads go through :meth:`stop_threadsafe`."""
        self._stop.set()

    def stop_threadsafe(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.request_stop)

    @staticmethod
    async def _socket_owner_alive(socket_path: Path) -> bool:
        """True when an existing socket file has a live daemon behind
        it.  A connect that is refused (or the file vanishing) means the
        owner is dead and the socket is safe to reclaim."""
        try:
            _reader, writer = await asyncio.open_unix_connection(
                str(socket_path)
            )
        except (ConnectionError, FileNotFoundError, OSError):
            return False
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return True

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self.loop = loop
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (ValueError, NotImplementedError, RuntimeError):
                pass  # not the main thread (tests) or unsupported

        socket_path = self.config.resolved_socket()
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        if socket_path.exists():
            if await self._socket_owner_alive(socket_path):
                raise StartupError(
                    "socket_in_use",
                    f"{socket_path} is owned by a live daemon; "
                    "stop it first or use another --state-dir",
                )
            # Stale socket from a killed daemon: reclaim it.
            self.log(f"reclaiming stale socket {socket_path}")
            socket_path.unlink()
        limit = protocol.MAX_FRAME_BYTES + 1024
        try:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(socket_path), limit=limit
            )
        except OSError as error:
            raise StartupError(
                "bind_failed", f"cannot bind {socket_path}: {error}"
            )
        if self.config.tcp is not None:
            host, port = self.config.tcp
            try:
                self._tcp_server = await asyncio.start_server(
                    self._handle_connection, host=host, port=port,
                    limit=limit,
                )
            except OSError as error:
                self._server.close()
                try:
                    socket_path.unlink()
                except OSError:
                    pass
                raise StartupError(
                    "bind_failed", f"cannot bind {host}:{port}: {error}"
                )

        if self.fabric is not None:
            self._monitor_task = asyncio.ensure_future(
                self.fabric.monitor()
            )

        restored = self.scheduler.restore(self.state_dir)
        if restored:
            self.log(f"restored {restored} persisted job(s) from queue.json")
        mode = "coordinator" if self.fabric is not None else "local"
        self.log(
            f"listening on {socket_path} ({mode} mode, "
            f"slots={self.config.slots}, max_jobs={self.config.max_jobs})"
        )

        try:
            await self._stop.wait()
        finally:
            await self._shutdown(socket_path)

    async def _shutdown(self, socket_path: Path) -> None:
        self.log(f"draining (grace={self.config.drain_grace}s)")
        for server in (self._server, self._tcp_server):
            if server is not None:
                server.close()
        await self.scheduler.drain(self.config.drain_grace)
        persisted = self.scheduler.persist(self.state_dir)
        self.log(f"drained; persisted {persisted} open job(s)")
        # Let in-flight watch subscribers observe the drain: they poll
        # every 0.2s and send a terminal ``draining`` frame for jobs the
        # drain left open, instead of seeing a bare hangup.
        self._drained.set()
        await asyncio.sleep(0.5)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self.fabric is not None:
            # Hang up on every worker so their connection handlers see
            # EOF and finish before the loop closes (workers redial and
            # re-register if they outlive us).
            for name in list(self.fabric.workers):
                self.fabric.worker_lost(name, reason="coordinator shutdown")
            await asyncio.sleep(0)
        for server in (self._server, self._tcp_server):
            if server is not None:
                try:
                    await server.wait_closed()
                except Exception:  # noqa: BLE001
                    pass
        try:
            socket_path.unlink()
        except OSError:
            pass


def serve(config: ServiceConfig) -> None:
    """Blocking entry point: run one daemon until it drains.

    A startup failure (endpoint already owned, bind error) prints one
    structured JSON line to stderr and exits 1 — scripts supervising
    daemons branch on ``error`` rather than parsing a traceback.
    """
    daemon = Daemon(config)
    try:
        asyncio.run(daemon.run())
    except StartupError as error:
        print(
            json.dumps(
                {"error": error.code, "message": str(error)},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        raise SystemExit(1)
