"""Worker daemon of the distributed sweep fabric.

``repro worker --connect ENDPOINT`` runs one worker: it dials the
coordinator, registers its name and slot count, and then executes
whatever ``w.assign`` frames arrive.  Each assignment awaits the
engine's supervised-attempt runner
(:func:`~repro.harness.supervision.run_unit`) with the timeout and retry
budget the frame carries — the runner a CLI sweep and a local daemon
use — so per-unit timeouts, retries with seeded backoff, and
quarantine behave identically whether a unit runs in-process or three
hosts away.  Attempts fork on the event loop's own thread, so the
worker forks single-threaded.  Results travel back as ``w.result``
frames; progress and fault events are forwarded live as
``w.progress`` frames naming the lease, so coordinator-side watchers
see remote units exactly like local ones.

Liveness is the worker's job: it heartbeats at the interval the
coordinator announced in ``w.registered``.  If the coordinator goes
away (restart, crash, network), or is not bound yet, the worker
redials with exponential backoff — tens of milliseconds apart at
first, at most every 2 s — and registers again.  From the
coordinator's side a rejoin is just a new worker joining, so a worker
can be SIGKILLed and relaunched mid-sweep without any special-case
recovery path.

Fault injection composes for free: ``REPRO_FAULT_PLAN`` is read inside
the supervised worker *processes*, which inherit this daemon's
environment — launching a worker with a fault plan in its environment
chaos-tests the whole fabric path (worker-local retries first, then
lease revocation and reassignment when the worker itself is killed).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.harness.parallel import backoff_delay
from repro.harness.supervision import Drain, RetryPolicy, run_unit
from repro.service import protocol

#: Reconnect backoff base (seconds); capped growth via backoff_delay.
_RECONNECT_BASE = 0.02


@dataclass
class WorkerConfig:
    """Everything one worker daemon needs to run."""

    socket_path: Optional[str] = None  # coordinator Unix socket
    tcp: Optional[Tuple[str, int]] = None  # or coordinator TCP endpoint
    name: Optional[str] = None  # default: coordinator assigns one
    slots: int = 2  # concurrent supervised attempts
    state_dir: Optional[str] = None  # for worker.log; stdout if None
    reconnect: bool = True
    reconnect_tries: int = 30  # consecutive failed dials before giving up


class WorkerDaemon:
    def __init__(self, config: WorkerConfig) -> None:
        if (config.socket_path is None) == (config.tcp is None):
            raise ValueError(
                "worker needs exactly one of socket_path or tcp"
            )
        self.config = config
        self.drain = Drain()  # this session's; _session makes a new one
        self.inflight = 0
        self.completed = 0
        self.sessions = 0
        self._stop = asyncio.Event()
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock = asyncio.Lock()
        self._log_path = (
            Path(config.state_dir) / "worker.log"
            if config.state_dir
            else None
        )
        if self._log_path is not None:
            self._log_path.parent.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- log

    def log(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        line = f"{stamp} {message}"
        if self._log_path is not None:
            with self._log_path.open("a") as handle:
                handle.write(line + "\n")
        else:
            print(line, flush=True)

    # --------------------------------------------------------------- wire

    async def _send(self, frame: dict) -> None:
        """Write one frame to the coordinator (serialised, may raise)."""
        async with self._send_lock:
            writer = self._writer
            if writer is None:
                raise ConnectionResetError("not connected")
            writer.write(protocol.encode_frame(frame))
            await writer.drain()

    async def _send_quiet(self, frame: dict) -> None:
        """Like :meth:`_send` but a dead connection is not an error —
        the reconnect loop owns connection failures."""
        try:
            await self._send(frame)
        except (ConnectionError, OSError, RuntimeError):
            pass

    def _post(self, frame: dict) -> None:
        """Write one frame at once, without awaiting the drain, so
        frames leave in call order: a unit's ``w.progress`` frames
        always precede its ``w.result``.  With no connection the frame
        is dropped."""
        writer = self._writer
        if writer is None:
            return
        try:
            writer.write(protocol.encode_frame(frame))
        except (ConnectionError, OSError, RuntimeError):
            pass

    # -------------------------------------------------------- assignment

    async def _run_assignment(self, frame: dict) -> None:
        lease = frame.get("lease")
        try:
            unit = protocol.unit_from_wire(frame.get("unit") or {})
        except KeyError:
            self.log(f"malformed assign for lease {lease}; dropped")
            return

        def on_event(kind: str, info: dict) -> None:
            event = {"kind": kind}
            event.update(info)
            self._post(
                protocol.request("w.progress", lease=lease, event=event)
            )

        self.inflight += 1
        try:
            result = await run_unit(
                unit,
                on_event,
                timeout=frame.get("timeout"),
                policy=RetryPolicy(int(frame.get("retries") or 0)),
                drain=self.drain,
            )
        finally:
            self.inflight -= 1
        self.completed += 1
        await self._send_quiet(
            protocol.request(
                "w.result",
                lease=lease,
                result=protocol.result_to_wire(result),
            )
        )

    # ---------------------------------------------------------- sessions

    async def _dial(self):
        if self.config.socket_path is not None:
            return await asyncio.open_unix_connection(
                self.config.socket_path
            )
        host, port = self.config.tcp
        return await asyncio.open_connection(host, port)

    async def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.is_set():
            await asyncio.sleep(interval)
            try:
                await self._send(
                    protocol.request(
                        "w.heartbeat",
                        name=self.config.name,
                        inflight=self.inflight,
                    )
                )
            except (ConnectionError, OSError, RuntimeError):
                return  # session read loop will observe the EOF

    async def _session(self, reader, writer) -> None:
        """One registered connection, register to EOF."""
        self._writer = writer
        self.sessions += 1
        # A coordinator that drained and restarted may assign again;
        # runs of the drained session keep its drain.
        self.drain = Drain()
        await self._send(
            protocol.request(
                "w.register",
                name=self.config.name,
                slots=self.config.slots,
                pid=os.getpid(),
            )
        )
        heartbeat_task: Optional[asyncio.Task] = None
        pending = set()
        try:
            while not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_frame(line)
                except protocol.ProtocolError as error:
                    self.log(f"bad frame from coordinator: {error}")
                    return
                ftype = frame.get("type")
                if ftype == "w.registered":
                    self.config.name = frame.get("worker", self.config.name)
                    interval = float(frame.get("heartbeat", 1.0))
                    heartbeat_task = asyncio.ensure_future(
                        self._heartbeat_loop(interval)
                    )
                    self.log(
                        f"registered as {self.config.name} "
                        f"(slots={self.config.slots}, "
                        f"heartbeat={interval}s)"
                    )
                elif ftype == "w.assign":
                    task = asyncio.ensure_future(
                        self._run_assignment(frame)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif ftype == "w.drain":
                    grace = float(frame.get("grace", 10.0))
                    self.log(f"coordinator draining (grace={grace}s)")
                    self.drain.begin(grace)
                elif ftype == "w.revoke":
                    # Best-effort: the coordinator reassigned this
                    # lease; our eventual result will be discarded, so
                    # there is nothing to do that correctness needs.
                    self.log(f"lease {frame.get('lease')} revoked")
                elif ftype == "error":
                    self.log(
                        f"coordinator error: {frame.get('code')}: "
                        f"{frame.get('message')}"
                    )
                    return
        finally:
            self._writer = None
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            # In-flight assignments keep running across a reconnect;
            # their late results are dropped by _send_quiet (no writer)
            # or discarded coordinator-side as unknown leases.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ----------------------------------------------------------- run/stop

    def request_stop(self) -> None:
        self._stop.set()
        writer = self._writer
        if writer is not None:
            try:
                writer.close()  # unblocks the session read loop
            except Exception:  # noqa: BLE001
                pass

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (ValueError, NotImplementedError, RuntimeError):
                pass
        endpoint = self.config.socket_path or "%s:%d" % self.config.tcp
        failures = 0
        try:
            while not self._stop.is_set():
                try:
                    reader, writer = await self._dial()
                except (ConnectionError, OSError) as error:
                    failures += 1
                    if (
                        not self.config.reconnect
                        or failures > self.config.reconnect_tries
                    ):
                        raise ConnectionError(
                            f"cannot reach coordinator at {endpoint} "
                            f"after {failures} attempt(s): {error}"
                        )
                    delay = min(
                        backoff_delay(
                            _RECONNECT_BASE,
                            failures,
                            self.config.name or "worker",
                        ),
                        2.0,  # cap: poll a long outage every couple s
                    )
                    await asyncio.sleep(delay)
                    continue
                failures = 0
                self.log(f"connected to coordinator at {endpoint}")
                await self._session(reader, writer)
                if self._stop.is_set() or not self.config.reconnect:
                    break
                self.log("coordinator connection lost; reconnecting")
        finally:
            self._stop.set()


def serve_worker(config: WorkerConfig) -> None:
    """Blocking entry point: run one worker until stopped."""
    worker = WorkerDaemon(config)
    asyncio.run(worker.run())
