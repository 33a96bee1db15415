"""Blocking client for the simulation job daemon.

The daemon is asyncio; clients deliberately are not.  A CLI verb or a
test wants a synchronous conversation — send one frame, read the
reply — and a plain socket with a line-buffered reader is the simplest
correct way to speak a JSON-lines protocol.  One
:class:`ServiceClient` owns one connection; requests on it are
sequential (the protocol has no interleaving), and :meth:`watch` turns
the event stream into a generator that yields frames until the
daemon's closing ``done`` frame.

Daemon-reported errors surface as :class:`ServiceError` with the
protocol error code (``queue_full``, ``bad_params``, ...) so callers
can branch on the code instead of parsing messages.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.service import protocol


class ServiceError(RuntimeError):
    """The daemon answered with an ``error`` frame."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


class ServiceClient:
    """One connection to a running daemon (context manager)."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        tcp: Optional[Tuple[str, int]] = None,
        timeout: float = 60.0,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValueError("pass exactly one of socket_path or tcp")
        if tcp is not None:
            self._sock = socket.create_connection(tcp, timeout=timeout)
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(str(socket_path))
        self._reader = self._sock.makefile("rb")

    # ------------------------------------------------------------ plumbing

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, frame: Dict) -> None:
        self._sock.sendall(protocol.encode_frame(frame))

    def _read_frame(self) -> Dict:
        line = self._reader.readline()
        if not line:
            raise ServiceError(
                "disconnected", "daemon closed the connection"
            )
        return protocol.decode_frame(line)

    def _request(self, rtype: str, **fields) -> Dict:
        self._send(protocol.request(rtype, **fields))
        reply = self._read_frame()
        if reply.get("type") == "error":
            raise ServiceError(
                reply.get("code", "error"), reply.get("message", "")
            )
        return reply

    # -------------------------------------------------------------- verbs

    def ping(self) -> Dict:
        return self._request("ping")

    def submit(
        self, kind: str, params: Optional[Dict] = None,
        priority: str = "normal",
    ) -> Dict:
        """Submit one job; returns its wire record (``["id"]`` etc.)."""
        reply = self._request(
            "submit", kind=kind, params=params or {}, priority=priority
        )
        return reply["job"]

    def status(self, job_id: str) -> Dict:
        return self._request("status", job=job_id)["job"]

    def jobs(self) -> List[Dict]:
        return self._request("jobs")["jobs"]

    def workers(self) -> Dict:
        """Fabric view: registered workers + dispatcher counters."""
        return self._request("workers")

    def watch(self, job_id: str) -> Iterator[Dict]:
        """Yield the job's event frames until a terminal frame.

        The final yielded frame has ``type == "done"`` (job reached a
        terminal state) or ``type == "draining"`` (the daemon is
        shutting down; the job is persisted and resumes under the same
        id after restart — reconnect and watch again, or use
        :func:`watch_resilient` which does exactly that).
        """
        self._send(protocol.request("watch", job=job_id))
        while True:
            frame = self._read_frame()
            if frame.get("type") == "error":
                raise ServiceError(
                    frame.get("code", "error"), frame.get("message", "")
                )
            yield frame
            if frame.get("type") in ("done", "draining"):
                return

    def wait(self, job_id: str, poll: float = 0.2) -> Dict:
        """Block until the job reaches a terminal state; returns status."""
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
            time.sleep(poll)

    def shutdown(self) -> Dict:
        return self._request("shutdown")


def watch_resilient(
    job_id: str,
    socket_path: Optional[str] = None,
    tcp: Optional[Tuple[str, int]] = None,
    max_retries: int = 10,
    backoff: float = 0.25,
    seed: int = 0,
) -> Iterator[Dict]:
    """Watch a job across daemon restarts; ends on its ``done`` frame.

    A broken socket mid-stream (daemon killed), a ``draining`` frame
    (daemon restarting gracefully), or a connect failure all trigger a
    reconnect with seeded exponential backoff (the same
    :func:`~repro.harness.parallel.backoff_delay` the engine's
    :class:`~repro.harness.supervision.RetryPolicy` uses, keyed by job
    id, so two watchers of different jobs do not
    thundering-herd a restarting daemon).  Each successful
    re-establishment yields one structured frame::

        {"type": "reconnected", "job": "j0001", "failures": 2}

    before the daemon's replayed events.  Event ``seq`` numbers restart
    from 1 after a daemon restart (the job is resubmitted from
    ``queue.json`` under its original id), so consumers should treat
    the ``reconnected`` frame as a replay boundary, not dedup by seq
    across it.  ``max_retries`` bounds *consecutive* failures; a
    healthy frame resets the budget.  A job that finished while the
    watcher was away is gone from the restarted daemon's table and
    surfaces as ``unknown_job`` once the budget is exhausted.
    """
    from repro.harness.parallel import backoff_delay

    ever_streamed = False
    failures = 0
    while True:
        try:
            with ServiceClient(socket_path=socket_path, tcp=tcp) as client:
                streamed_this_session = False
                for frame in client.watch(job_id):
                    if not streamed_this_session:
                        streamed_this_session = True
                        if ever_streamed:
                            yield {
                                "type": "reconnected",
                                "job": job_id,
                                "failures": failures,
                            }
                        ever_streamed = True
                        failures = 0
                    ftype = frame.get("type")
                    yield frame
                    if ftype == "done":
                        return
                    if ftype == "draining":
                        break  # reconnect once the daemon is back
        except (ServiceError, OSError) as error:
            code = getattr(error, "code", None)
            if isinstance(error, ServiceError) and code not in (
                "disconnected",
                "unknown_job",  # restarted daemon may not have restored yet
            ):
                raise
        failures += 1
        if failures > max_retries:
            raise ServiceError(
                "unreachable",
                f"daemon did not come back for {job_id} after "
                f"{max_retries} reconnect attempts",
            )
        # Exponential with seeded jitter, capped so a long outage polls
        # every few seconds instead of minutes apart.
        time.sleep(min(backoff_delay(backoff, failures, job_id, seed), 5.0))


def wait_for_daemon(
    socket_path: Optional[str] = None,
    tcp: Optional[Tuple[str, int]] = None,
    timeout: float = 15.0,
) -> Dict:
    """Poll until a daemon answers ping (returns the pong) or raise."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(socket_path=socket_path, tcp=tcp) as client:
                return client.ping()
        except (OSError, ServiceError) as error:
            last_error = error
            time.sleep(0.1)
    raise TimeoutError(
        f"no daemon on {socket_path or tcp} after {timeout}s: {last_error}"
    )
