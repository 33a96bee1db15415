"""Versioned JSON-lines wire protocol of the simulation job service.

One **frame** is one JSON object serialised on a single line and
terminated by ``\\n`` — trivially parseable from any language, easy to
log, and self-delimiting, so a truncated or interleaved frame is
detectable instead of silently corrupting the stream.  Every *request*
frame carries ``"v": PROTOCOL_VERSION``; the daemon refuses mismatched
versions with a structured error rather than guessing, because a
half-understood scheduler command is worse than none.

Client request types (client → daemon)::

    {"v": 2, "type": "ping"}
    {"v": 2, "type": "submit", "kind": "sweep", "params": {...},
     "priority": "normal"}
    {"v": 2, "type": "status", "job": "j0001"}
    {"v": 2, "type": "jobs"}
    {"v": 2, "type": "watch", "job": "j0001"}
    {"v": 2, "type": "workers"}
    {"v": 2, "type": "shutdown"}

Response types (daemon → client): ``pong``, ``submitted``, ``status``,
``jobs``, ``workers``, ``ok``, and for ``watch`` a stream of ``event``
frames closed by exactly one ``done`` frame.  Any failure is an
``error`` frame::

    {"type": "error", "code": "queue_full", "message": "..."}

Error codes are part of the contract: ``bad_frame`` (unparseable or
oversized line), ``version_mismatch``, ``unknown_type``,
``unknown_job``, ``bad_params``, ``queue_full`` (admission control:
the daemon *rejects* rather than queues unboundedly), and ``draining``
(daemon is shutting down; resubmit after restart).  A protocol error
poisons only its own connection — the daemon drops that client and
keeps every job and every other connection running.

**Fabric frames (v2).**  A worker daemon speaks the same wire format
on the same endpoint; its first frame is ``w.register``, which flips
that connection into worker mode for its lifetime:

worker → coordinator::

    {"v": 2, "type": "w.register", "name": "w0", "slots": 2, "pid": 123}
    {"v": 2, "type": "w.heartbeat", "name": "w0", "inflight": 1}
    {"v": 2, "type": "w.result", "lease": "L7", "result": {...}}
    {"v": 2, "type": "w.progress", "lease": "L7",
     "event": {"kind": "sample", "uid": "bzip2/Plain/1", ...}}
    {"v": 2, "type": "w.bye", "name": "w0"}

coordinator → worker::

    {"type": "w.registered", "worker": "w0", "heartbeat": 1.0}
    {"type": "w.assign", "lease": "L7",
     "unit": {"uid", "module", "func", "kwargs", "key_payload"},
     "timeout": null, "retries": 0}
    {"type": "w.revoke", "lease": "L7"}
    {"type": "w.drain", "grace": 10.0}

A lease id is coordinator-scoped and single-use: a ``w.result`` whose
lease the coordinator no longer holds (revoked after a missed
heartbeat, or assigned to a worker that was declared dead and later
rejoined) is acknowledged and discarded — results are content-addressed
and idempotent, so a late duplicate can never corrupt a job.  A
``w.progress`` event (sampler snapshot or ``fault.*``) reaches the
watchers of its lease's unit; one for a lease no longer held is
dropped the same way.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

#: Bump on any incompatible frame change.  The daemon and client must
#: agree exactly; there is no negotiation.  v2 added the fabric
#: (worker registration / lease / heartbeat) frames.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's wire size.  A line that exceeds it is a
#: protocol violation (``bad_frame``), not a request to buffer forever.
MAX_FRAME_BYTES = 1 << 20

#: Request types a *client* connection may open with.
CLIENT_REQUEST_TYPES = (
    "ping", "submit", "status", "jobs", "watch", "workers", "shutdown",
)

#: Frame types a *worker* connection sends after registering.
WORKER_REQUEST_TYPES = (
    "w.register", "w.heartbeat", "w.result", "w.progress", "w.bye",
)

#: Every request type the daemon understands.
REQUEST_TYPES = CLIENT_REQUEST_TYPES + WORKER_REQUEST_TYPES


class ProtocolError(Exception):
    """A malformed or unacceptable frame; carries the error code."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)

    def frame(self) -> Dict:
        return error_frame(self.code, str(self))


def error_frame(code: str, message: str, **extra) -> Dict:
    frame = {"type": "error", "code": code, "message": message}
    frame.update(extra)
    return frame


def request(rtype: str, **fields) -> Dict:
    """Build a client request frame (stamps the protocol version)."""
    frame = {"v": PROTOCOL_VERSION, "type": rtype}
    frame.update(fields)
    return frame


def encode_frame(frame: Dict) -> bytes:
    """Serialise one frame to its wire form (single line + newline)."""
    return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (code ``bad_frame``) for anything
    that is not a single JSON object: invalid JSON, a bare scalar or
    list, or an oversized line.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "bad_frame", f"frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad_frame", f"unparseable frame: {error}")
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad_frame", f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def check_request(frame: Dict) -> str:
    """Validate a request frame; returns its type.

    Raises :class:`ProtocolError` with ``version_mismatch`` for a wrong
    or missing ``v`` and ``unknown_type`` for an unrecognised type.
    """
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "version_mismatch",
            f"protocol version {version!r} unsupported "
            f"(daemon speaks {PROTOCOL_VERSION})",
        )
    rtype = frame.get("type")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            "unknown_type",
            f"unknown request type {rtype!r}; "
            f"known: {', '.join(REQUEST_TYPES)}",
        )
    return rtype


def parse_tcp(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` endpoint string (CLI ``--tcp`` flag)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"{text!r} is not HOST:PORT")
    return host, int(port)


# -- fabric payload marshalling -----------------------------------------
#
# Work units and unit results cross the coordinator/worker wire as plain
# JSON objects.  Unit kwargs are *mostly* JSON already (module/func path
# + scalar parameters), with one exception: sweep cells carry a
# :class:`~repro.harness.configs.DefenseSpec` value.  Rather than make
# the wire format pickle-shaped (opaque, version-fragile, and an
# execution vector if a socket is ever exposed), the marshaller tags the
# known rich types explicitly and rejects anything else loudly.

#: Tag key marking an encoded rich value inside unit kwargs.
_TAG = "__repro_type__"


def _encode_value(value):
    from repro.harness.configs import DefenseSpec

    if isinstance(value, DefenseSpec):
        from dataclasses import asdict

        data = asdict(value)
        data["mode"] = value.mode.value
        data[_TAG] = "DefenseSpec"
        return data
    return value


def _decode_value(value):
    if isinstance(value, dict) and value.get(_TAG) == "DefenseSpec":
        from repro.core.modes import Mode
        from repro.harness.configs import DefenseSpec

        data = {
            key: val for key, val in value.items() if key != _TAG
        }
        data["mode"] = Mode(data["mode"])
        return DefenseSpec(**data)
    return value


def unit_to_wire(unit) -> Dict:
    kwargs = {
        key: _encode_value(value) for key, value in unit.kwargs.items()
    }
    try:
        json.dumps(kwargs)
    except TypeError as error:
        raise ProtocolError(
            "unmarshallable_unit",
            f"unit {unit.uid} kwargs are not wire-safe: {error}",
        )
    return {
        "uid": unit.uid,
        "module": unit.module,
        "func": unit.func,
        "kwargs": kwargs,
        "key_payload": unit.key_payload,
    }


def unit_from_wire(data: Dict):
    from repro.harness.parallel import WorkUnit

    return WorkUnit(
        uid=data["uid"],
        module=data["module"],
        func=data["func"],
        kwargs={
            key: _decode_value(value)
            for key, value in (data.get("kwargs") or {}).items()
        },
        key_payload=data.get("key_payload") or {},
    )


def result_to_wire(result) -> Dict:
    return {
        "uid": result.uid,
        "ok": result.ok,
        "value": result.value,
        "error": result.error,
        "cpu_seconds": result.cpu_seconds,
        "wall_seconds": result.wall_seconds,
        "attempts": result.attempts,
        "quarantined": result.quarantined,
    }


def result_from_wire(data: Dict):
    from repro.harness.parallel import UnitResult

    return UnitResult(
        uid=data["uid"],
        ok=bool(data["ok"]),
        value=data.get("value"),
        error=data.get("error"),
        cpu_seconds=float(data.get("cpu_seconds", 0.0)),
        wall_seconds=float(data.get("wall_seconds", 0.0)),
        attempts=int(data.get("attempts", 1)),
        quarantined=bool(data.get("quarantined", False)),
    )
