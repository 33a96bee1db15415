"""Binary encoding/decoding for the micro-op ISA.

The paper extends the ISA with two instructions and implements them by
appropriating the encodings of x86's ``xsave``/``xrstor`` (which gem5
leaves unimplemented).  This module gives the reproduction's micro-op
ISA a concrete 24-byte fixed-width binary format so traces can be
serialised to disk, diffed, and replayed — the moral equivalent of a
"legacy binary" for the simulator.

Layout (little-endian):

=======  ====  ==========================================
offset   size  field
=======  ====  ==========================================
0        1     opcode
1        1     flags (bit0: taken, bit1: taken-valid)
2        1     access size (memory ops)
3        1     dependency count (up to 2 encoded)
4        2x2   dependency distances (u16 each)
8        8     pc (u64)
16       8     address (u64)
=======  ====  ==========================================

Every op keeps both its pc and its address, so a decoded trace replays
cycle-for-cycle like the trace it was recorded from: fetch sees the
same I-cache lines.  A header carries the magic and the version;
version 1 records (which dropped the pc of memory ops) are refused.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from repro.cpu.isa import MicroOp, OpType

MAGIC = b"REST"
VERSION = 2

#: opcode assignments; arm/disarm get the 0xAE pair as a nod to the
#: paper's appropriation of xsave/xrstor (0F AE /4, /5).
_OPCODES = {
    OpType.ALU: 0x01,
    OpType.MUL: 0x02,
    OpType.DIV: 0x03,
    OpType.FP: 0x04,
    OpType.LOAD: 0x10,
    OpType.STORE: 0x11,
    OpType.BRANCH: 0x20,
    OpType.CALL: 0x21,
    OpType.RET: 0x22,
    OpType.NOP: 0x00,
    OpType.ARM: 0xAE,
    OpType.DISARM: 0xAF,
}
_BY_OPCODE = {code: op for op, code in _OPCODES.items()}

_RECORD = struct.Struct("<BBBBHHQQ")
RECORD_SIZE = _RECORD.size  # 24 bytes
_HEADER = struct.Struct("<4sHHQ")


class EncodingError(Exception):
    """Malformed trace bytes or unencodable micro-op."""


def encode_uop(uop: MicroOp) -> bytes:
    """Encode one micro-op into its 24-byte record."""
    try:
        opcode = _OPCODES[uop.op]
    except KeyError:
        raise EncodingError(f"unencodable op {uop.op!r}") from None
    deps = tuple(uop.deps)[:2]
    if any(d <= 0 or d > 0xFFFF for d in deps):
        raise EncodingError(f"dependency distance out of range: {deps}")
    flags = 0
    if uop.taken is not None:
        flags |= 0x2 | (0x1 if uop.taken else 0)
    dep0 = deps[0] if len(deps) > 0 else 0
    dep1 = deps[1] if len(deps) > 1 else 0
    return _RECORD.pack(
        opcode,
        flags,
        uop.size & 0xFF,
        len(deps),
        dep0,
        dep1,
        uop.pc & 0xFFFF_FFFF_FFFF_FFFF,
        uop.address & 0xFFFF_FFFF_FFFF_FFFF,
    )


def decode_uop(record: bytes) -> MicroOp:
    """Decode one 24-byte record back into a micro-op."""
    if len(record) != RECORD_SIZE:
        raise EncodingError(f"record must be {RECORD_SIZE} bytes")
    opcode, flags, size, dep_count, dep0, dep1, pc, address = (
        _RECORD.unpack(record)
    )
    try:
        op = _BY_OPCODE[opcode]
    except KeyError:
        raise EncodingError(f"unknown opcode 0x{opcode:02x}") from None
    taken = bool(flags & 0x1) if flags & 0x2 else None
    deps = tuple(d for d in (dep0, dep1)[:dep_count] if d)
    return MicroOp(op, pc, address, size, deps, taken)


def encode_trace(uops: Iterable[MicroOp]) -> bytes:
    """Serialise a whole trace with a header."""
    body = b"".join(encode_uop(uop) for uop in uops)
    count = len(body) // RECORD_SIZE
    return _HEADER.pack(MAGIC, VERSION, 0, count) + body


def decode_trace(data: bytes) -> List[MicroOp]:
    """Deserialise a trace; validates magic, version and length."""
    if len(data) < _HEADER.size:
        raise EncodingError("trace shorter than its header")
    magic, version, _, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise EncodingError("bad magic: not a REST trace")
    if version != VERSION:
        raise EncodingError(
            f"unsupported trace version {version} (expected {VERSION}; "
            "re-record the trace)"
        )
    body = data[_HEADER.size :]
    if len(body) != count * RECORD_SIZE:
        raise EncodingError(
            f"expected {count} records, got {len(body) / RECORD_SIZE}"
        )
    return [
        decode_uop(body[i : i + RECORD_SIZE])
        for i in range(0, len(body), RECORD_SIZE)
    ]
