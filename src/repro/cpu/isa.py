"""Micro-op level ISA for the simulated core.

The paper implements ``arm``/``disarm`` by appropriating x86 encodings;
at the micro-op level they are stores with an implicit, secret operand.
Every other op is the usual RISC diet.  Dependencies are expressed as
relative back-references (in dynamic-instruction distance) to producer
ops, which is what a register renamer would recover anyway and keeps the
trace format compact and renaming-free.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class OpType(enum.Enum):
    """Dynamic micro-op categories with their execute latencies.

    ``is_memory`` / ``is_store_like`` / ``is_control`` / ``base_latency``
    are plain per-member attributes (assigned below, not properties):
    the pipeline reads them several times per micro-op, and an attribute
    load is several times cheaper than a property call doing a frozenset
    membership test.
    """

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"
    ARM = "arm"
    DISARM = "disarm"
    NOP = "nop"


_MEMORY_OPS = frozenset(
    {OpType.LOAD, OpType.STORE, OpType.ARM, OpType.DISARM}
)
_STORE_LIKE = frozenset({OpType.STORE, OpType.ARM, OpType.DISARM})
_CONTROL = frozenset({OpType.BRANCH, OpType.CALL, OpType.RET})
_LATENCY = {
    OpType.ALU: 1,
    OpType.MUL: 3,
    OpType.DIV: 12,
    OpType.FP: 4,
    OpType.LOAD: 0,  # memory time comes from the hierarchy
    OpType.STORE: 1,  # address generation
    OpType.BRANCH: 1,
    OpType.CALL: 1,
    OpType.RET: 1,
    OpType.ARM: 1,
    OpType.DISARM: 1,
    OpType.NOP: 1,
}

for _op in OpType:
    _op.is_memory = _op in _MEMORY_OPS
    _op.is_store_like = _op in _STORE_LIKE
    _op.is_control = _op in _CONTROL
    _op.base_latency = _LATENCY[_op]
del _op


class MicroOp:
    """One dynamic micro-op in the instruction stream."""

    __slots__ = (
        "op",
        "pc",
        "address",
        "size",
        "deps",
        "taken",
        "seq",
        "sid",
    )

    def __init__(
        self,
        op: OpType,
        pc: int = 0,
        address: int = 0,
        size: int = 0,
        deps: Tuple[int, ...] = (),
        taken: Optional[bool] = None,
        sid: int = -1,
    ) -> None:
        self.op = op
        self.pc = pc
        self.address = address
        self.size = size
        #: Relative distances (>=1) to older producer ops.
        self.deps = deps
        #: Branch outcome (None for non-control ops).
        self.taken = taken
        #: Dynamic sequence number, assigned by the core at fetch.
        self.seq = -1
        #: Static statement id: dense per-run index of the op's code
        #: address, stamped by the trace generator (-1 when the trace
        #: did not come through :class:`repro.runtime.machine.Machine`).
        #: Not serialized by :mod:`repro.cpu.encoding` — it is derived
        #: state, reconstructible from the pc stream.
        self.sid = sid

    def __repr__(self) -> str:
        extra = ""
        if self.op.is_memory:
            extra = f" @0x{self.address:x}+{self.size}"
        if self.op.is_control:
            extra = f" taken={self.taken}"
        return f"MicroOp({self.op.value}{extra}, pc=0x{self.pc:x})"


def load(address: int, size: int = 8, deps: Tuple[int, ...] = (), pc: int = 0) -> MicroOp:
    return MicroOp(OpType.LOAD, pc, address, size, deps)


def store(address: int, size: int = 8, deps: Tuple[int, ...] = (), pc: int = 0) -> MicroOp:
    return MicroOp(OpType.STORE, pc, address, size, deps)


def alu(deps: Tuple[int, ...] = (), pc: int = 0) -> MicroOp:
    return MicroOp(OpType.ALU, pc, 0, 0, deps)


def branch(taken: bool, pc: int = 0, deps: Tuple[int, ...] = ()) -> MicroOp:
    return MicroOp(OpType.BRANCH, pc, 0, 0, deps, taken)


def arm_op(address: int, pc: int = 0) -> MicroOp:
    return MicroOp(OpType.ARM, pc, address)


def disarm_op(address: int, pc: int = 0) -> MicroOp:
    return MicroOp(OpType.DISARM, pc, address)
