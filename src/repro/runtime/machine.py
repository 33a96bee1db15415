"""The machine abstraction that all software layers run against.

A :class:`Machine` couples the address-space layout with either a live
memory hierarchy (functional mode) or a micro-op trace sink (trace
mode).  The allocators, libc, instrumentation and workloads are written
once against this interface and work in both modes:

* In **functional** mode, loads/stores/arm/disarm hit the REST-extended
  hierarchy immediately, so REST exceptions (and ASan violations checked
  in software) fire at the faulting access.  This is the mode the attack
  suite and the examples use.
* In **trace** mode, every operation appends a ``MicroOp`` to the trace
  and nothing touches memory; the cycle-level core later replays the
  trace against a hierarchy for timing.  This is the mode the
  performance experiments use, because it cleanly separates the software
  cost model (how many ops a defense adds) from the hardware timing.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.isa import MicroOp, OpType
from repro.obs.tracer import NULL_TRACER
from repro.runtime.layout import AddressSpaceLayout


class ExecutionMode(enum.Enum):
    FUNCTIONAL = "functional"
    TRACE = "trace"


class Machine:
    """Execution substrate handed to allocators, libc and workloads."""

    def __init__(
        self,
        layout: Optional[AddressSpaceLayout] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        mode: ExecutionMode = ExecutionMode.FUNCTIONAL,
        perfect_hw: bool = False,
        software_rest: bool = False,
    ) -> None:
        self.layout = layout or AddressSpaceLayout()
        self.mode = mode
        #: ``mode is TRACE``, read once per emitted op.
        self.is_trace = mode is ExecutionMode.TRACE
        #: Limit-study switch (paper §VI-B "Software vs Hardware"): each
        #: arm/disarm is replaced by ONE regular store, simulating REST
        #: hardware with zero cost on a stock machine.
        self.perfect_hw = perfect_hw
        #: Opposite limit study: NO hardware support at all — arm
        #: becomes a full token-value write (width/8 stores) and disarm
        #: a verify-and-zero sequence, the way a software-only
        #: content-check scheme would have to run on stock hardware.
        self.software_rest = software_rest
        if perfect_hw and software_rest:
            raise ValueError("perfect_hw and software_rest are exclusive")
        if mode is ExecutionMode.FUNCTIONAL:
            self.hierarchy = hierarchy or MemoryHierarchy()
        else:
            self.hierarchy = hierarchy  # optional in trace mode
        self.trace: List[MicroOp] = []
        self._pc = self.layout.code_base
        self.ops_emitted = 0
        #: pc -> dense static statement id, first-touch order.  Gives
        #: every static code address a small stable id the tracer and
        #: the trace-diff profiler can key on (same workload => same
        #: numbering, regardless of defense mode for app-emitted ops,
        #: whose pcs come from the seeded workload pc model).
        self._statement_ids: Dict[int, int] = {}
        #: Functional-mode cycle odometer: the summed hierarchy latency
        #: of every load/store/arm/disarm that *completed*.  A faulting
        #: access contributes nothing, so the delta across an attack
        #: phase is the work the program got done before detection —
        #: the foundry reports this as detection latency.
        self.functional_cycles = 0
        #: Observability hook: software-side ``alloc.*`` events are
        #: stamped with the trace position (``ops_emitted``) instead of
        #: a simulated cycle.
        self.tracer = NULL_TRACER
        #: token width the software stack should align redzones to.
        self.token_width = (
            self.hierarchy.detector.token.width if self.hierarchy else 64
        )
        #: Optional MTE tag-check unit on the L1-D path.  When a
        #: tagging defense installs its controller here, every
        #: load/store address is tag-checked (functional mode) and
        #: canonicalised before touching the hierarchy or the trace.
        self.mte = None

    # -- trace plumbing -----------------------------------------------------

    def _emit(
        self,
        op: OpType,
        pc: int,
        address: int = 0,
        size: int = 0,
        deps: tuple = (),
        taken: Optional[bool] = None,
    ) -> None:
        # Positional construction: keyword arguments cost about twice
        # as much per op, and every trace op is built here.
        sid_map = self._statement_ids
        sid = sid_map.get(pc)
        if sid is None:
            sid = len(sid_map)
            sid_map[pc] = sid
        self.trace.append(MicroOp(op, pc, address, size, deps, taken, sid))
        self.ops_emitted += 1
        # Straight-line code: each emitted op advances the pc, so
        # instrumentation-heavy defenses naturally stretch the code
        # footprint (ASan's well-known i-cache pressure).
        self._pc += 4

    def take_trace(self) -> List[MicroOp]:
        """Detach and return the accumulated trace."""
        trace, self.trace = self.trace, []
        return trace

    def set_pc(self, pc: int) -> None:
        self._pc = pc

    # -- data operations ------------------------------------------------------

    def load(self, address: int, size: int = 8, deps: tuple = ()) -> bytes:
        """A regular program load."""
        if self.mte is not None:
            address = self.mte.filter(address, size, "load")
        if self.is_trace:
            self._emit(OpType.LOAD, self._pc, address, size, deps)
            return b"\x00" * size
        hierarchy = self.hierarchy
        self.functional_cycles += hierarchy.load_latency(address, size)
        return hierarchy.backing.read(address, size) if size > 0 else b""

    def store(self, address: int, data: bytes = b"", size: int = 0, deps: tuple = ()) -> None:
        """A regular program store.

        In trace mode only the size matters; in functional mode ``data``
        is written (pass ``size`` alone for zero-fill).
        """
        n = len(data) or size or 8
        if self.mte is not None:
            address = self.mte.filter(address, n, "store")
        if self.is_trace:
            self._emit(OpType.STORE, self._pc, address, n, deps)
            return
        payload = data if data else b"\x00" * n
        self.functional_cycles += self.hierarchy.store_latency(
            address, n, data=payload
        )

    def arm(self, address: int) -> None:
        """Place a REST token (the new ISA instruction)."""
        if self.tracer.enabled:
            self.tracer.emit(
                "alloc.arm", self.ops_emitted, address=address
            )
        if self.is_trace:
            if self.software_rest:
                # No hardware: write the whole token value out.
                for beat in range(0, self.token_width, 8):
                    self._emit(OpType.STORE, self._pc, address + beat, 8)
                return
            op = OpType.STORE if self.perfect_hw else OpType.ARM
            self._emit(op, self._pc, address, 8)
            return
        self.functional_cycles += self.hierarchy.arm_latency(address)

    def disarm(self, address: int) -> None:
        """Remove a REST token (the new ISA instruction)."""
        if self.tracer.enabled:
            self.tracer.emit(
                "alloc.disarm", self.ops_emitted, address=address
            )
        if self.is_trace:
            if self.software_rest:
                # Verify the token is present (the precise-disarm
                # requirement costs a read-and-compare), then zero it.
                for beat in range(0, self.token_width, 8):
                    self._emit(OpType.LOAD, self._pc, address + beat, 8)
                    self._emit(OpType.ALU, self._pc, 0, 0, (1,))
                for beat in range(0, self.token_width, 8):
                    self._emit(OpType.STORE, self._pc, address + beat, 8)
                return
            op = OpType.STORE if self.perfect_hw else OpType.DISARM
            self._emit(op, self._pc, address, 8)
            return
        self.functional_cycles += self.hierarchy.disarm_latency(address)

    # -- compute / control ---------------------------------------------------

    def compute(self, count: int = 1, dependent: bool = False) -> None:
        """Emit ``count`` ALU ops (a dependency chain if ``dependent``)."""
        if not self.is_trace:
            return
        deps = (1,) if dependent else ()
        for _ in range(count):
            self._emit(OpType.ALU, self._pc, 0, 0, deps)

    def compare_and_branch(self, taken: bool, deps: tuple = (2,)) -> None:
        """An ALU compare followed by a conditional branch.

        This is the shape of every ASan shadow check: load shadow,
        compare, branch-if-poisoned.
        """
        if not self.is_trace:
            return
        self._emit(OpType.ALU, self._pc, 0, 0, (1,))
        self._emit(OpType.BRANCH, self._pc, 0, 0, (1,), taken)

    def branch(self, taken: bool, pc: Optional[int] = None) -> None:
        if not self.is_trace:
            return
        self._emit(
            OpType.BRANCH, self._pc if pc is None else pc, 0, 0, (), taken
        )

    def call(self, target_pc: int) -> None:
        if not self.is_trace:
            return
        self._emit(OpType.CALL, self._pc, 0, 0, (), True)
        self._pc = target_pc

    def ret(self, return_pc: int) -> None:
        if not self.is_trace:
            return
        self._emit(OpType.RET, self._pc, 0, 0, (), True)
        self._pc = return_pc
