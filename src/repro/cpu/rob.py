"""Reorder buffer.

A bounded FIFO of in-flight micro-ops.  Commit is in order and bounded
by the commit width; the REST-relevant behaviour is at the head: in
debug mode a store-like op (store/arm/disarm) may not commit until its
write has completed, and the cycles the head spends blocked this way are
the paper's "ROB blocked by a store" statistic (Section VI-B observed it
an order of magnitude higher in debug mode).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.cpu.isa import MicroOp


class RobEntry:
    """One in-flight micro-op: its ROB slot and, until it issues, its
    issue-queue scheduling state (see the wakeup scheduler in
    :mod:`repro.cpu.pipeline`)."""

    __slots__ = (
        "uop",
        "seq",
        "is_memory",
        "pending",
        "ready_at",
        "write_done_cycle",
        "write_latency",
    )

    def __init__(self, uop: MicroOp, seq: int, is_memory: bool) -> None:
        self.uop = uop
        self.seq = seq
        #: Memory ops issue from the program-order memory queue, never
        #: from the ready list.
        self.is_memory = is_memory
        #: Producers that have not executed yet.
        self.pending = 0
        #: Latest completion cycle among the executed producers: the op
        #: can issue once ``pending`` is 0 and this cycle has come.
        self.ready_at = 0
        #: For store-like ops: cycle the cache write finishes.  Stores
        #: perform their cache write when they retire; debug mode gates
        #: commit on completion of that write (secure mode commits
        #: eagerly and lets the write drain in the background).
        self.write_done_cycle = -1
        #: Cache latency of the write, measured at execute.
        self.write_latency = 0


class ReorderBuffer:
    """In-order retirement window."""

    def __init__(self, capacity: int = 192) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[RobEntry] = deque()
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)
