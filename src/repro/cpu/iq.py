"""Issue queue.

Holds dispatched ops until their source operands are ready, then issues
up to the issue width per cycle.  The paper's in-text results call out
issue-queue pressure: in debug mode, delayed store commit backs the ROB
up into the IQ, and for xalanc the number of IQ-full cycles differed by
more than 100x between the secure and debug modes.

The waiting ops themselves are ROB entries scheduled by the core's
wakeup logic (:mod:`repro.cpu.pipeline`); this object carries the
queue's capacity, its statistics, and its occupancy, which the core
publishes after every cycle.
"""

from __future__ import annotations


class IssueQueue:
    """Bounded out-of-order scheduling window."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("IQ capacity must be positive")
        self.capacity = capacity
        #: Dispatched ops that have not issued yet.
        self.occupancy = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return self.occupancy
