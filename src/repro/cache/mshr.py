"""Miss status holding registers.

Table II gives each L1 four 20-entry MSHRs and the L2 twenty 12-entry
MSHRs.  We model an MSHR file as a set of outstanding line addresses,
each with a bounded number of merge targets; allocation fails when all
registers are busy, which the owning cache surfaces as extra stall
cycles.  Debug mode additionally parks loads here while a delivered
critical word partially matches the token (paper, Exception Reporting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Mshr:
    """One miss status holding register tracking a single line miss."""

    line_address: int
    entries: List[int] = field(default_factory=list)
    #: Debug-mode flag: load held pending full-line token determination.
    held_for_token_check: bool = False

    def can_merge(self, capacity: int) -> bool:
        return len(self.entries) < capacity


class MshrFile:
    """A file of MSHRs with per-register merge capacity."""

    def __init__(self, registers: int, entries_per_register: int) -> None:
        if registers <= 0 or entries_per_register <= 0:
            raise ValueError("MSHR file dimensions must be positive")
        self.registers = registers
        self.entries_per_register = entries_per_register
        self._active: Dict[int, Mshr] = {}
        self.allocations = 0
        self.merges = 0
        self.structural_stalls = 0
        self.token_holds = 0

    @property
    def occupancy(self) -> int:
        return len(self._active)

    def lookup(self, line_address: int) -> Optional[Mshr]:
        return self._active.get(line_address)

    def allocate(self, line_address: int, op_id: int = 0) -> Optional[Mshr]:
        """Allocate or merge a miss; returns None on structural stall."""
        existing = self._active.get(line_address)
        if existing is not None:
            if existing.can_merge(self.entries_per_register):
                existing.entries.append(op_id)
                self.merges += 1
                return existing
            self.structural_stalls += 1
            return None
        if len(self._active) >= self.registers:
            self.structural_stalls += 1
            return None
        mshr = Mshr(line_address, [op_id])
        self._active[line_address] = mshr
        self.allocations += 1
        return mshr

    def complete_miss(self, line_address: int) -> bool:
        """Account a miss whose fill completes within the access.

        The net effect of :meth:`allocate` (retrying through
        :meth:`retire_blocking` on a structural stall) and
        :meth:`release` back to back; returns whether the allocation
        stalled.  The core executes one memory op at a time, so its
        misses find the file empty and cost one counter update.
        """
        if not self._active:
            self.allocations += 1
            return False
        stalled = self.allocate(line_address) is None
        if stalled:
            self.retire_blocking(line_address)
            self.allocate(line_address)
        self.release(line_address)
        return stalled

    def hold_for_token_check(self, line_address: int) -> None:
        """Debug mode: keep the load parked until the full line arrives."""
        mshr = self._active.get(line_address)
        if mshr is not None:
            mshr.held_for_token_check = True
            self.token_holds += 1

    def release(self, line_address: int) -> None:
        self._active.pop(line_address, None)

    def retire_blocking(self, line_address: int) -> None:
        """Free whatever blocked an allocation for ``line_address``.

        If a register for the line exists (merge-capacity exhaustion),
        its fill is modelled as completing now and the register is
        released; otherwise the file itself was full and the oldest
        outstanding register retires.  Exactly one register is freed —
        the other in-flight misses keep their state, and their original
        allocations stay counted once.
        """
        if self._active.pop(line_address, None) is None and self._active:
            self._active.pop(next(iter(self._active)))

    def reset(self) -> None:
        self._active.clear()
