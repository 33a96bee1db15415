"""Write buffer model (8-entry per Table II at L1-D and L2).

Stores retire into the write buffer and drain to the next level in the
background; the buffer only costs the pipeline when it is full.  We
model occupancy as a token-bucket drained at a fixed rate measured in
accesses, which is enough to surface back-pressure for store-heavy
phases (and for the ablation where arm naively writes the full token
through instead of deferring to eviction).
"""

from __future__ import annotations


class WriteBuffer:
    """Occupancy/back-pressure model for a store write buffer."""

    def __init__(self, entries: int, drain_per_access: float = 0.5) -> None:
        if entries <= 0:
            raise ValueError("write buffer must have at least one entry")
        self.entries = entries
        self.drain_per_access = drain_per_access
        self._occupancy = 0.0
        self.inserts = 0
        self.full_stalls = 0

    @property
    def occupancy(self) -> int:
        return int(self._occupancy)

    def insert(self) -> int:
        """Insert one write; returns stall cycles charged (0 if room)."""
        # One access's worth of background drain, then the insert.
        occupancy = self._occupancy - self.drain_per_access
        self._occupancy = occupancy if occupancy > 0.0 else 0.0
        self.inserts += 1
        if self._occupancy >= self.entries:
            self.full_stalls += 1
            # One drain period must pass before room opens up.
            if self.drain_per_access > 0:
                self._occupancy = self.entries - 1 + self.drain_per_access
                return max(1, round(1 / self.drain_per_access))
            return self.entries  # buffer wedged; charge a full drain
        self._occupancy += 1
        return 0

    def reset(self) -> None:
        self._occupancy = 0.0
