"""Aggregated core statistics for one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CoreStats:
    """Counters collected by the out-of-order core.

    The fields mirror the quantities the paper reports in Section VI-B:
    total cycles (runtime), ROB cycles blocked by a store at the head
    (an order of magnitude higher in debug mode), IQ-full cycles (100x
    higher for xalanc in debug mode), and instruction mix counts.
    """

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    #: Cycles in which at least one instruction committed — the
    #: "usefully retiring" cycles the top-down stall decomposition
    #: attributes to its ``base`` bucket.
    commit_active_cycles: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    rob_blocked_by_store_cycles: int = 0
    rob_full_cycles: int = 0
    iq_full_cycles: int = 0
    lq_full_cycles: int = 0
    sq_full_cycles: int = 0
    branch_mispredicts: int = 0
    mispredict_stall_cycles: int = 0
    lsq_forwards: int = 0
    icache_stall_cycles: int = 0
    #: Summed latency of data-side accesses (loads/stores/arm/disarm)
    #: that missed all the way to memory — the DRAM exposure the
    #: top-down stall decomposition charges its ``dram`` bucket from.
    dram_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else 0.0

    def merge_from(self, other: "CoreStats") -> None:
        """Accumulate another run's counters into this one."""
        self.cycles += other.cycles
        self.committed += other.committed
        self.fetched += other.fetched
        self.commit_active_cycles += other.commit_active_cycles
        self.rob_blocked_by_store_cycles += other.rob_blocked_by_store_cycles
        self.rob_full_cycles += other.rob_full_cycles
        self.iq_full_cycles += other.iq_full_cycles
        self.lq_full_cycles += other.lq_full_cycles
        self.sq_full_cycles += other.sq_full_cycles
        self.branch_mispredicts += other.branch_mispredicts
        self.mispredict_stall_cycles += other.mispredict_stall_cycles
        self.lsq_forwards += other.lsq_forwards
        self.icache_stall_cycles += other.icache_stall_cycles
        self.dram_stall_cycles += other.dram_stall_cycles
        for name, count in other.op_counts.items():
            self.op_counts[name] = self.op_counts.get(name, 0) + count
