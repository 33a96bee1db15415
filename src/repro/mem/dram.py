"""DRAM timing model for the Table II memory configuration.

Table II specifies DDR3 at 800 MHz with 13.75 ns CAS latency and row
precharge, and 35 ns RAS latency.  We model an open-page policy per
bank: a row hit costs CAS only; a row miss costs precharge + activate
(RAS) + CAS.  Latencies are converted to CPU cycles at the core clock
(2 GHz by default) since the cache hierarchy charges latency in core
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class DramConfig:
    """DDR3-800 parameters from Table II, plus structural assumptions."""

    cas_ns: float = 13.75
    precharge_ns: float = 13.75
    ras_ns: float = 35.0
    core_clock_ghz: float = 2.0
    row_size: int = 8192
    banks: int = 8
    #: Fixed bus/controller overhead added to every access, in ns.
    bus_ns: float = 10.0

    def ns_to_cycles(self, ns: float) -> int:
        return max(1, round(ns * self.core_clock_ghz))

    @property
    def row_hit_cycles(self) -> int:
        return self.ns_to_cycles(self.cas_ns + self.bus_ns)

    @property
    def row_miss_cycles(self) -> int:
        return self.ns_to_cycles(
            self.precharge_ns + self.ras_ns + self.cas_ns + self.bus_ns
        )


@dataclass
class DramStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


@dataclass
class DramModel:
    """Open-page DRAM latency model with per-bank open-row tracking."""

    config: DramConfig = field(default_factory=DramConfig)

    def __post_init__(self) -> None:
        self._open_rows: Dict[int, int] = {}
        self.stats = DramStats()
        # The config's latency properties recompute the ns->cycles
        # conversion on every read; cache them once (the config is
        # frozen, so they cannot change under us).
        self._row_hit_cycles = self.config.row_hit_cycles
        self._row_miss_cycles = self.config.row_miss_cycles
        self._row_size = self.config.row_size
        self._banks = self.config.banks

    def access(self, address: int, is_write: bool) -> int:
        """Charge one line-sized access; returns latency in core cycles."""
        row = address // self._row_size
        bank = row % self._banks
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        open_rows = self._open_rows
        if open_rows.get(bank) == row:
            stats.row_hits += 1
            return self._row_hit_cycles
        stats.row_misses += 1
        open_rows[bank] = row
        return self._row_miss_cycles

    def reset_stats(self) -> None:
        self.stats = DramStats()
