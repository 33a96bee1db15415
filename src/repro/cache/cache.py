"""Set-associative cache with LRU replacement and a write buffer.

The cache is a tag store: data lives authoritatively in the backing
store, and the cache models presence (hit/miss), dirtiness, latency and
— at the L1-D level — REST token bits.  This mirrors how the paper's
hardware change is metadata-only: one token bit per token slot per L1-D
line, everything else untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.line import CacheLine
from repro.cache.writebuffer import WriteBuffer
from repro.obs.tracer import NULL_TRACER

_lru_tick = attrgetter("lru_tick")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level (defaults: Table II L1)."""

    name: str = "L1-D"
    size: int = 64 * 1024
    associativity: int = 8
    line_size: int = 64
    hit_latency: int = 2
    write_buffer_entries: int = 8

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a positive power of two")
        if self.size % (self.associativity * self.line_size):
            raise ValueError("size must be divisible by assoc * line size")

    @property
    def num_sets(self) -> int:
        return self.size // (self.associativity * self.line_size)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    token_evictions: int = 0
    token_fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of a write-back, write-allocate cache hierarchy.

    Ways are allocated on first fill: a fresh cache holds no line
    objects, so building a Table II hierarchy costs nothing per line
    and a run pays only for the lines it touches.  Every line object
    in the cache is resident; eviction and invalidation detach it.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.write_buffer = WriteBuffer(config.write_buffer_entries)
        self.stats = CacheStats()
        #: Observability hook; only the (rare) eviction path emits.
        self.tracer = NULL_TRACER
        self._tick = 0
        self._line_shift = config.line_size.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        #: Resident lines by line number (address >> line shift): the one
        #: source of truth for presence, so a lookup is a single probe.
        self._lines: Dict[int, CacheLine] = {}
        #: Resident lines of each set that has seen a fill, for victim
        #: selection.
        self._sets: Dict[int, List[CacheLine]] = {}

    # -- geometry helpers ------------------------------------------------

    def line_address(self, address: int) -> int:
        return (address >> self._line_shift) << self._line_shift

    # -- lookup / install ------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Find the line containing ``address``; None on miss."""
        line = self._lines.get(address >> self._line_shift)
        if line is not None and touch:
            self._tick += 1
            line.lru_tick = self._tick
        return line

    def install(self, address: int, token_bits: int = 0) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install the line for ``address``; returns (line, victim).

        ``victim`` is the set's least recently used line, detached with
        its metadata intact, if the set was full; else None.  The caller
        handles write-back and token eviction semantics.  Installing a
        line that is already resident refills it in place.
        """
        line_no = address >> self._line_shift
        self._tick += 1
        if token_bits:
            self.stats.token_fills += 1
        line = self._lines.get(line_no)
        if line is not None:
            line.dirty = False
            line.token_bits = token_bits
            line.lru_tick = self._tick
            return line, None
        tag, index = divmod(line_no, self._num_sets)
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = []
        victim: Optional[CacheLine] = None
        if len(ways) == self._associativity:
            victim = min(ways, key=_lru_tick)
            ways.remove(victim)
            del self._lines[victim.tag * self._num_sets + index]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            if victim.token_bits:
                self.stats.token_evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "evict",
                    self.tracer.now,
                    cache=self.config.name,
                    tag=victim.tag,
                    dirty=victim.dirty,
                    tokens=victim.token_bits,
                )
        line = CacheLine(tag, False, token_bits, self._tick)
        ways.append(line)
        self._lines[line_no] = line
        return line, victim

    def victim_address(self, probe_address: int, victim: CacheLine) -> int:
        """Reconstruct the base address of an evicted line."""
        index = (probe_address >> self._line_shift) % self._num_sets
        return (victim.tag * self._num_sets + index) << self._line_shift

    def lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """(base address, line) for every resident line, in fill order."""
        shift = self._line_shift
        for line_no, line in self._lines.items():
            yield line_no << shift, line

    def invalidate(self, address: int) -> None:
        line_no = address >> self._line_shift
        line = self._lines.pop(line_no, None)
        if line is not None:
            self._sets[line_no % self._num_sets].remove(line)

    def invalidate_all(self) -> None:
        """Drop every resident line; the write buffer is untouched."""
        self._lines.clear()
        self._sets.clear()

    def flush(self) -> None:
        self.invalidate_all()
        self.write_buffer.reset()

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self.write_buffer.inserts = 0
        self.write_buffer.full_stalls = 0
