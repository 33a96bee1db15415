"""Lean functional cache model for the fast tier.

The analytical replayer must know, for every access in the uncharted
part of the trace, *which level of the hierarchy would have served it*
— that is the cache-state half of the block memo key, and it drifts
over a run (cold-start misses, working-set growth) in exactly the way
that makes prefix-trained cost models wrong.  Stepping the full
:class:`repro.cache.hierarchy.MemoryHierarchy` for this would cost
almost as much as the cycle-accurate tier; this module models only
presence and LRU (per-set tag->tick dicts, mirroring the real cache's
geometry) and none of the timing machinery (write buffers, token
detector, DRAM rows).

Latency *classes* returned: ``0`` = L1 hit, ``1`` = L2 hit, ``2`` =
served from memory.

Memory-served accesses additionally run an open-page DRAM row tracker
mirroring :class:`repro.mem.dram.DramModel`'s bank/row mapping, because
a row hit and a row miss differ by ~3x in latency and row locality
*drifts* over a run (early allocations stream within rows; a grown
working set hops between them) — exactly the kind of drift the fast
tier must keep in its memo key rather than average away.
"""

from __future__ import annotations

from repro.cache.hierarchy import HierarchyConfig
from repro.mem.dram import DramConfig


class LeanCache:
    """Presence/LRU model of one cache level.

    Same set/way geometry and LRU victim policy as
    :class:`repro.cache.cache.Cache`, and a lazy layout too: a
    ``{line number: tick}`` dict of resident lines plus, for each set
    that has seen a fill, the list of its resident line numbers.
    """

    __slots__ = ("num_sets", "ways", "ticks", "sets", "tick", "hits", "misses")

    def __init__(self, size: int, associativity: int, line_size: int) -> None:
        self.num_sets = size // (associativity * line_size)
        self.ways = associativity
        self.ticks = {}
        self.sets = {}
        self.tick = 0
        self.hits = 0
        self.misses = 0

    def probe(self, line_no: int) -> bool:
        """Touch ``line_no``; True on hit (LRU updated)."""
        ticks = self.ticks
        if line_no in ticks:
            self.tick += 1
            ticks[line_no] = self.tick
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line_no: int) -> bool:
        """Presence test without an LRU touch (prefetch probe)."""
        return line_no in self.ticks

    def install(self, line_no: int) -> None:
        ticks = self.ticks
        if line_no not in ticks:
            index = line_no % self.num_sets
            members = self.sets.get(index)
            if members is None:
                members = self.sets[index] = []
            if len(members) == self.ways:
                evict = min(members, key=ticks.__getitem__)
                members.remove(evict)
                del ticks[evict]
            members.append(line_no)
        self.tick += 1
        ticks[line_no] = self.tick

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class LeanHierarchy:
    """L1-I/L1-D/L2 presence model with the real fill/prefetch paths.

    Mirrors the structural behaviour of
    :class:`repro.cache.hierarchy.MemoryHierarchy`: write-allocate
    fills install into both L2 and L1, and instruction fetches run the
    next-line prefetcher, so hit rates track the real hierarchy even
    though no timing state exists.
    """

    __slots__ = (
        "line_shift",
        "line_size",
        "l1d",
        "l1i",
        "l2",
        "lines_per_row",
        "banks",
        "open_rows",
        "row_accesses",
        "row_misses",
    )

    def __init__(self, config: HierarchyConfig) -> None:
        line_size = config.l1d.line_size
        if line_size & (line_size - 1):
            raise ValueError("lean model requires power-of-two lines")
        self.line_shift = line_size.bit_length() - 1
        self.line_size = line_size
        self.l1d = LeanCache(
            config.l1d.size, config.l1d.associativity, line_size
        )
        self.l1i = LeanCache(
            config.l1i.size, config.l1i.associativity, line_size
        )
        self.l2 = LeanCache(config.l2.size, config.l2.associativity, line_size)
        dram = DramConfig()
        self.lines_per_row = max(1, dram.row_size // line_size)
        self.banks = dram.banks
        self.open_rows = {}
        self.row_accesses = 0
        self.row_misses = 0

    def _dram_touch(self, line_no: int) -> None:
        """Open-page row tracking for one memory-served line fill."""
        row = line_no // self.lines_per_row
        bank = row % self.banks
        self.row_accesses += 1
        if self.open_rows.get(bank) != row:
            self.open_rows[bank] = row
            self.row_misses += 1

    def data_line(self, line_no: int) -> int:
        """One data-side line reference; returns its latency class."""
        if self.l1d.probe(line_no):
            return 0
        if self.l2.probe(line_no):
            self.l1d.install(line_no)
            return 1
        self._dram_touch(line_no)
        self.l2.install(line_no)
        self.l1d.install(line_no)
        return 2

    def inst_line(self, line_no: int) -> int:
        """One instruction-fetch line change; returns latency class.

        Runs the next-line prefetcher exactly like
        ``MemoryHierarchy.fetch_line``: the *next* line is pulled into
        the L1-I (through the L2) without a stall, which is why
        straight-line code streams at class 0.
        """
        l1i = self.l1i
        l2 = self.l2
        if l1i.probe(line_no):
            cls = 0
        elif l2.probe(line_no):
            l1i.install(line_no)
            cls = 1
        else:
            self._dram_touch(line_no)
            l2.install(line_no)
            l1i.install(line_no)
            cls = 2
        nxt = line_no + 1
        if not l1i.contains(nxt):
            if not l2.probe(nxt):
                self._dram_touch(nxt)
                l2.install(nxt)
            l1i.install(nxt)
        return cls
