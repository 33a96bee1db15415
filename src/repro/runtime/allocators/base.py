"""Shared allocator machinery: arena management, stats, errors."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.runtime.machine import Machine


class AllocationError(Exception):
    """Out of arena space, or an invalid free (unknown/double pointer)."""


@dataclass
class AllocatorStats:
    allocations: int = 0
    frees: int = 0
    bytes_requested: int = 0
    bytes_reserved: int = 0  # including headers/redzones/padding
    quarantine_chunks: int = 0
    quarantine_bytes: int = 0
    quarantine_drains: int = 0
    reuses: int = 0
    arena_high_water: int = 0

    @property
    def live_allocations(self) -> int:
        return self.allocations - self.frees

    @property
    def memory_overhead_ratio(self) -> float:
        """Reserved-to-requested ratio (Watchdog reported ~1.56x)."""
        if not self.bytes_requested:
            return 1.0
        return self.bytes_reserved / self.bytes_requested


@dataclass
class Chunk:
    """One reserved region: [base, base + total) with a payload inside."""

    base: int
    total: int
    payload: int
    size: int  # requested size
    live: bool = True
    #: Out-of-band metadata slot (used by allocators whose redzones are
    #: hardware-protected and therefore cannot hold metadata in-band).
    meta: int = 0


class BaseAllocator:
    """Bump arena + size-classed recycling, shared by all allocators.

    Subclasses override the hook methods to add their redzone/poisoning/
    token behaviour; the base class never applies any protection, which
    makes it the plain libc-style baseline when used directly via
    :class:`LibcAllocator`.
    """

    #: Payload alignment granularity.
    granularity = 16

    #: Chunks at least this large are mmap-backed: freed straight back
    #: to the OS (munmap) instead of entering pools/quarantine, the way
    #: dlmalloc and ASan's allocator treat large allocations.  The next
    #: same-size allocation gets fresh, OS-zeroed pages.
    mmap_threshold = 128 * 1024

    def __init__(self, machine: Machine, arena_base: Optional[int] = None,
                 arena_size: Optional[int] = None) -> None:
        self.machine = machine
        layout = machine.layout
        self.arena_base = arena_base if arena_base is not None else layout.heap_base
        self.arena_size = arena_size if arena_size is not None else layout.heap_size
        self._brk = self.arena_base
        self.stats = AllocatorStats()
        #: ptr -> Chunk for live allocations.
        self._live: Dict[int, Chunk] = {}
        #: size-class -> free chunks ready for reuse.
        self._free_pool: Dict[int, Deque[Chunk]] = {}

    # -- geometry ------------------------------------------------------------

    def _round(self, size: int, granularity: Optional[int] = None) -> int:
        g = granularity or self.granularity
        return max(g, (size + g - 1) // g * g)

    def _sbrk(self, size: int) -> int:
        if self._brk + size > self.arena_base + self.arena_size:
            raise AllocationError(
                f"arena exhausted: need {size} bytes past 0x{self._brk:x}"
            )
        address = self._brk
        self._brk += size
        used = self._brk - self.arena_base
        if used > self.stats.arena_high_water:
            self.stats.arena_high_water = used
        return address

    # -- the public malloc/free interface -------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the payload address."""
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        chunk = self._obtain_chunk(size)
        chunk.size = size
        chunk.live = True
        self._live[chunk.payload] = chunk
        self.stats.allocations += 1
        self.stats.bytes_requested += size
        self.stats.bytes_reserved += chunk.total
        machine = self.machine
        if machine.tracer.enabled:
            machine.tracer.emit(
                "alloc.malloc",
                machine.ops_emitted,
                ptr=chunk.payload,
                size=size,
                total=chunk.total,
            )
        self._on_malloc(chunk)
        return chunk.payload

    def free(self, ptr: int) -> None:
        """Release the allocation whose payload starts at ``ptr``."""
        chunk = self._live.get(ptr)
        if chunk is None:
            self._on_invalid_free(ptr)
            return
        del self._live[ptr]
        chunk.live = False
        self.stats.frees += 1
        machine = self.machine
        if machine.tracer.enabled:
            machine.tracer.emit(
                "alloc.free",
                machine.ops_emitted,
                ptr=ptr,
                size=chunk.size,
            )
        if chunk.total >= self.mmap_threshold:
            self._on_free_huge(chunk)
        else:
            self._on_free(chunk)

    def live_chunks(self):
        return list(self._live.values())

    # -- chunk lifecycle hooks (subclasses specialise) -------------------------

    def _layout_chunk(self, size: int) -> Chunk:
        """Compute a fresh chunk's geometry. No redzones by default."""
        total = self._round(size) + self.header_size()
        base = self._sbrk(total)
        return Chunk(base=base, total=total, payload=base + self.header_size(), size=size)

    def header_size(self) -> int:
        return 16

    def _size_class(self, size: int) -> int:
        return self._round(size)

    def _obtain_chunk(self, size: int) -> Chunk:
        pool = self._free_pool.get(self._size_class(size))
        if pool:
            self.stats.reuses += 1
            chunk = pool.popleft()
            self._account_reuse_work(chunk)
            return chunk
        return self._layout_chunk(size)

    def _recycle(self, chunk: Chunk) -> None:
        self._free_pool.setdefault(self._size_class(chunk.size), deque()).append(chunk)

    def _account_reuse_work(self, chunk: Chunk) -> None:
        """Machine work done when reusing a pooled chunk."""
        self.machine.compute(4)
        self.machine.load(chunk.base, 8)

    def _on_malloc(self, chunk: Chunk) -> None:
        """Header bookkeeping: a couple of metadata stores + compute."""
        machine = self.machine
        machine.compute(8)
        machine.store(chunk.base, size=8)  # size/state header word
        machine.store(chunk.base + 8, size=8)  # allocator link word

    def _on_free(self, chunk: Chunk) -> None:
        machine = self.machine
        machine.compute(6)
        machine.load(chunk.base, 8)
        machine.store(chunk.base, size=8)
        self._recycle(chunk)

    def _on_free_huge(self, chunk: Chunk) -> None:
        """munmap path for mmap-backed chunks: no pooling, no sweep.

        The pages go back to the OS; a later allocation of this size
        gets fresh zeroed pages (so there is no stale-data or dangling
        reuse to protect against — the unmapping itself faults dangling
        accesses on real systems).
        """
        self.machine.compute(12)  # munmap syscall path

    def _on_invalid_free(self, ptr: int) -> None:
        raise AllocationError(f"free of unknown pointer 0x{ptr:x}")
