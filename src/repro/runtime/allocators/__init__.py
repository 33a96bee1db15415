"""Heap allocators: stock libc-style, ASan, and REST.

The three allocators share bookkeeping machinery (:mod:`base`) and
differ exactly where the paper says they do:

* :class:`LibcAllocator` — performance-first free-list allocator with
  immediate reuse and no redzones (the "Plain" baseline).
* :class:`AsanAllocator` — ASan's security-first design: shadow-poisoned
  redzones around every allocation, freed memory poisoned and parked in
  a quarantine FIFO, virtually no reuse until quarantine pressure.
* :class:`RestAllocator` — the ASan allocator re-targeted at tokens:
  redzones are armed with REST tokens, freed chunks are filled with
  tokens and quarantined, and the free pool holds *zeroed* chunks (the
  paper's relaxed invariant, Section IV-A).
* :class:`MteAllocator` — ARM MTE's tagging allocator: a fresh 4-bit
  tag per allocation over 16-byte granules, tagged pointers, retag on
  free, immediate reuse (protection is probabilistic tag mismatch, not
  quarantine ageing).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.runtime.allocators.base": (
            "AllocationError",
            "AllocatorStats",
            "BaseAllocator",
        ),
        "repro.runtime.allocators.libc_alloc": ("LibcAllocator",),
        "repro.runtime.allocators.asan_alloc": ("AsanAllocator",),
        "repro.runtime.allocators.rest_alloc": ("RestAllocator",),
        "repro.runtime.allocators.fast_rest": ("FastRestAllocator",),
        "repro.runtime.allocators.mte_alloc": ("MteAllocator",),
    },
)
