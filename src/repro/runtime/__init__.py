"""Software substrate: address space, machine abstraction, libc,
shadow memory and the allocator family (libc / ASan / REST).

Everything in this package is written against the :class:`Machine`
interface so the same allocator/libc/instrumentation code drives both
execution modes:

* **functional** — memory operations hit the REST-extended hierarchy
  immediately; REST/ASan violations raise at the faulting access.  Used
  by the attack scenarios and the examples.
* **trace** — memory operations emit micro-ops into a trace consumed by
  the cycle-level core; allocator bookkeeping stays in Python.  Used by
  the performance experiments (Figures 3, 7, 8).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.runtime.layout": ("AddressSpaceLayout",),
        "repro.runtime.machine": ("ExecutionMode", "Machine"),
        "repro.runtime.shadow": (
            "ShadowMemory",
            "AsanViolation",
            "ShadowState",
        ),
        "repro.runtime.libc": ("Libc",),
        "repro.runtime.allocators": (
            "AllocationError",
            "AllocatorStats",
            "AsanAllocator",
            "BaseAllocator",
            "FastRestAllocator",
            "LibcAllocator",
            "RestAllocator",
        ),
    },
)
