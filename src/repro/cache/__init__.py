"""Cache hierarchy substrate with the REST token detection path.

The hierarchy mirrors Table II of the paper: split 64 KB 8-way L1
instruction/data caches (2-cycle), a unified 2 MB 16-way L2 (20-cycle),
and DDR3 main memory.  The L1 data cache carries the REST extensions:
one token bit per token slot per line, the fill-path token detector, and
the Table I action semantics for arm/disarm/load/store on hits and
misses.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.cache.line": ("CacheLine",),
        "repro.cache.writebuffer": ("WriteBuffer",),
        "repro.cache.cache": ("Cache", "CacheConfig", "CacheStats"),
        "repro.cache.hierarchy": (
            "AccessResult",
            "MemoryHierarchy",
            "HierarchyConfig",
        ),
        "repro.cache.coherence": ("CoherenceStats", "MulticoreHierarchy"),
    },
)
