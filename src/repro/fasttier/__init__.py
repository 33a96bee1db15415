"""Analytical fast-tier simulator, kept only as a measured library.

No ``repro`` surface replays through it: every cell is simulated
cycle-accurately.  It survives because the ``cells-fast`` workload of
``benchmarks/e2e`` measures :class:`FastTierEngine` against a cold
:class:`BlockMemo`, and it is deleted together with that workload.
See :mod:`repro.fasttier.engine` for the strategy and INTERNALS §12.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.fasttier.engine": (
            "DECLARED_TOLERANCE",
            "BlockMemo",
            "FastTierEngine",
            "FastTierResult",
        ),
    },
)
