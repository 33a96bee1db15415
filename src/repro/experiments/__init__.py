"""Experiment reproductions, one module per paper table/figure.

Every module exposes ``regenerate(scale, seed) -> str`` returning the
paper-style rendering; ``scale`` and ``seed`` have no defaults.
:mod:`run_all` is the registry and the one place scales live
(``EXPERIMENT_SCALES``: names, order and scale caps); regenerate one
or more with ``python -m repro experiments NAME...`` or all of them
into a directory with ``python -m repro.experiments.run_all``.

Modules: :mod:`table1` (REST action-semantics conformance),
:mod:`table2` (hardware configuration), :mod:`table3` (scheme
comparison + measured detection matrix), :mod:`fig3` (ASan overhead
breakdown), :mod:`fig7` (runtime overheads), :mod:`fig8` (token
widths), :mod:`intext` (Section VI-B in-text microarchitectural
observations), :mod:`memoverhead` (heap memory overhead per
allocator), :mod:`security` (coverage by bug class, quarantine and
token-width tradeoffs), :mod:`attackmatrix` (attack suite x defense
mode grid), :mod:`defensezoo` (REST vs MTE vs ASan overhead/coverage,
written as JSON; ``repro report`` renders its text view).  The
registry's ``stalls`` unit lives in :mod:`repro.obs.stalls`.
"""

__all__ = [
    "attackmatrix",
    "defensezoo",
    "fig3",
    "fig7",
    "fig8",
    "intext",
    "memoverhead",
    "security",
    "table1",
    "table2",
    "table3",
]
