"""Reproduction of "Practical Memory Safety with REST" (ISCA 2018).

Random Embedded Secret Tokens (REST) is a hardware primitive for
content-based memory checks: a very large random value bookends the
data structures a program wants protected, the L1 data cache detects
the value on line fills, and any regular access that touches it raises
a privileged exception.

Public API map
--------------

``repro.core``
    The primitive itself: :class:`~repro.core.Token`,
    :class:`~repro.core.TokenConfigRegister`,
    :class:`~repro.core.TokenDetector`, the secure/debug
    :class:`~repro.core.Mode`, and the REST exception types.
``repro.cache`` / ``repro.mem`` / ``repro.cpu``
    The hardware substrate: REST-extended cache hierarchy (Table I
    semantics), DRAM model, and the cycle-level out-of-order core with
    the Figure 5 LSQ modifications.
``repro.runtime`` / ``repro.defenses``
    The software substrate: machine abstraction, libc, shadow memory,
    the allocator family, and the deployable defenses
    (:class:`~repro.defenses.PlainDefense`,
    :class:`~repro.defenses.AsanDefense`,
    :class:`~repro.defenses.RestDefense`).
``repro.os``
    System-level support: per-process tokens, context switches,
    fork re-keying, IPC token-leak protection (paper §IV-B).
``repro.workloads`` / ``repro.harness`` / ``repro.experiments``
    SPEC CPU2006 models, the attack suite, and one module per paper
    table/figure.

Quick start::

    from repro import Machine, RestDefense, RestException

    defense = RestDefense(Machine(), protect_stack=False)
    buffer = defense.malloc(100)
    try:
        defense.load(buffer + 128, 8)
    except RestException as error:
        print(error)   # the over-read hit a token

Public names load on first use: importing ``repro`` (or any of its
packages) imports no submodule until one of its names is touched.
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` of a package whose names load on use.

    ``exports`` maps each submodule to the public names it provides.
    The returned PEP 562 ``__getattr__`` imports a name's submodule the
    first time the name is read and keeps the value in the package, so
    importing the package itself costs nothing.  Every package
    ``__init__`` under ``repro`` declares its exports this way.
    """
    home = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return sorted(home), __getattr__


__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.exceptions": (
            "InvalidRestInstructionError",
            "RestException",
        ),
        "repro.core.modes": ("Mode", "PrivilegeLevel"),
        "repro.core.token": ("Token", "TokenConfigRegister"),
        "repro.cache.hierarchy": ("MemoryHierarchy",),
        "repro.cache.coherence": ("MulticoreHierarchy",),
        "repro.defenses.asan": ("AsanDefense",),
        "repro.defenses.none": ("PlainDefense",),
        "repro.defenses.rest": ("RestDefense",),
        "repro.runtime.machine": ("ExecutionMode", "Machine"),
        "repro.runtime.shadow": ("AsanViolation",),
    },
)
__all__.append("__version__")
