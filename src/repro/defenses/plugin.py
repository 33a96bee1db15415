"""The pluggable defense API: one registration point per protection scheme.

A protection scheme, as this codebase sees it, is four things bundled
together — the ROADMAP's "defense zoo" contract:

1. an **instrumentation hook** (the :class:`Defense` subclass lowering
   application actions to machine ops plus checks),
2. an **allocator** (how the heap cooperates with the scheme),
3. a **hardware cost model** (what silicon the scheme adds),
4. a **detector placement** (where in the machine violations fire).

A :class:`DefensePlugin` captures that bundle plus the metadata every
consumer needs (canonical name, aliases, capability flags).  The CLI,
the attack suite, the foundry and the experiment harness all resolve
mode names through this registry, so registering one plugin makes a
new scheme runnable *everywhere* a mode name is accepted today.
:data:`DEFENSE_MODES` is the canonical mode tuple, in report order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.defenses.asan import AsanDefense
from repro.defenses.base import Defense
from repro.defenses.mte import MteDefense
from repro.defenses.none import PlainDefense
from repro.defenses.rest import RestDefense
from repro.defenses.softrest import SoftRestDefense
from repro.runtime.machine import Machine


@dataclass(frozen=True)
class DefensePlugin:
    """Everything the stack needs to know about one protection scheme.

    ``factory`` builds the scheme's default configuration on a machine
    the *caller* owns and configures (see ``Defense.__init__`` for the
    lifecycle contract).  ``from_spec`` optionally specialises
    construction from a :class:`~repro.harness.configs.DefenseSpec`
    (ablation toggles, stack protection); when absent, spec-driven
    construction falls back to ``factory``.
    """

    #: Canonical mode name ("rest", "mte-async", ...), unique.
    name: str
    #: Build the default configuration bound to a caller-owned machine.
    factory: Callable[[Machine], Defense]
    #: One-line human description for docs and ``repro`` help output.
    description: str
    #: Where the scheme's detector sits in the machine.
    detector: str
    #: Accepted alternate spellings (resolved by :func:`canonical_mode`).
    aliases: Tuple[str, ...] = ()
    #: Mechanism flags, mirrored onto the Defense class (see
    #: ``Defense.capabilities``).
    capabilities: frozenset = frozenset()
    #: Whether deployment requires recompiling the protected program.
    requires_recompilation: bool = False
    #: Zero-arg callable returning the scheme's hardware cost record
    #: (None for software-only schemes).
    hardware_cost: Optional[Callable[[], object]] = None
    #: Optional ``(machine, spec) -> Defense`` for DefenseSpec-driven
    #: construction with per-spec toggles.
    from_spec: Optional[Callable[[Machine, object], Defense]] = None

    def build(self, machine: Machine, spec: object = None) -> Defense:
        """Instantiate the defense, honouring ``spec`` when supported."""
        if spec is not None and self.from_spec is not None:
            return self.from_spec(machine, spec)
        return self.factory(machine)


#: name -> plugin, in registration order (= canonical report order).
_PLUGINS: Dict[str, DefensePlugin] = {}
#: accepted spelling -> canonical name.
_ALIASES: Dict[str, str] = {}


def register(plugin: DefensePlugin) -> DefensePlugin:
    """Add a plugin to the registry; names and aliases must be fresh."""
    if plugin.name in _PLUGINS or plugin.name in _ALIASES:
        raise ValueError(f"defense mode {plugin.name!r} already registered")
    for alias in plugin.aliases:
        if alias in _PLUGINS or alias in _ALIASES:
            raise ValueError(f"defense alias {alias!r} already registered")
    _PLUGINS[plugin.name] = plugin
    for alias in plugin.aliases:
        _ALIASES[alias] = plugin.name
    return plugin


def registered_modes() -> Tuple[str, ...]:
    """Canonical mode names, in registration (report) order."""
    return tuple(_PLUGINS)


def registered_plugins() -> Tuple[DefensePlugin, ...]:
    return tuple(_PLUGINS.values())


def registered_aliases() -> Dict[str, str]:
    return dict(_ALIASES)


def canonical_mode(name: str) -> str:
    """Resolve aliases; raise a suggestion-bearing ValueError otherwise.

    The error mirrors ``UnknownAttackError``: close matches first (so a
    typo like ``mte-asycn`` is a one-glance fix), then the known names
    and the accepted aliases.
    """
    mode = _ALIASES.get(name, name)
    if mode in _PLUGINS:
        return mode
    pool = list(_PLUGINS) + sorted(_ALIASES)
    suggestions = difflib.get_close_matches(name, pool, n=3, cutoff=0.6)
    message = f"unknown defense mode {name!r}"
    if suggestions:
        message += "; did you mean: " + ", ".join(suggestions)
    message += "; known: " + ", ".join(_PLUGINS)
    message += " (aliases: " + ", ".join(sorted(_ALIASES)) + ")"
    raise ValueError(message)


def get_plugin(name: str) -> DefensePlugin:
    return _PLUGINS[canonical_mode(name)]


def is_baseline(name: str) -> bool:
    """Whether ``name`` resolves to the unprotected ``none`` mode.

    The one baseline test: ``plain``, ``none`` and any future alias
    of the unprotected mode all collapse to a single Plain cell.
    """
    return canonical_mode(name) == "none"


def make_defense(name: str, machine: Optional[Machine] = None) -> Defense:
    """Build a fresh functional-mode defense for ``name``.

    Every call returns an independent defense over its own machine
    (unless one is passed in), which is what attack/foundry execution
    needs — no state leaks between cases.
    """
    plugin = get_plugin(name)
    return plugin.factory(machine if machine is not None else Machine())


# ---------------------------------------------------------------------------
# Built-in plugin registrations
# ---------------------------------------------------------------------------


def _hwcost(loader: str) -> Callable[[], object]:
    def load():
        from repro.core import hwcost

        return getattr(hwcost, loader)()

    return load


register(DefensePlugin(
    name="none",
    factory=PlainDefense,
    description="unprotected baseline: stock allocator, no checks",
    detector="none",
    aliases=("plain",),
    capabilities=PlainDefense.capabilities,
    requires_recompilation=False,
))

register(DefensePlugin(
    name="asan",
    factory=AsanDefense,
    description="AddressSanitizer: shadow memory, redzones, quarantine",
    detector="compiled-in shadow check before every access",
    capabilities=AsanDefense.capabilities,
    requires_recompilation=True,
    from_spec=lambda machine, spec: AsanDefense(
        machine,
        use_allocator=spec.asan_allocator,
        protect_stack=spec.asan_stack and spec.protect_stack,
        instrument_accesses=spec.asan_checks,
        intercept_libc=spec.asan_intercepts,
    ),
))

register(DefensePlugin(
    name="rest",
    factory=lambda machine: RestDefense(machine, protect_stack=True),
    description="REST tripwires, heap + stack (the paper's full mode)",
    detector="token match on L1-D fill path",
    capabilities=RestDefense.capabilities,
    requires_recompilation=True,
    hardware_cost=_hwcost("rest_cost"),
    from_spec=lambda machine, spec: RestDefense(
        machine, protect_stack=spec.protect_stack
    ),
))

register(DefensePlugin(
    name="rest-heap",
    factory=lambda machine: RestDefense(machine, protect_stack=False),
    description="REST heap-only: no recompilation, allocator does it all",
    detector="token match on L1-D fill path",
    capabilities=RestDefense.capabilities,
    requires_recompilation=False,
    hardware_cost=_hwcost("rest_cost"),
))

register(DefensePlugin(
    name="softrest",
    factory=lambda machine: SoftRestDefense(machine, protect_stack=True),
    description="software-only REST limit study (content checks, no HW)",
    detector="compiled-in token-value compare before every access",
    capabilities=SoftRestDefense.capabilities,
    requires_recompilation=True,
    from_spec=lambda machine, spec: SoftRestDefense(
        machine, protect_stack=spec.protect_stack
    ),
))

register(DefensePlugin(
    name="mte",
    factory=lambda machine: MteDefense(machine, check_mode="sync"),
    description="ARM MTE, synchronous tag checks (precise faults)",
    detector="4-bit tag compare at the L1-D access port",
    aliases=("mte-sync",),
    capabilities=MteDefense.capabilities,
    requires_recompilation=False,
    hardware_cost=_hwcost("mte_cost"),
))

register(DefensePlugin(
    name="mte-async",
    factory=lambda machine: MteDefense(machine, check_mode="async"),
    description="ARM MTE, asynchronous checks (imprecise, cheapest)",
    detector="background tag compare, fault latched to next checkpoint",
    capabilities=MteDefense.capabilities,
    requires_recompilation=False,
    hardware_cost=_hwcost("mte_cost"),
))

register(DefensePlugin(
    name="mte-asymm",
    factory=lambda machine: MteDefense(machine, check_mode="asymm"),
    description="ARM MTE, asymmetric: sync loads, async stores",
    detector="4-bit tag compare at L1-D (loads), latched (stores)",
    capabilities=MteDefense.capabilities,
    requires_recompilation=False,
    hardware_cost=_hwcost("mte_cost"),
))

#: Canonical mode names, in report order (= plugin registration order).
DEFENSE_MODES = registered_modes()
