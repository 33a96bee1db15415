"""Deployable defense configurations.

Each defense bundles an allocator, an instrumentation policy for
application memory accesses, a stack-frame protection policy, and a
libc interception policy — the four places the paper's Figure 3
breakdown attributes ASan's overhead to.  The experiment harness runs
the same workload under each defense and compares cycle counts.

New schemes register a :class:`~repro.defenses.plugin.DefensePlugin`
(see :mod:`repro.defenses.plugin`) and become runnable everywhere a
mode name is accepted — CLI, foundry, attack suite, experiments.
"""

from repro.defenses.base import Defense
from repro.defenses.none import PlainDefense
from repro.defenses.asan import AsanDefense
from repro.defenses.mte import MteDefense
from repro.defenses.rest import RestDefense
from repro.defenses.softrest import SoftRestDefense
from repro.defenses.plugin import (
    DEFENSE_MODES,
    DefensePlugin,
    canonical_mode,
    get_plugin,
    make_defense,
    registered_plugins,
)

__all__ = [
    "AsanDefense",
    "DEFENSE_MODES",
    "Defense",
    "DefensePlugin",
    "MteDefense",
    "PlainDefense",
    "RestDefense",
    "SoftRestDefense",
    "canonical_mode",
    "get_plugin",
    "make_defense",
    "registered_plugins",
]
