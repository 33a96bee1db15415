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

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.defenses.base": ("Defense",),
        "repro.defenses.none": ("PlainDefense",),
        "repro.defenses.asan": ("AsanDefense",),
        "repro.defenses.mte": ("MteDefense",),
        "repro.defenses.rest": ("RestDefense",),
        "repro.defenses.softrest": ("SoftRestDefense",),
        "repro.defenses.plugin": (
            "DEFENSE_MODES",
            "DefensePlugin",
            "canonical_mode",
            "get_plugin",
            "make_defense",
            "registered_plugins",
        ),
    },
)
