"""Deterministic fault injection for the sweep engine.

``plan``   — seeded :class:`FaultPlan` / :class:`FaultSpec` compilation
             and JSON serialisation.
``inject`` — worker-side activation via ``REPRO_FAULT_PLAN`` (the env
             hook the engine's ``_execute_task`` consults per attempt).
``chaos``  — the ``repro chaos`` driver: fault-free baseline vs chaos
             sweep, manifest-identity verdict, fault accounting.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.faults.inject": (
            "ENV_VAR",
            "InjectedFault",
            "TransientInjectedFault",
            "maybe_inject",
        ),
        "repro.faults.plan": (
            "ALWAYS",
            "FAULT_KINDS",
            "FaultPlan",
            "FaultSpec",
            "WorkerKill",
            "WorkerKillPlan",
        ),
    },
)
