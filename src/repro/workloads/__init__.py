"""Workloads: synthetic SPEC CPU2006 models and the attack suite.

The paper evaluates on the SPEC CPU2006 C/C++ benchmarks with *test*
inputs (which emphasise initialisation/allocation behaviour — the paper
notes this inflates allocator overheads, Section VI-A).  We cannot run
SPEC itself, so each benchmark is modelled by a
:class:`~repro.workloads.spec.BenchmarkProfile` capturing the
characteristics that drive every overhead source the paper measures:
allocation rate and sizes (xalanc: 0.2 allocations per kilo-instruction;
lbm/sjeng: fewer than 10 allocation calls total), memory-operation
density, libc-API call rate, function-call rate, working-set size and
branch behaviour.  The deterministic generator turns a (profile,
defense) pair into the dynamic micro-op trace the cycle-level core
consumes.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.workloads.spec": (
            "ALL_PROFILES",
            "BenchmarkProfile",
            "profile_by_name",
        ),
        "repro.workloads.generator": ("SyntheticWorkload",),
        "repro.workloads.attacks": (
            "AttackOutcome",
            "AttackResult",
            "ATTACK_REGISTRY",
            "UnknownAttackError",
            "run_attack",
        ),
    },
)
