"""Adversarial workload foundry: seeded attack-corpus generation.

The hand-written suite in :mod:`repro.workloads.attacks` mirrors the
paper's Table III — roughly twenty cases the authors thought of.  The
foundry turns the repro into a security-evaluation *instrument*: a
seeded, deterministic generator composes orthogonal attack primitives
(overflow direction/distance/stride, UAF reallocation windows,
sub-token-width accesses, alignment-pad landings, setjmp stack reuse,
double-free spacing, uninstrumented-library boundaries, Rule-of-2
parser workloads) into thousands of :class:`AttackCase` instances,
each carrying a machine-checkable ground-truth oracle.  Corpora run
across every defense mode through the parallel work-unit engine and
score into a :class:`CoverageMatrix` artifact.

Layering:

* :mod:`repro.foundry.primitives` — case/oracle datatypes and shared
  vocabulary (families, outcomes, defense modes).
* :mod:`repro.foundry.generator` — the seeded geometry model and
  per-family generators; pure functions of ``(seed, index)``.
* :mod:`repro.foundry.executor` — per-family drivers that run one case
  against one fresh defense and classify the outcome.
* :mod:`repro.foundry.matrix` — scoring into the coverage-matrix JSON
  schema, plus the golden matrix for the hand-written suite.
* :mod:`repro.foundry.runner` — sharding over the parallel engine and
  the top-level :func:`run_foundry` entry point.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.foundry.primitives": (
            "AttackCase",
            "CaseOutcome",
            "DEFENSE_MODES",
            "FAMILIES",
            "Family",
            "Oracle",
            "OracleViolation",
        ),
        "repro.foundry.generator": ("generate_corpus", "validate_case"),
        "repro.foundry.executor": ("run_case",),
        "repro.foundry.matrix": (
            "MATRIX_SCHEMA",
            "corpus_digest",
            "handwritten_matrix",
            "render_matrix_text",
            "score_matrix",
        ),
        "repro.foundry.runner": ("FoundryExecutionError", "run_foundry"),
    },
)
