"""Detection-coverage scoring over the attack suite.

Table III classifies schemes with words ("Linear", "Until realloc");
this module turns the words into measured fractions: every registered
attack runs against a defense, outcomes are grouped by bug class, and
the report carries both the per-class detection ratios and the exact
scenarios missed — the quantified version of the paper's security
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.harness.experiment import attack_outcomes
from repro.workloads.attacks import AttackOutcome

#: Bug-class grouping of the attack registry.
ATTACK_CLASSES: Dict[str, tuple] = {
    "spatial-linear": (
        "heartbleed",
        "linear_heap_overflow_write",
        "heap_underflow_read",
        "stack_linear_overflow",
        "stack_overread",
        "off_by_one_write",
        "library_overflow",
        "syscall_confused_deputy",
    ),
    "spatial-targeted": (
        "targeted_corruption",
        "intra_object_overflow",
        "pad_overflow",
    ),
    "temporal": (
        "use_after_free_read",
        "use_after_free_write",
        "double_free",
        "uaf_after_reallocation",
        "use_after_return",
        "uninitialized_heap_leak",
    ),
    "hardening": (
        "brute_force_disarm",
        "token_forgery",
    ),
}


@dataclass
class CoverageReport:
    """Outcome tally for one defense mode across the attack registry."""

    defense: str
    outcomes: Dict[str, AttackOutcome] = field(default_factory=dict)

    def by_class(self) -> Dict[str, Dict[str, int]]:
        """Per bug class: counts of detected/prevented/missed/n-a."""
        summary: Dict[str, Dict[str, int]] = {}
        for class_name, attacks in ATTACK_CLASSES.items():
            tally = {"detected": 0, "prevented": 0, "missed": 0, "n/a": 0}
            for attack in attacks:
                outcome = self.outcomes.get(attack)
                if outcome is None:
                    continue
                key = {
                    AttackOutcome.DETECTED: "detected",
                    AttackOutcome.PREVENTED: "prevented",
                    AttackOutcome.MISSED: "missed",
                    AttackOutcome.NOT_APPLICABLE: "n/a",
                }[outcome]
                tally[key] += 1
            summary[class_name] = tally
        return summary

    def stopped_fraction(self, class_name: str) -> float:
        """Fraction of applicable attacks detected or prevented."""
        tally = self.by_class()[class_name]
        applicable = sum(tally.values()) - tally["n/a"]
        if not applicable:
            return 0.0
        return (tally["detected"] + tally["prevented"]) / applicable

    def missed_attacks(self) -> List[str]:
        return sorted(
            name
            for name, outcome in self.outcomes.items()
            if outcome is AttackOutcome.MISSED
        )


def coverage_report(mode: str) -> CoverageReport:
    """Score defense ``mode``'s row of the attack suite
    (:func:`~repro.harness.experiment.attack_outcomes`)."""
    return CoverageReport(defense=mode, outcomes=attack_outcomes(mode))
