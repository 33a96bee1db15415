"""Coverage-matrix scoring: corpus results → a first-class artifact.

The matrix JSON is fully deterministic for a given (seed, cases,
defenses, families) tuple: counts are integers, latency percentiles
index sorted integer lists, and serialisation uses sorted keys — two
runs (cold or warm cache, any job count) produce byte-identical files.

Schema (``rest-repro/foundry-matrix/v1``)::

    schema, seed, cases, corpus_digest        identity of the corpus
    defenses, families                        axes, in report order
    cells[family][defense]                    {detected, missed, prevented,
                                               false_positive, clean, total}
    latency[defense]                          {count, min, max, mean, p50, p90}
                                              over detection latencies (cycles)
    mispredictions                            [{case_id, defense, expected,
                                               actual}] — oracle divergences
    asan_expected_detect_missed               sound-oracle cases ASan was
                                              expected to catch but did not
    rest_false_negatives                      {total, by_family} sound-oracle
                                              cases REST missed (the paper's
                                              §V-C windows, quantified)
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.foundry.primitives import AttackCase, CaseOutcome, DEFENSE_MODES, FAMILIES

MATRIX_SCHEMA = "rest-repro/foundry-matrix/v1"
ATTACK_MATRIX_SCHEMA = "rest-repro/attack-matrix/v1"

_OUTCOME_KEYS = tuple(o.value for o in CaseOutcome)


def corpus_digest(cases: Sequence[AttackCase]) -> str:
    payload = json.dumps(
        [case.to_json() for case in cases], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _percentile(sorted_values: List[int], q: float) -> int:
    index = int(round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def score_matrix(
    seed: int,
    cases: Sequence[AttackCase],
    results_by_defense: Dict[str, Dict[str, Dict[str, Any]]],
    defenses: Sequence[str],
) -> Dict[str, Any]:
    """Fold per-case results into the coverage-matrix artifact."""
    families = [f for f in FAMILIES if any(c.family == f for c in cases)]
    cells: Dict[str, Dict[str, Dict[str, int]]] = {
        family: {
            defense: {key: 0 for key in _OUTCOME_KEYS + ("total",)}
            for defense in defenses
        }
        for family in families
    }
    latencies: Dict[str, List[int]] = {defense: [] for defense in defenses}
    mispredictions: List[Dict[str, Any]] = []
    asan_expected_detect_missed: List[str] = []
    rest_fn_by_family: Dict[str, int] = {}

    for case in cases:
        for defense in defenses:
            record = results_by_defense[defense][case.case_id]
            cell = cells[case.family][defense]
            cell[record["outcome"]] += 1
            cell["total"] += 1
            if record["latency_cycles"] is not None:
                latencies[defense].append(record["latency_cycles"])
            if not record["matches_expected"]:
                mispredictions.append(
                    {
                        "case_id": case.case_id,
                        "defense": defense,
                        "expected": record["expected"],
                        "actual": record["outcome"],
                    }
                )
            if (
                defense == "asan"
                and case.oracle.sound_detects
                and record["expected"] == CaseOutcome.DETECTED.value
                and record["outcome"] != CaseOutcome.DETECTED.value
            ):
                asan_expected_detect_missed.append(case.case_id)
            if (
                defense == "rest"
                and case.oracle.sound_detects
                and record["outcome"] == CaseOutcome.MISSED.value
            ):
                rest_fn_by_family[case.family] = (
                    rest_fn_by_family.get(case.family, 0) + 1
                )

    latency_stats: Dict[str, Dict[str, Any]] = {}
    for defense in defenses:
        values = sorted(latencies[defense])
        if not values:
            latency_stats[defense] = {"count": 0}
            continue
        latency_stats[defense] = {
            "count": len(values),
            "min": values[0],
            "max": values[-1],
            "mean": round(sum(values) / len(values), 3),
            "p50": _percentile(values, 0.5),
            "p90": _percentile(values, 0.9),
        }

    mispredictions.sort(key=lambda m: (m["case_id"], m["defense"]))
    return {
        "schema": MATRIX_SCHEMA,
        "seed": seed,
        "cases": len(cases),
        "corpus_digest": corpus_digest(cases),
        "defenses": list(defenses),
        "families": families,
        "cells": cells,
        "latency": latency_stats,
        "mispredictions": mispredictions,
        "asan_expected_detect_missed": sorted(asan_expected_detect_missed),
        "rest_false_negatives": {
            "total": sum(rest_fn_by_family.values()),
            "by_family": dict(sorted(rest_fn_by_family.items())),
        },
    }


def matrix_to_json(matrix: Dict[str, Any]) -> str:
    """The canonical byte representation (golden files, CI diffs)."""
    return json.dumps(matrix, indent=1, sort_keys=True) + "\n"


def render_matrix_text(matrix: Dict[str, Any]) -> str:
    """Human-readable coverage grid for the CLI and text reports."""
    defenses = matrix["defenses"]
    lines = [
        f"foundry coverage matrix — seed {matrix['seed']}, "
        f"{matrix['cases']} cases, digest {matrix['corpus_digest'][:12]}",
        "",
        "cells: detected/missed/prevented/false-positive/clean",
        "",
    ]
    name_width = max(len(f) for f in matrix["families"]) + 2
    header = " " * name_width + "".join(f"{d:>22}" for d in defenses)
    lines.append(header)
    for family in matrix["families"]:
        row = f"{family:<{name_width}}"
        for defense in defenses:
            cell = matrix["cells"][family][defense]
            row += "{:>22}".format(
                "{}/{}/{}/{}/{}".format(
                    cell["detected"],
                    cell["missed"],
                    cell["prevented"],
                    cell["false_positive"],
                    cell["clean"],
                )
            )
        lines.append(row)
    lines.append("")
    for defense in defenses:
        stats = matrix["latency"][defense]
        if stats["count"]:
            lines.append(
                f"detection latency [{defense}]: n={stats['count']} "
                f"min={stats['min']} p50={stats['p50']} p90={stats['p90']} "
                f"max={stats['max']} cycles"
            )
        else:
            lines.append(f"detection latency [{defense}]: no detections")
    rest_fn = matrix["rest_false_negatives"]
    lines.append("")
    lines.append(
        f"REST false negatives (sound-oracle cases missed): {rest_fn['total']}"
    )
    for family, count in rest_fn["by_family"].items():
        lines.append(f"  {family}: {count}")
    if matrix["mispredictions"]:
        lines.append("")
        lines.append(f"ORACLE MISPREDICTIONS: {len(matrix['mispredictions'])}")
        for item in matrix["mispredictions"][:20]:
            lines.append(
                f"  {item['case_id']} [{item['defense']}] "
                f"expected {item['expected']}, got {item['actual']}"
            )
    else:
        lines.append("oracle mispredictions: none")
    return "\n".join(lines) + "\n"


# -- golden matrix for the hand-written Table III suite ---------------------


def handwritten_matrix(
    defenses: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Outcome of every registered hand-written attack × defense mode.

    This is the regression lock for the Table III suite: the committed
    golden (``results/attack_matrix_golden.json``) must equal this
    exactly, so no refactor can silently flip an outcome.
    """
    from repro.harness.experiment import attack_outcomes
    from repro.workloads.attacks import ATTACK_REGISTRY

    modes = list(defenses) if defenses else list(DEFENSE_MODES)
    rows = {mode: attack_outcomes(mode) for mode in modes}
    return {
        "schema": ATTACK_MATRIX_SCHEMA,
        "defenses": modes,
        "attacks": {
            name: {mode: rows[mode][name].value for mode in modes}
            for name in sorted(ATTACK_REGISTRY)
        },
    }


def render_attack_matrix_text(matrix: Dict[str, Any]) -> str:
    defenses = matrix["defenses"]
    name_width = max(len(name) for name in matrix["attacks"]) + 2
    lines = [
        "hand-written attack suite (Table III) outcome matrix",
        "",
        " " * name_width + "".join(f"{d:>12}" for d in defenses),
    ]
    for name, row in matrix["attacks"].items():
        lines.append(
            f"{name:<{name_width}}"
            + "".join(f"{row[d]:>12}" for d in defenses)
        )
    return "\n".join(lines) + "\n"
