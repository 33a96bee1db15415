"""``run.py pin``: rewrite ``expected.json`` from the current program.

Runs one pass of every workload, in both shapes, at the default seed
and stores the deterministic outputs the benchmark checks: per cell
micro-ops, cycles and stall buckets; per fast-tier cell its cycles and
divergence from the accurate tier; the sha256 of every ``run_all``
artifact; the digest of every service result.  Re-pin only when a
change alters results on purpose.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from common import DEFAULT_SEED, EXPECTED_JSON, Outcome, import_repro


def pin_shape(shape_name: str) -> Dict[str, Dict]:
    import cells
    import service
    import sweep

    section: Dict[str, Dict] = {}
    outcomes: List[Outcome] = []

    def run(name: str, shape: Dict, workload) -> Dict:
        outcome = Outcome()
        workload.run_pass(outcome)
        outcomes.append(outcome)
        entry = {"seed": DEFAULT_SEED, "shape": shape, **workload.pin()}
        section[name] = entry
        print(f"pinned {shape_name} {name}", flush=True)
        return entry

    shape = cells.SHAPES["accurate"][shape_name]
    run(
        "cells-accurate", shape,
        cells.CellsWorkload("accurate", shape, DEFAULT_SEED, None),
    )
    shape = cells.SHAPES["fast"][shape_name]
    fast = run(
        "cells-fast", shape, cells.CellsWorkload("fast", shape, DEFAULT_SEED, None)
    )
    reference = cells.CellsWorkload("accurate", shape, DEFAULT_SEED, None)
    outcome = Outcome()
    reference.run_pass(outcome)
    outcomes.append(outcome)
    for name, observed in fast["cells"].items():
        cycles = reference.observed[name]["cycles"]
        observed["accurate_cycles"] = cycles
        observed["divergence_pct"] = cells.divergence_pct(observed["cycles"], cycles)
    shape = sweep.SHAPES[shape_name]
    run("sweep", shape, sweep.SweepWorkload(shape, DEFAULT_SEED, None))
    shape = service.SHAPES[shape_name]
    run("service", shape, service.ServiceWorkload(shape, DEFAULT_SEED, None))
    failures = [failure for outcome in outcomes for failure in outcome.failures]
    if failures:
        raise SystemExit("invariant failed, not pinning:\n" + "\n".join(failures))
    return section


def main(argv: List[str]) -> int:
    if argv:
        print("usage: run.py pin", file=sys.stderr)
        return 2
    import_repro()
    expected = {name: pin_shape(name) for name in ("quick", "full")}
    EXPECTED_JSON.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_JSON}")
    return 0
