"""``run.py compare PARENT CHANGE``: judge a change against its parent.

``PARENT`` and ``CHANGE`` are ``runs.jsonl`` files (or directories
holding one) written by ``run.py --out``, each with several untraced
runs per workload made with identical benchmark settings, ideally
alternating parent and change.  Every workload x end-to-end metric
gets one row and one verdict:

* ``improved`` — the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile range;
* ``unresolved`` — the parent's own spread (IQR over median) is wider
  than the metric's bound, so the runs cannot tell, and not every
  change run reads better than every parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes;
* ``unchanged`` — none of the above.

Runs pair up by seed when both sides used the same seeds, otherwise in
file order.  Exit status 1 when any row is worse or the change failed
more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from common import load_benchmark_json, median


def load_runs(path: str) -> Dict[str, List[Dict]]:
    """Untraced run records by workload, in file order."""
    source = Path(path)
    if source.is_dir():
        source = source / "runs.jsonl"
    runs: Dict[str, List[Dict]] = {}
    for line in source.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def pairs(parent: List[Dict], change: List[Dict]) -> List[Tuple[Dict, Dict]]:
    by_seed = {record["seed"]: record for record in change}
    if {record["seed"] for record in parent} == set(by_seed):
        return [(record, by_seed[record["seed"]]) for record in parent]
    return list(zip(parent, change))


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    parent: List[float],
    change: List[float],
    paired: List[Tuple[float, float]],
    lower_is_better: bool,
    bound: float,
) -> Tuple[str, int]:
    """(verdict, pairs the change won)."""

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    base = median(parent)
    q1, q3 = quartiles(parent)
    moved = median(change)
    wins = sum(1 for p, c in paired if better(c, p))
    if (
        paired
        and wins >= 0.9 * len(paired)
        and better(moved, base)
        and abs(moved - base) > q3 - q1
    ):
        return "improved", wins
    if (q3 - q1) / base > bound and not all(
        better(c, p) for c in change for p in parent
    ):
        return "unresolved", wins
    worse_by = (moved - base) / base if lower_is_better else (base - moved) / base
    if worse_by > bound:
        return "worse", wins
    return "unchanged", wins


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    metrics = load_benchmark_json()["end_to_end"]
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    status = 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        failed = [sum(r["failed"] for r in side) for side in (parent, change)]
        print(
            f"{workload}: parent {len(parent)} runs, {failed[0]} failed ops; "
            f"change {len(change)} runs, {failed[1]} failed ops"
        )
        if failed[1] > failed[0]:
            status = 1
        matched = pairs(parent, change)
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            p_values = [r["metrics"][name] for r in parent]
            c_values = [r["metrics"][name] for r in change]
            paired = [(p["metrics"][name], c["metrics"][name]) for p, c in matched]
            result, wins = verdict(
                p_values, c_values, paired, metric["better"] == "lower", metric["bound"]
            )
            if result == "worse":
                status = 1
            base = median(p_values)
            p1, p3 = quartiles(p_values)
            c1, c3 = quartiles(c_values)
            print(
                f"  {name:12s} parent {base:.6g} [{p1:.6g}, {p3:.6g}] "
                f"change {median(c_values):.6g} [{c1:.6g}, {c3:.6g}] "
                f"ratio {median(c_values) / base:.4f} of base {base:.6g} {unit} "
                f"wins {wins}/{len(paired)} bound {metric['bound']:.0%}: {result}"
            )
    return status
