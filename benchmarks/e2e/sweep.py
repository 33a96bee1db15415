"""``sweep``: ``run_all`` as users regenerate the paper's figures.

One pass is one cold ``run_all`` (fresh process, fresh cache
directory) followed by warm re-runs (each a fresh process against the
filled cache), so a quarter of the operations are cold: the median
operation is a warm re-run and the 90th percentile a cold one.  Cold
runs execute every experiment and write the cache; warm runs only read
it, and their time is almost all import plus the code-version salt.
Experiments share traces (fig7, fig8, intext and stalls rebuild the
same cells), so trace or result sharing shows here and not in the
cells workloads, where every cell is distinct.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from common import HERE, WORK, HostSampler, Op, Outcome, run_child

SHAPES = {
    "full": {
        "experiments": [
            "table1", "table2", "table3", "fig7",
            "fig8", "intext", "security", "stalls",
        ],
        "scale": 0.05,
        "jobs": 2,
        "warm_runs": 3,
    },
    "quick": {
        "experiments": ["table1", "table2", "stalls"],
        "scale": 0.02,
        "jobs": 2,
        "warm_runs": 1,
    },
}

#: Longest one ``run_all`` may take before the benchmark gives up.
RUN_TIMEOUT_S = 150.0


def prepare(experiments: List[str]) -> None:
    """A sweep process's set-up: import the experiments, compute the salt."""
    import importlib

    from repro.experiments.run_all import experiment_units
    from repro.harness.parallel import code_version_salt

    for unit in experiment_units(1.0, 0, names=experiments):
        importlib.import_module(unit.module)
    code_version_salt()


def artifacts(outdir: Path) -> Dict[str, str]:
    """sha256 of every artifact ``run_all`` wrote, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


class SweepWorkload:
    setup_role = "sweep"

    def __init__(self, shape: Dict, seed: int, pins: Optional[Dict]):
        self.shape = shape
        self.seed = seed
        self.pins = pins
        self.passes = 0
        self.observed: Dict[str, str] = {}
        #: manifest of the latest cold run
        self.cold_manifest: Dict = {}

    def run_pass(self, outcome: Outcome, rec=None) -> None:
        from repro.harness.regression import manifests_equal

        self.passes += 1
        pass_dir = WORK / "sweep" / f"pass-{self.passes}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        cache = pass_dir / "cache"
        # Traced runs stay in one process so every span is recorded.
        jobs = 1 if rec is not None else self.shape["jobs"]
        kinds = ["cold"] + ["warm"] * self.shape["warm_runs"]
        cold_dir = None
        for index, kind in enumerate(kinds):
            outdir = pass_dir / f"{index}-{kind}"
            args = [
                str(HERE / "child.py"), "sweep-run", str(outdir), str(cache),
                str(self.shape["scale"]), str(self.seed), str(jobs),
                ",".join(self.shape["experiments"]),
            ]
            span = nullcontext({})
            if rec is not None:
                trace_file = pass_dir / f"{index}-trace.json"
                args += [str(trace_file), f"run{index}"]
                span = rec.span("sweep.run", f"run{index}-{kind}")
            # A cold run's worker processes share the host with each
            # other; a warm run is one process, which probes itself.
            sampler = HostSampler() if kind == "cold" else nullcontext()
            with span as run_span, sampler:
                op = outcome.add(run_child(f"run_all-{kind}", args, RUN_TIMEOUT_S))
            if kind == "cold":
                op.probe_s = sampler.probe()
            if rec is not None:
                child = json.loads(trace_file.read_text())
                for child_span in child["spans"]:
                    if child_span["parent"] is None:
                        child_span["parent"] = run_span["id"]
                    child_span["request"] = run_span["request"]
                rec.absorb(child)
            if kind == "cold":
                cold_dir = outdir
                self.cold_manifest = json.loads(
                    (outdir / "manifest.json").read_text()
                )
                self.observed = artifacts(outdir)
                self._check_pins(op, outcome)
            else:
                if not manifests_equal(
                    cold_dir / "manifest.json", outdir / "manifest.json"
                ):
                    outcome.fail(op, "warm manifest differs from the cold one")
                if artifacts(outdir) != self.observed:
                    outcome.fail(op, "warm artifacts differ from the cold ones")

    def _check_pins(self, op: Op, outcome: Outcome) -> None:
        if self.pins is None:
            return
        if self.observed != self.pins["artifacts"]:
            wrong = sorted(
                name
                for name in set(self.observed) | set(self.pins["artifacts"])
                if self.observed.get(name) != self.pins["artifacts"].get(name)
            )
            outcome.fail(op, f"artifacts differ from expected.json: {', '.join(wrong)}")

    def pin(self) -> Dict:
        return {"artifacts": self.observed}

    def engine_values(self) -> Dict[str, float]:
        """Engine efficiency of the latest cold run (a parallel one when
        called after an untraced pass)."""
        manifest = self.cold_manifest
        unit_wall = manifest["units_timing"]["wall_seconds"]
        return {
            "harness.unit_wall_sum_s": unit_wall,
            "harness.parallel_efficiency": unit_wall
            / (manifest["jobs"] * manifest["wall_seconds"]),
        }
