"""End-to-end host-time benchmark of the REST reproduction.

Run every workload untraced, print each end-to-end metric as
``name value unit (n=samples)`` and check the outputs are correct::

    python benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--traced | --trace 1] [--quick] [--out DIR]

One workload per process: several ``--workload`` names (or none, for
all four) run one after another, each in a fresh process.  The last
line a workload prints is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--traced``.  The
exit status is 0 when every output checked out, 1 when one did not, 2
when the benchmark could not run at all.

``--traced`` runs one untraced pass and then one traced pass, and
writes ``<out>/<workload>/layers.json`` and ``spans.jsonl``.
``--out DIR`` also appends each result to ``DIR/runs.jsonl``, the
input of::

    python benchmarks/e2e/run.py compare PARENT CHANGE

which judges a change against its parent, workload by workload and
metric by metric.  ``python benchmarks/e2e/run.py pin`` rewrites
``expected.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    DEFAULT_SEED,
    EXPECTED_JSON,
    HERE,
    REFERENCE_PROBE_S,
    WORK,
    Outcome,
    SetupError,
    host_info,
    host_probe,
    import_repro,
    load_benchmark_json,
    load_expected,
    median,
    normalized,
    peak_rss_mb,
    percentile,
    time_to_ready,
)

WORKLOADS = ("cells-accurate", "cells-fast", "sweep", "service")

#: Fresh processes timed per run for ``setup_s`` (the service times
#: one fleet start per pass instead).
SETUP_REPEATS = 3


def shapes(workload: str) -> Dict[str, Dict]:
    import cells
    import service
    import sweep

    return {
        "cells-accurate": cells.SHAPES["accurate"],
        "cells-fast": cells.SHAPES["fast"],
        "sweep": sweep.SHAPES,
        "service": service.SHAPES,
    }[workload]


def pins_for(expected: Dict, shape_name: str, workload: str, seed: int) -> Optional[Dict]:
    """The outputs ``expected.json`` pins for this run, if it pins any."""
    entry = expected.get(shape_name, {}).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    if entry["shape"] != shapes(workload)[shape_name]:
        raise SetupError(
            f"expected.json pins {workload} for another shape; "
            "re-pin with `run.py pin`"
        )
    return entry


def make_workload(workload: str, shape_name: str, seed: int, pins: Optional[Dict]):
    import cells
    import service
    import sweep

    shape = shapes(workload)[shape_name]
    if workload == "cells-accurate":
        return cells.CellsWorkload("accurate", shape, seed, pins)
    if workload == "cells-fast":
        return cells.CellsWorkload("fast", shape, seed, pins)
    if workload == "sweep":
        return sweep.SweepWorkload(shape, seed, pins)
    return service.ServiceWorkload(shape, seed, pins)


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference host."""
    latencies = [normalized(op) for op in outcome.ops if op.ok]
    if not latencies:
        raise SetupError("no operation succeeded")
    return {
        "ops_per_s": len(latencies) / sum(normalized(op) for op in outcome.busy),
        "op_p50_ms": 1000.0 * median(latencies),
        "op_p90_ms": 1000.0 * percentile(latencies, 0.9),
        "setup_s": median([normalized(op) for op in outcome.setup]),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure(args) -> Dict:
    """Run one workload in this process; returns its result record."""
    import_repro()
    shape_name = "quick" if args.quick else "full"
    workload_name = args.workload[0]
    expected = load_expected(args.expected)
    pins = pins_for(expected, shape_name, workload_name, args.seed)
    workload = make_workload(workload_name, shape_name, args.seed, pins)
    outcome = Outcome()
    if workload.setup_role is not None:
        for _ in range(SETUP_REPEATS):
            outcome.setup.append(
                time_to_ready(
                    [str(HERE / "child.py"), "setup", workload.setup_role,
                     shape_name, str(args.seed)]
                )
            )

    started = time.perf_counter()
    while True:
        outcome.probes.append(host_probe())
        t0 = time.perf_counter()
        workload.run_pass(outcome)
        outcome.pass_s.append(time.perf_counter() - t0)
        if args.trace or time.perf_counter() - started >= args.seconds:
            break

    record = {
        "workload": workload_name,
        "seed": args.seed,
        "trace": args.trace,
        "shape": shape_name,
        "passes": len(outcome.pass_s),
        "pinned": pins is not None,
    }
    if args.trace:
        metrics = traced_pass(workload_name, workload, outcome, args)
    else:
        metrics = end_to_end(outcome)
    ok = [op for op in outcome.ops if op.ok]
    record.update(
        correct=len(ok) == len(outcome.ops),
        attempted=len(outcome.ops),
        failed=len(outcome.ops) - len(ok),
        metrics=metrics,
        samples={"ops": len(ok), "setup": len(outcome.setup)},
        probes_s=outcome.probes,
        raw_ms={
            "op_p50_ms": 1000.0 * median([op.seconds for op in ok]),
            "op_p90_ms": 1000.0 * percentile([op.seconds for op in ok], 0.9),
        },
        failures=outcome.failures,
        host=host_info(),
    )
    return record


def traced_pass(name: str, workload, outcome: Outcome, args) -> Dict[str, float]:
    """One traced, profiled pass after the untraced one; per-layer metrics."""
    from spans import Recorder, layer_metrics, write_trace

    untraced_s = outcome.pass_s[-1]
    values: Dict[str, float] = {}
    if name == "sweep":
        values.update(workload.engine_values())
    untraced_cold = dict(getattr(workload, "cold_s", {}))

    rec = Recorder()
    rec.install()
    try:
        outcome.probes.append(host_probe())
        t0 = time.perf_counter()
        workload.run_pass(outcome, rec)
        traced_s = time.perf_counter() - t0
    finally:
        rec.uninstall()

    if name == "cells-fast":
        values.update(workload.traced_values(untraced_cold))
    elif name == "service":
        values.update(workload.traced_values())
    values["bench.tracing_overhead"] = traced_s / untraced_s
    values["bench.host_probe_s"] = median(outcome.probes)
    rec.values.update(values)
    metrics = layer_metrics(rec)
    out = Path(args.out) if args.out else WORK / "out"
    write_trace(
        out / name,
        name,
        rec,
        metrics,
        {"seed": args.seed, "untraced_pass_s": untraced_s, "traced_pass_s": traced_s},
    )
    return metrics


def emit(record: Dict, spec: Dict) -> None:
    """Print every metric, the diagnostics, then the one-line JSON."""
    section = "per_layer" if record["trace"] else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    missing = sorted(set(units) - set(record["metrics"]))
    extra = sorted(set(record["metrics"]) - set(units))
    if missing or extra:
        raise SetupError(
            f"{record['workload']}: metrics do not match BENCHMARK.json "
            f"(missing {missing}, unexpected {extra})"
        )
    for name, unit in units.items():
        n = "traced pass" if record["trace"] else (
            f"n={record['samples']['setup' if name == 'setup_s' else 'ops']}"
        )
        print(f"{name} {record['metrics'][name]!r} {unit} ({n})")
    for name, value in record["raw_ms"].items():
        print(f"raw_{name} {value!r} ms (unscaled)")
    probes = record["probes_s"]
    print(
        f"host_probe_s {median(probes)!r} s (n={len(probes)}, min {min(probes):.4f}, "
        f"max {max(probes):.4f}, reference {REFERENCE_PROBE_S})"
    )
    for key, value in record["host"].items():
        print(f"{key} {value}")
    print(
        f"workload {record['workload']} seed {record['seed']} "
        f"shape {record['shape']} passes {record['passes']} "
        f"outputs {'pinned' if record['pinned'] else 'invariants only'}"
    )
    for failure in record["failures"]:
        print(f"CHECK FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", "--workloads", nargs="+", choices=WORKLOADS,
        default=list(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measure at least this long (default: BENCHMARK.json "
             "run_seconds; one pass with --quick)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small shapes of every workload (for tests)",
    )
    parser.add_argument("--out", default=None, help="results directory")
    parser.add_argument(
        "--expected", default=str(EXPECTED_JSON),
        help="pinned outputs to check against",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else load_benchmark_json()["run_seconds"]
    return args


def run_each(args) -> int:
    """Several workloads: each in a fresh process of this script."""
    status = 0
    for name in args.workload:
        child = [sys.executable, str(Path(__file__).resolve())]
        child += ["--workload", name, "--seed", str(args.seed)]
        child += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child += ["--expected", args.expected]
        if args.quick:
            child.append("--quick")
        if args.out:
            child += ["--out", args.out]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.call(child))
    return status


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if argv and argv[0] == "pin":
        import pin

        return pin.main(argv[1:])
    args = parse(argv)
    if len(args.workload) > 1:
        return run_each(args)
    try:
        spec = load_benchmark_json()
        record = measure(args)
        emit(record, spec)
    except SetupError as error:
        print(f"cannot run the benchmark: {error}", file=sys.stderr)
        return 2
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "runs.jsonl").open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
