"""Fresh-process entry points of the benchmark.

``python child.py setup <cells|sweep> <full|quick> SEED``
    Do what a fresh process does before its first operation, print
    ``ready`` and exit; the parent times spawn-to-ready as ``setup_s``.

``python child.py sweep-run OUTDIR CACHE SCALE SEED JOBS NAMES [TRACE TAG]``
    One ``run_all`` over the comma-separated experiments ``NAMES``.
    Exits 1 unless every experiment is ok.  With ``TRACE``, the layers
    are traced and profiled and what was recorded is written there as
    JSON (span ids prefixed with ``TAG``).

Both end by printing a host probe taken in this process
(:func:`common.probe_line`).

``python child.py sample``
    Print the CPU time of one probe loop every 50 ms until killed
    (:class:`common.HostSampler`).
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext

from common import PROBE_LOOP, SetupError, import_repro, probe_line


def setup(role: str, shape_name: str, seed: int) -> None:
    if role == "cells":
        import cells

        cells.prepare(cells.SHAPES["accurate"][shape_name], seed)
    elif role == "sweep":
        import sweep

        sweep.prepare(sweep.SHAPES[shape_name]["experiments"])
    else:
        raise SystemExit(f"unknown set-up role {role!r}")
    print("ready", flush=True)
    print(probe_line())


def sweep_run(argv) -> int:
    outdir, cache, scale, seed, jobs, names = argv[:6]
    from repro.experiments.run_all import run_all

    rec = None
    profiled = nullcontext()
    if len(argv) > 6:
        from spans import Recorder

        rec = Recorder(tag=argv[7])
        rec.install()
        profiled = rec.profiled()
    try:
        with profiled:
            out = run_all(
                outdir, scale=float(scale), seed=int(seed), jobs=int(jobs),
                cache_dir=cache, quiet=True, names=names.split(","),
            )
    finally:
        if rec is not None:
            rec.uninstall()
    if rec is not None:
        with open(argv[6], "w") as handle:
            json.dump(rec.to_dict(), handle)
    manifest = json.loads((out / "manifest.json").read_text())
    bad = [
        name
        for name, record in manifest["experiments"].items()
        if record["status"] != "ok"
    ]
    if bad:
        print(f"experiments failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(probe_line())
    return 0


def sample() -> None:
    """Print the CPU seconds of one probe loop every 50 ms, until killed."""
    while True:
        t0 = time.process_time()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        print(repr(time.process_time() - t0), flush=True)
        time.sleep(0.05)


def main(argv) -> int:
    try:
        import_repro()
    except SetupError as error:
        print(error, file=sys.stderr)
        return 2
    if argv[0] == "setup":
        setup(argv[1], argv[2], int(argv[3]))
        return 0
    if argv[0] == "sweep-run":
        return sweep_run(argv[1:])
    if argv[0] == "sample":
        sample()  # until killed
        return 0
    print(f"unknown child command {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
