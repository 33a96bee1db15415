#!/usr/bin/env python
"""CI smoke test for the simulation job service.

Boots a real daemon as a subprocess, runs the same scaled-down
``run_all`` three ways — directly (no service), and from two concurrent
service clients — and asserts the service's core contracts:

* **Identity**: every service job passes ``check_identity`` against the
  direct run, the verdict every chaos proof uses: each experiment
  record equals the direct run's after ``strip_volatile``, every
  artifact is byte-identical, and nothing is quarantined.
* **Single-flight dedup**: the two concurrent jobs together execute
  each unique unit exactly once (`executions == unique units`); the
  loser of each race attaches as `shared`/`cached`.
* **Warm cache**: a third submission after completion executes nothing.
* **Live progress**: a ``live`` sweep job's ``watch`` stream carries at
  least one sampler ``sample`` event before its ``done`` frame.
* **Clean shutdown**: the daemon drains on `shutdown` and exits 0.

Exit code 0 is the pass signal; the daemon log and the daemon's own
output (``daemon.out``) are left in the state dir for artifact upload.
"""

import argparse
import subprocess
import sys
import threading
from pathlib import Path

from repro.experiments.run_all import run_all
from repro.faults.chaos import check_identity
from repro.service import ServiceClient, wait_for_daemon


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state-dir", default="/tmp/service-smoke")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument(
        "--names", nargs="+", default=["table1", "table2"]
    )
    args = parser.parse_args(argv)

    state = Path(args.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    socket_path = str(state / "daemon.sock")

    direct = state / "direct-run"
    run_all(
        str(direct), scale=args.scale, seed=args.seed, jobs=1,
        use_cache=False, quiet=True, names=list(args.names),
    )

    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state), "--slots", "2"],
        stdout=(state / "daemon.out").open("wb"),
        stderr=subprocess.STDOUT,
    )
    try:
        wait_for_daemon(socket_path=socket_path, timeout=30)
        params = {
            "names": list(args.names),
            "scale": args.scale,
            "seed": args.seed,
        }

        finals = [None, None]
        errors = []

        def submit_and_wait(slot):
            try:
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit(
                        "run_all",
                        {**params, "outdir": str(state / f"client-{slot}")},
                    )
                    finals[slot] = client.wait(job["id"])
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        threads = [
            threading.Thread(target=submit_and_wait, args=(slot,))
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        check(not errors, f"both clients completed without error {errors}")
        check(
            all(final and final["state"] == "done" for final in finals),
            "both concurrent jobs reached state=done",
        )

        unique_units = finals[0]["units"]["total"]
        for slot, final in enumerate(finals):
            _, mismatches, problems = check_identity(
                direct, Path(final["outdir"]), []
            )
            check(
                not mismatches and not problems,
                f"client-{slot} identical to direct {mismatches + problems}",
            )

        executed = sum(final["executed"] for final in finals)
        deduped = sum(final["dedup_hits"] for final in finals)
        cached = sum(
            final["units"].get("cached", 0) for final in finals
        )
        check(
            executed == unique_units,
            f"one execution per unique unit ({executed}/{unique_units}, "
            f"{deduped} shared in-flight, {cached} from cache)",
        )
        check(
            deduped + cached == unique_units,
            "second client fully served by dedup + cache",
        )

        with ServiceClient(socket_path=socket_path) as client:
            stats = client.ping()["stats"]
            check(
                stats["executions"] == unique_units,
                f"daemon-wide executions counter is {unique_units}",
            )
            third = client.submit(
                "run_all", {**params, "outdir": str(state / "client-2")}
            )
            final3 = client.wait(third["id"])
            check(
                final3["state"] == "done" and final3["executed"] == 0,
                "warm resubmission executed nothing",
            )
            live = client.submit(
                "sweep",
                {"benchmarks": ["bzip2"], "specs": ["Secure Heap"],
                 "seeds": [args.seed], "scale": 0.05, "live": True,
                 "sample_interval": 500},
            )
            samples = 0
            for frame in client.watch(live["id"]):
                if frame.get("type") == "done":
                    break
                samples += frame.get("kind") == "sample"
            check(
                samples >= 1,
                f"live sweep streamed {samples} sample event(s) before done",
            )
            client.shutdown()
        daemon.wait(timeout=60)
        check(daemon.returncode == 0, "daemon drained and exited 0")
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
    print("service smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
