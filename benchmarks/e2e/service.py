"""``service``: sweep submissions against a coordinator and one worker.

Each pass stands up a fresh fleet — ``repro serve --coordinator`` plus
one ``repro worker`` with two slots, as subprocesses — and a closed
loop of two client threads sends a seeded stream of ``sweep``
submissions over a pool of (benchmark, seed) cells.  About 70% of the
submissions ask for a cell not simulated yet; the rest hit the cache
or attach to a running execution, so cache writes sit beside reads.
The median submission is therefore a miss, which the engine
dispatches, runs in a supervised worker process, caches and reports.
A hit takes about 2 ms here, and its median moved by 20% between
identical runs even on an idle fleet, so hits do not set a metric
with a bound; they show in the per-layer numbers.  A submission's
latency runs from ``submit`` until the ``done`` frame the daemon
pushes on ``watch``: no polling interval is measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from common import WORK, HostSampler, Op, Outcome, child_env

SHAPES = {
    "full": {
        "submissions": 150,
        "benchmarks": [
            "bzip2", "gobmk", "gcc", "libquantum", "astar", "h264ref",
            "lbm", "namd", "sjeng", "soplex", "xalancbmk", "hmmer",
        ],
        "cell_seeds": 16,
        "scale": 0.05,
        "clients": 2,
        "slots": 2,
        "direct_samples": 4,
    },
    "quick": {
        "submissions": 20,
        "benchmarks": ["lbm", "sjeng"],
        "cell_seeds": 8,
        "scale": 0.02,
        "clients": 2,
        "slots": 2,
        "direct_samples": 2,
    },
}

#: The one defense spec every submission sweeps (plus the implicit
#: Plain baseline each sweep cell carries).
SPEC = "Secure Heap"

#: Longest the fleet may take to start, or a submission to finish.
FLEET_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0


def submissions(shape: Dict, seed: int) -> List[Dict]:
    """The seeded submission stream: same seed, same stream.

    Each submission sweeps one benchmark over one or two seeds of the
    cell pool, at a weighted priority, so submissions overlap heavily.
    """
    rng = random.Random(seed)
    pool = list(range(1, shape["cell_seeds"] + 1))
    stream = []
    for _ in range(shape["submissions"]):
        bench = rng.choice(shape["benchmarks"])
        width = rng.choice((1, 1, 1, 2))
        stream.append(
            {
                "params": {
                    "benchmarks": [bench],
                    "specs": [SPEC],
                    "seeds": sorted(rng.sample(pool, width)),
                    "scale": shape["scale"],
                    "live": False,
                },
                "priority": rng.choices(("high", "normal", "low"), (1, 6, 2))[0],
            }
        )
    return stream


class Fleet:
    """A coordinator and one worker, as the operator would run them."""

    def __init__(self, state_dir: Path, slots: int) -> None:
        self.state_dir = state_dir
        self.slots = slots
        socket_path = state_dir / "d.sock"
        # AF_UNIX paths are capped near 108 bytes; a relative path from
        # the working directory (which every fleet process shares) is
        # short wherever the checkout lives.
        self.socket = (
            str(socket_path)
            if len(str(socket_path)) < 100
            else os.path.relpath(socket_path)
        )
        self.processes: List[subprocess.Popen] = []

    def _spawn(self, args: List[str], log: str) -> None:
        with (self.state_dir / log).open("ab") as handle:
            self.processes.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", *args],
                    env=child_env(),
                    stdout=handle,
                    stderr=subprocess.STDOUT,
                )
            )

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(socket_path=self.socket, timeout=JOB_TIMEOUT_S)

    def start(self) -> None:
        """Start the fleet; returns once it has reached capacity."""
        from repro.service.client import ServiceError

        deadline = time.perf_counter() + FLEET_TIMEOUT_S
        self._spawn(
            ["serve", "--coordinator", "--state-dir", str(self.state_dir),
             "--socket", self.socket, "--heartbeat", "0.5"],
            "coordinator.log",
        )
        self._spawn(
            ["worker", "--connect", self.socket, "--name", "w0",
             "--slots", str(self.slots)],
            "worker.log",
        )
        while time.perf_counter() < deadline:
            try:
                with self.client() as client:
                    if client.workers()["fabric"]["capacity"] >= self.slots:
                        return
            except (OSError, ServiceError):
                pass
            if any(process.poll() is not None for process in self.processes):
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"fleet did not reach {self.slots} slots; logs in {self.state_dir}"
        )

    def stats(self) -> Dict:
        with self.client() as client:
            return client.ping()["stats"]

    def stop(self) -> None:
        """Drain the fleet and wait for every process to end."""
        from repro.service.client import ServiceError

        worker = self.processes[1:]
        for process in worker:
            if process.poll() is None:
                process.terminate()
        try:
            with self.client() as client:
                client.shutdown()
        except (OSError, ServiceError):
            pass
        for process in self.processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


class ServiceWorkload:
    setup_role = None  # set-up is the fleet start, timed in every pass

    def __init__(self, shape: Dict, seed: int, pins: Optional[Dict]):
        self.shape = shape
        self.seed = seed
        self.pins = pins
        self.stream = submissions(shape, seed)
        self.passes = 0
        #: digest of every submission's result, latest pass
        self.digest = ""
        self.results: List[Dict] = []
        #: per-submission timing records of the latest pass
        self.records: List[Dict] = []
        self.counters: Dict[str, float] = {}

    def run_pass(self, outcome: Outcome, rec=None) -> None:
        self.passes += 1
        state_dir = WORK / "service" / f"fleet-{self.passes}"
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        fleet = Fleet(state_dir, self.shape["slots"])
        records: List[Dict] = [{} for _ in self.stream]
        try:
            with HostSampler() as sampler:
                t0 = time.perf_counter()
                fleet.start()
                seconds = time.perf_counter() - t0
            outcome.setup.append(Op("fleet-start", seconds, sampler.probe()))
            with HostSampler() as sampler:
                t0 = time.perf_counter()
                self._drive(fleet, rec, records)
                seconds = time.perf_counter() - t0
            probe = sampler.probe()
            outcome.busy.append(Op("submissions", seconds, probe))
            stats = fleet.stats()
        finally:
            fleet.stop()
        ops = []
        for index, record in enumerate(records):
            op = Op(f"submission-{index}", record.get("latency", 0.0), probe)
            ops.append(op)
            if "error" in record:
                outcome.fail(op, record["error"])
            elif record["state"] != "done":
                outcome.fail(op, f"job ended {record['state']}")
        outcome.ops.extend(ops)
        self.records = [r for r in records if "error" not in r]
        self.results = [r.get("result") for r in records]
        self.digest = hashlib.sha256(
            json.dumps(self.results, sort_keys=True).encode()
        ).hexdigest()
        if self.pins is not None and self.digest != self.pins["digest"]:
            outcome.fail(ops[0], "result digest differs from expected.json")
        cache = stats.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        self.counters = {
            "service.executions": stats["executions"],
            "service.dedup_hits": stats["dedup_hits"],
            "service.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
            "service.rejections": sum(1 for r in records if "rejected" in r),
            "service.fleet_start_s": outcome.setup[-1].seconds,
            "harness.cache_hits": cache.get("hits", 0),
            "harness.cache_misses": cache.get("misses", 0),
        }
        if self.passes == 1:
            self._check_direct(outcome, ops)

    def _drive(self, fleet: Fleet, rec, records: List[Dict]) -> None:
        """Send the stream from the client threads, one record each."""
        clients = self.shape["clients"]
        indices = range(len(self.stream))
        threads = [
            threading.Thread(
                target=self._client,
                args=(fleet, rec, records, indices[offset::clients]),
            )
            for offset in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _client(self, fleet: Fleet, rec, records: List[Dict], indices: range) -> None:
        """One closed-loop client: next submission after the last is done."""
        from repro.service.client import ServiceError

        profiled = rec.profiled() if rec is not None else nullcontext()
        try:
            with profiled, fleet.client() as client:
                for index in indices:
                    try:
                        records[index] = self._submit(client, index, rec)
                    except ServiceError as error:
                        if error.code != "queue_full":
                            raise
                        records[index] = {"error": str(error), "rejected": True}
        except Exception as error:  # noqa: BLE001 — reported as failed ops
            message = "".join(traceback.format_exception_only(type(error), error))
            for index in indices:
                if not records[index]:
                    records[index] = {"error": message.strip()}

    def _submit(self, client, index: int, rec) -> Dict:
        submission = self.stream[index]

        def span(name):
            return nullcontext({}) if rec is None else rec.span(name, f"s{index}")

        t0 = time.perf_counter()
        with span("service.submission"):
            with span("service.submit"):
                job = client.submit(
                    "sweep", submission["params"], priority=submission["priority"]
                )
            accepted = time.perf_counter()
            with span("service.watch"):
                for _frame in client.watch(job["id"]):
                    pass
        latency = time.perf_counter() - t0
        done_at = time.time()
        final = client.status(job["id"])
        return {
            "latency": latency,
            "submitted": t0,
            "accepted": accepted,
            "done_at": done_at,
            "created": final["created"],
            "started": final["started"],
            "finished": final["finished"],
            "state": final["state"],
            "result": final.get("result"),
        }

    def _check_direct(self, outcome: Outcome, ops: List[Op]) -> None:
        """Sampled submissions must equal a direct in-process sweep."""
        from repro.harness.configs import figure7_specs
        from repro.harness.sweeps import seed_sweep
        from repro.workloads.spec import profile_by_name

        specs = {spec.name: spec for spec in figure7_specs()}
        rng = random.Random(self.seed + 1)
        for index in rng.sample(range(len(self.stream)), self.shape["direct_samples"]):
            params = self.stream[index]["params"]
            stats = seed_sweep(
                [profile_by_name(name) for name in params["benchmarks"]],
                [specs[name] for name in params["specs"]],
                params["seeds"],
                scale=params["scale"],
            )
            direct = {
                name: {
                    "mean": result.mean,
                    "stdev": result.stdev,
                    "spread": result.spread,
                    "samples": result.samples,
                }
                for name, result in stats.items()
            }
            served = (self.results[index] or {}).get("specs")
            if served != direct:
                outcome.fail(ops[index], "service result differs from a direct sweep")

    def pin(self) -> Dict:
        return {"digest": self.digest}

    def traced_values(self) -> Dict[str, float]:
        from spans import service_metrics

        return service_metrics(self.records, **self.counters)
