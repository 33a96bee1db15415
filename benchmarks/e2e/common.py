"""Plumbing shared by the end-to-end benchmark's workloads.

Locates the checkout the benchmark lives in, imports the program from
that checkout's ``src/`` (never from an installed copy), builds the
environment child processes run under, and holds the small statistics
and host diagnostics every workload reports.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for caches, fleets and sweep outputs; inside the
#: checkout so the benchmark touches nothing outside it.
WORK = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

#: Default workload seed (the one ``expected.json`` pins outputs for).
DEFAULT_SEED = 1234


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no ``src/repro``)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/``; raise SetupError."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program to benchmark: {package} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SetupError(
            f"imported repro from {repro.__file__}, not from {package}"
        )
    return repro


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The program comes from this checkout, temporary files stay inside
    it, and knobs that would change what is measured (a pinned cache
    salt, an injected fault plan) are removed.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    for knob in ("REPRO_CACHE_SALT", "REPRO_FAULT_PLAN", "REPRO_SELFTEST_BOOM"):
        env.pop(knob, None)
    return env


def python_child(args: List[str], **popen) -> subprocess.Popen:
    """Start ``python <args>`` under :func:`child_env`."""
    return subprocess.Popen(
        [sys.executable, *args], env=child_env(), **popen
    )


# ------------------------------------------------------------ statistics


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: List[float]) -> float:
    return percentile(values, 0.5)


# -------------------------------------------------------- host diagnostics


#: What :func:`host_probe` takes on the host the benchmark was written
#: on when nothing else contends for it; times are reported scaled to
#: this speed (see :func:`normalized`).
REFERENCE_PROBE_S = 0.0025

#: Iterations of the probe loop.
PROBE_LOOP = 40_000


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes: host speed right now.

    The median of five short runs, so one interrupt does not count.
    """
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        runs.append(time.perf_counter() - t0)
    return median(runs)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def host_info() -> Dict[str, str]:
    """nproc, Python version and the commit (or source digest) measured."""
    info = {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        info["commit"] = commit.stdout.strip() if commit.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = "none"
    from repro.harness.parallel import code_version_salt

    info["source_digest"] = code_version_salt()
    return info


# ------------------------------------------------------------- results


@dataclass
class Op:
    """One timed operation: a cell, a ``run_all`` run or a submission."""

    name: str
    seconds: float = 0.0
    #: probe loop seconds while the operation ran (see normalized)
    probe_s: Optional[float] = None
    ok: bool = True


def normalized(op: Op) -> float:
    """An operation's seconds at the reference host speed.

    The host this benchmark was written on runs a process at one of two
    speeds about 1.4x apart, switching every few seconds (other
    tenants), so raw times of identical runs spread by 10-35%.  Each
    operation is therefore scaled by the probe loop's time measured
    while it ran: in its own process when one process does the work
    (around a cell, or at the end of a warm ``run_all``), and by
    :class:`HostSampler` when several do (a cold ``run_all``, the
    service).  That cut the run-to-run spread of the metrics to 2-8%.
    The program never runs inside a probe, so a change to the program
    moves the scaled time exactly as it moves the raw time.
    """
    if op.probe_s is None:
        return op.seconds
    return op.seconds * REFERENCE_PROBE_S / op.probe_s


@dataclass
class Outcome:
    """What running a workload produced, before it becomes metrics."""

    ops: List[Op] = field(default_factory=list)
    #: intervals the operations kept the system busy: the operations
    #: themselves for one client, the whole stream for concurrent ones
    busy: List[Op] = field(default_factory=list)
    setup: List[Op] = field(default_factory=list)
    #: host probe before each pass (a diagnostic of host drift)
    probes: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: raw wall seconds of each whole pass (for the tracing overhead)
    pass_s: List[float] = field(default_factory=list)

    def add(self, op: Op) -> Op:
        """Record an operation that kept the system busy on its own."""
        self.ops.append(op)
        self.busy.append(op)
        return op

    @contextmanager
    def timed(self, name: str):
        """Time one in-process operation, bracketed by host probes.

        Nothing is recorded if the body raises.
        """
        op = Op(name)
        before = host_probe()
        t0 = time.perf_counter()
        yield op
        op.seconds = time.perf_counter() - t0
        op.probe_s = (before + host_probe()) / 2
        self.add(op)

    def fail(self, op: Op, message: str) -> None:
        """Record a failed check; it fails the operation it concerns."""
        self.failures.append(f"{op.name}: {message}")
        op.ok = False


# ------------------------------------------------------- child processes


def probe_line() -> str:
    """What a child prints after its operation: a host probe taken in
    the process that did the work, and the seconds the probe took."""
    t0 = time.perf_counter()
    probe = host_probe()
    return f"probe {probe!r} {time.perf_counter() - t0!r}"


def _probe(output: bytes) -> Tuple[float, float]:
    """(probe, seconds it took) from a child's last line, :func:`probe_line`."""
    fields = output.split()[-3:]
    if len(fields) != 3 or fields[0] != b"probe":
        raise RuntimeError(f"child printed no probe: {output[-2000:]!r}")
    return float(fields[1]), float(fields[2])


def run_child(name: str, args: List[str], timeout: float) -> Op:
    """Run ``python <args>``, which ends by printing :func:`probe_line`.

    The Op's seconds are the child's wall time minus its probe.  Raises
    ``RuntimeError`` with the child's output if it fails.
    """
    t0 = time.perf_counter()
    process = python_child(
        args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError(f"child {name} exceeded {timeout}s")
    elapsed = time.perf_counter() - t0
    if process.returncode != 0:
        raise RuntimeError(
            f"child {name} exited {process.returncode}:\n"
            + output.decode(errors="replace")[-2000:]
        )
    probe, spent = _probe(output)
    return Op(name, elapsed - spent, probe_s=probe)


def time_to_ready(args: List[str], timeout: float = 60.0) -> Op:
    """Time from spawning ``python <args>`` until it prints ``ready``.

    That is the set-up a fresh process pays before its first operation;
    the child then prints :func:`probe_line` and exits.
    """
    t0 = time.perf_counter()
    process = python_child(
        args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(
            f"set-up child failed ({process.returncode}): "
            + (line + rest).decode(errors="replace")[-2000:]
        )
    return Op("setup", elapsed, probe_s=_probe(rest)[0])


class HostSampler:
    """Host speed while several processes share an operation.

    A probe in one process does not track processes on other CPUs, so
    a separate process times one probe loop (CPU time, so its own
    preemption does not count) every 50 ms, about 5% of one CPU, for as
    long as the ``with`` block runs.  :meth:`probe` is the median.
    """

    def __enter__(self) -> "HostSampler":
        self.samples: List[float] = []
        self.process = python_child(
            [str(HERE / "child.py"), "sample"], stdout=subprocess.PIPE
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        return self

    def _read(self) -> None:
        for line in self.process.stdout:
            self.samples.append(float(line))

    def __exit__(self, *exc) -> None:
        self.process.kill()
        self.process.wait()
        self.reader.join(timeout=10)
        self.process.stdout.close()

    def probe(self) -> Optional[float]:
        return median(self.samples) if self.samples else None


def load_benchmark_json() -> Dict:
    """The benchmark's declaration at the repository root."""
    return json.loads(BENCHMARK_JSON.read_text())


def load_expected(path: Path) -> Dict:
    """Pinned outputs (see ``pin.py``); none when the file is missing."""
    path = Path(path)
    if not path.is_file():
        return {}
    return json.loads(path.read_text())
