"""Host-time spans and counters, recorded from outside the program.

The traced run wraps a few public functions of each layer (a method
replaced on its class for the length of one traced pass, restored
afterwards) and records one span per call: name, start, end, parent
span and the request it serves (a cell, a ``run_all`` run or a service
submission).  High-rate calls — the allocators' ``malloc``/``free`` —
only bump a counter and a timer.  Spans stay in memory and are written
when the run ends.  ``cProfile`` runs alongside and its self time,
grouped by the package a function lives in, gives ``<layer>.self_s``.

Nothing here is imported by an untraced run, so tracing costs nothing
when it is off.
"""

from __future__ import annotations

import cProfile
import hashlib
import itertools
import json
import os
import pstats
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from common import SRC, percentile

#: The program's layers, named after the packages they cover.
LAYERS = (
    "workloads",
    "runtime",
    "defenses",
    "cpu",
    "cache",
    "mem",
    "fasttier",
    "harness",
    "service",
)

#: Defense modes whose fast-tier accuracy and speed-up are reported.
FAST_MODES = ("plain", "asan", "rest-secure", "rest-debug")


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, tag: str = "0") -> None:
        self.tag = tag
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List = []
        self._spec_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.alloc_calls = 0
        self.alloc_s = 0.0
        self._alloc_depth = 0
        self.trace_keys: List[str] = []
        self.cache_hits = 0
        self.cache_misses = 0
        #: per-layer values a workload measures itself (service
        #: timestamps, fast-tier accuracy, engine efficiency)
        self.values: Dict[str, float] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self._self_lock = threading.Lock()  # client threads profile too

    # ---------------------------------------------------------------- spans

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": f"{self.tag}.{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request
            if request is not None
            else (parent["request"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap each layer's public entry points (undo with uninstall)."""
        from repro.cpu.pipeline import OutOfOrderCore
        from repro.defenses.plugin import DefensePlugin
        from repro.harness import parallel
        from repro.runtime.allocators.base import BaseAllocator
        from repro.runtime.machine import Machine
        from repro.workloads.generator import SyntheticWorkload

        rec = self

        def build(original):
            def wrapper(plugin, machine, spec=None):
                defense = original(plugin, machine, spec)
                key = (
                    json.dumps(spec.key_payload(), sort_keys=True)
                    if hasattr(spec, "key_payload")
                    else plugin.name
                )
                try:
                    rec._spec_keys[defense] = key
                except TypeError:  # unhashable defense: fall back to its mode
                    pass
                return defense

            return wrapper

        def generate(original):
            def wrapper(workload, *args, **kwargs):
                key = repr(
                    (
                        workload.profile.name,
                        rec._spec_keys.get(
                            workload.defense, type(workload.defense).__name__
                        ),
                        workload.budget,
                        workload.alloc_intensity,
                        workload.rng.getstate(),
                    )
                )
                rec.trace_keys.append(hashlib.sha1(key.encode()).hexdigest())
                with rec.span("workloads.generate", profile=workload.profile.name):
                    return original(workload, *args, **kwargs)

            return wrapper

        def take_trace(original):
            def wrapper(machine, *args, **kwargs):
                with rec.span("workloads.take_trace") as span:
                    trace = original(machine, *args, **kwargs)
                    span["uops"] = len(trace)
                return trace

            return wrapper

        def replay(original):
            def wrapper(core, *args, **kwargs):
                with rec.span("cpu.replay") as span:
                    stats = original(core, *args, **kwargs)
                l1d = core.hierarchy.l1d.stats
                l2 = core.hierarchy.l2.stats
                span.update(
                    uops=stats.committed,
                    cycles=stats.cycles,
                    l1d_accesses=l1d.accesses,
                    l1d_misses=l1d.misses,
                    l2_accesses=l2.accesses,
                    l2_misses=l2.misses,
                )
                return stats

            return wrapper

        def calibrate(original):
            def wrapper(core, *args, **kwargs):
                with rec.span("fasttier.calibrate"):
                    return original(core, *args, **kwargs)

            return wrapper

        def timed_alloc(original):
            def wrapper(allocator, *args, **kwargs):
                if rec._alloc_depth:  # e.g. a free inside malloc: count once
                    return original(allocator, *args, **kwargs)
                rec._alloc_depth += 1
                t0 = time.perf_counter()
                try:
                    return original(allocator, *args, **kwargs)
                finally:
                    rec.alloc_s += time.perf_counter() - t0
                    rec.alloc_calls += 1
                    rec._alloc_depth -= 1

            return wrapper

        def salt(original):
            def wrapper(*args, **kwargs):
                with rec.span("harness.salt"):
                    return original(*args, **kwargs)

            return wrapper

        def cache_get(original):
            def wrapper(cache, *args, **kwargs):
                with rec.span("harness.cache_get"):
                    entry = original(cache, *args, **kwargs)
                if entry is None:
                    rec.cache_misses += 1
                else:
                    rec.cache_hits += 1
                return entry

            return wrapper

        def cache_put(original):
            def wrapper(cache, *args, **kwargs):
                with rec.span("harness.cache_put"):
                    return original(cache, *args, **kwargs)

            return wrapper

        def execute(original):
            def wrapper(*args, **kwargs):
                with rec.span("harness.execute_units"):
                    return original(*args, **kwargs)

            return wrapper

        self._patch(DefensePlugin, "build", build)
        self._patch(SyntheticWorkload, "run", generate)
        self._patch(Machine, "take_trace", take_trace)
        self._patch(OutOfOrderCore, "run", replay)
        self._patch(OutOfOrderCore, "run_attributed", calibrate)
        self._patch(BaseAllocator, "malloc", timed_alloc)
        self._patch(BaseAllocator, "free", timed_alloc)
        self._patch(parallel.ResultCache, "get", cache_get)
        self._patch(parallel.ResultCache, "put", cache_put)
        self._patch(parallel, "code_version_salt", salt)
        self._patch(parallel, "execute_units", execute)
        import repro.experiments.run_all as run_all

        # run_all imported execute_units by name before the patch
        self._patch(run_all, "execute_units", execute)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ profiling

    @contextmanager
    def profiled(self):
        """cProfile the block on this thread; adds self time per layer."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            with self._self_lock:
                for layer, seconds in layer_self_time(profiler).items():
                    self.self_s[layer] += seconds

    # ---------------------------------------------------------- persistence

    def to_dict(self) -> Dict:
        return {
            "spans": self.spans,
            "alloc_calls": self.alloc_calls,
            "alloc_s": self.alloc_s,
            "trace_keys": self.trace_keys,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "self_s": dict(self.self_s),
        }

    def absorb(self, data: Dict) -> None:
        """Fold in what a traced child process recorded."""
        self.spans.extend(data["spans"])
        self.alloc_calls += data["alloc_calls"]
        self.alloc_s += data["alloc_s"]
        self.trace_keys.extend(data["trace_keys"])
        self.cache_hits += data["cache_hits"]
        self.cache_misses += data["cache_misses"]
        for layer, seconds in data["self_s"].items():
            self.self_s[layer] += seconds


def layer_self_time(profiler: cProfile.Profile) -> Dict[str, float]:
    """cProfile self time grouped by the ``repro`` package it ran in."""
    prefix = str(SRC / "repro") + os.sep
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        if filename.startswith(prefix):
            package = filename[len(prefix):].split(os.sep, 1)[0]
            if package in LAYERS:
                totals[package] += row[2]  # tt: time in the function itself
    return dict(totals)


# -------------------------------------------------------------- summaries


def _spans_named(spans: Iterable[Dict], name: str) -> List[Dict]:
    return [span for span in spans if span["name"] == name]


def _total(spans: Iterable[Dict]) -> float:
    return sum(span["end"] - span["start"] for span in spans)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def span_summary(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children (children of one span never overlap: a span's callees run
    on its thread, one after another).
    """
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span["end"] - span["start"]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
    return summary


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    A layer the workload does not run in a traced process reads 0.
    """
    spans = rec.spans
    generate = _spans_named(spans, "workloads.generate")
    take = _spans_named(spans, "workloads.take_trace")
    replays = _spans_named(spans, "cpu.replay")
    tracegen_s = _total(generate) + _total(take)
    replay_s = _total(replays)
    uops = sum(span["uops"] for span in replays)
    cycles = sum(span["cycles"] for span in replays)
    builds = len(rec.trace_keys)
    distinct = len(set(rec.trace_keys))

    def pooled(level: str) -> float:
        accesses = sum(span[f"{level}_accesses"] for span in replays)
        misses = sum(span[f"{level}_misses"] for span in replays)
        return _rate(misses, accesses)

    metrics = {
        "workloads.tracegen_s": tracegen_s,
        "workloads.tracegen_uops_per_s": _rate(
            sum(span["uops"] for span in take), tracegen_s
        ),
        "workloads.trace_builds": builds,
        "workloads.trace_distinct": distinct,
        "workloads.trace_reuse_ratio": _rate(distinct, builds),
        "runtime.alloc_calls": rec.alloc_calls,
        "runtime.alloc_s": rec.alloc_s,
        "cpu.replay_s": replay_s,
        "cpu.replay_uops_per_s": _rate(uops, replay_s),
        "cpu.replay_cycles_per_s": _rate(cycles, replay_s),
        "cpu.uops": uops,
        "cpu.cycles": cycles,
        "cache.l1d_miss_rate": pooled("l1d"),
        "cache.l2_miss_rate": pooled("l2"),
        "fasttier.cold_s": _total(_spans_named(spans, "fasttier.cold")),
        "fasttier.warm_s": _total(_spans_named(spans, "fasttier.warm")),
        "fasttier.calibrate_s": _total(_spans_named(spans, "fasttier.calibrate")),
        "harness.salt_s": _total(_spans_named(spans, "harness.salt")),
        "harness.cache_get_s": _total(_spans_named(spans, "harness.cache_get")),
        "harness.cache_put_s": _total(_spans_named(spans, "harness.cache_put")),
        "harness.cache_hits": rec.cache_hits,
        "harness.cache_misses": rec.cache_misses,
        "harness.unit_wall_sum_s": 0.0,
        "harness.parallel_efficiency": 0.0,
    }
    for mode in FAST_MODES:
        metrics[f"fasttier.cold_speedup.{mode}"] = 0.0
        metrics[f"fasttier.divergence_pct.{mode}"] = 0.0
    metrics.update(service_metrics([]))
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    metrics.update(rec.values)
    return metrics


def service_metrics(jobs: List[Dict], **counters: float) -> Dict[str, float]:
    """Service-layer metrics from per-submission timing records.

    Each record carries the client's submit round trip and the
    daemon's ``created``/``started``/``finished`` stamps plus the time
    the client received the ``done`` frame (one host, one clock).  A
    job served wholly from the cache or from a sibling's execution
    never starts, so queue wait and run time cover started jobs only.
    """

    def ms(key_from: str, key_to: str) -> List[float]:
        return [
            1000.0 * (job[key_to] - job[key_from])
            for job in jobs
            if job[key_from] is not None and job[key_to] is not None
        ]

    def stat(values: List[float], fraction: float) -> float:
        return percentile(values, fraction) if values else 0.0

    queue_wait = ms("created", "started")
    run = ms("started", "finished")
    metrics = {
        "service.submit_ms.p50": stat(ms("submitted", "accepted"), 0.5),
        "service.queue_wait_ms.p50": stat(queue_wait, 0.5),
        "service.queue_wait_ms.p99": stat(queue_wait, 0.99),
        "service.run_ms.p50": stat(run, 0.5),
        "service.run_ms.p99": stat(run, 0.99),
        "service.notify_ms.p50": stat(ms("finished", "done_at"), 0.5),
        "service.executions": 0,
        "service.dedup_hits": 0,
        "service.cache_hit_ratio": 0.0,
        "service.rejections": 0,
        "service.fleet_start_s": 0.0,
    }
    metrics.update(counters)
    return metrics


def replays_by_request(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Deterministic replay outputs per request (per cell, in the cells
    workloads): micro-ops, cycles and L1D/L2 miss rates."""
    totals: Dict[str, Dict[str, int]] = {}
    for span in _spans_named(spans, "cpu.replay"):
        entry = totals.setdefault(str(span["request"]), defaultdict(int))
        for key in ("uops", "cycles", "l1d_accesses", "l1d_misses",
                    "l2_accesses", "l2_misses"):
            entry[key] += span[key]
    return {
        request: {
            "uops": entry["uops"],
            "cycles": entry["cycles"],
            "l1d_miss_rate": _rate(entry["l1d_misses"], entry["l1d_accesses"]),
            "l2_miss_rate": _rate(entry["l2_misses"], entry["l2_accesses"]),
        }
        for request, entry in sorted(totals.items())
    }


def write_trace(out: Path, workload: str, rec: Recorder, metrics: Dict, extra: Dict) -> None:
    """Write ``layers.json`` and ``spans.jsonl`` for one traced workload."""
    out.mkdir(parents=True, exist_ok=True)
    layers = {
        "workload": workload,
        "metrics": metrics,
        "spans": span_summary(rec.spans),
        "replays": replays_by_request(rec.spans),
        **extra,
    }
    (out / "layers.json").write_text(json.dumps(layers, indent=2, sort_keys=True))
    with (out / "spans.jsonl").open("w") as handle:
        for span in sorted(rec.spans, key=lambda s: s["start"]):
            handle.write(json.dumps(span, sort_keys=True) + "\n")

