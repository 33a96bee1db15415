"""Run (benchmark × defense) pairs through the full stack.

One run = :func:`build_trace` (generate the workload trace against the
defense: trace-mode machine, Python-side allocator bookkeeping), then
:func:`run_benchmark` replays the trace on the cycle-level out-of-order
core against a fresh REST-extended memory hierarchy with the right
token width and operating mode.  Every surface that simulates a cell
goes through these two functions.  Runtime is the cycle count;
overheads are runtimes normalised to the Plain run of the same
benchmark and seed.

Inside a :func:`~repro.harness.parallel.cell_cache` block,
:func:`run_benchmark` reads each unobserved cell from a
:class:`~repro.harness.parallel.ResultCache` of JSON cell records
(:meth:`RunResult.to_json`) and publishes the cells it computes, so a sweep simulates each distinct cell once.
Inside one :func:`run_suite` call a cell whose replay inputs equal an
earlier cell's (:func:`_replay_key`) takes that cell's replay instead
of running the core again.
:func:`attack_outcomes` does the same for the attack suite: one
record per defense mode holds that mode's outcome of every registered
attack, so a sweep runs each (attack, mode) pair once.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import HierarchyStats, MemoryHierarchy
from repro.core.token import Token, TokenConfigRegister
from repro.cpu.isa import MicroOp
from repro.cpu.pipeline import OutOfOrderCore
from repro.cpu.stats import CoreStats
from repro.defenses import Defense
from repro.defenses.plugin import get_plugin, is_baseline, make_defense
from repro.harness.configs import DefenseSpec, SimulationConfig, config_payload
from repro.harness.parallel import WorkUnit, _cached
from repro.runtime.machine import ExecutionMode, Machine
from repro.workloads.attacks import ATTACK_REGISTRY, AttackOutcome, run_attack
from repro.workloads.generator import SyntheticWorkload, WorkloadStats
from repro.workloads.spec import BenchmarkProfile


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    benchmark: str
    spec: DefenseSpec
    cycles: int
    instructions: int
    app_instructions: int
    core_stats: CoreStats
    workload_stats: WorkloadStats
    hierarchy_stats: HierarchyStats
    l1d_miss_rate: float
    l2_miss_rate: float

    def to_json(self) -> dict:
        """The JSON-safe cell record of this run.

        ``spec`` is left out: its name is a label, and
        :meth:`from_json` takes the caller's spec back.
        """
        return {
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "app_instructions": self.app_instructions,
            "core_stats": asdict(self.core_stats),
            "workload_stats": asdict(self.workload_stats),
            "hierarchy_stats": asdict(self.hierarchy_stats),
            "l1d_miss_rate": self.l1d_miss_rate,
            "l2_miss_rate": self.l2_miss_rate,
        }

    @classmethod
    def from_json(cls, record: dict, spec: DefenseSpec) -> "RunResult":
        """Rebuild a run from :meth:`to_json` output under ``spec``."""
        return cls(
            benchmark=record["benchmark"],
            spec=spec,
            cycles=record["cycles"],
            instructions=record["instructions"],
            app_instructions=record["app_instructions"],
            core_stats=CoreStats(**record["core_stats"]),
            workload_stats=WorkloadStats(**record["workload_stats"]),
            hierarchy_stats=HierarchyStats(**record["hierarchy_stats"]),
            l1d_miss_rate=record["l1d_miss_rate"],
            l2_miss_rate=record["l2_miss_rate"],
        )

    @property
    def runtime(self) -> float:
        return float(self.cycles)

    @property
    def instruction_expansion(self) -> float:
        """Dynamic-instruction inflation caused by the defense."""
        if not self.app_instructions:
            return 1.0
        return self.instructions / self.app_instructions

    @property
    def tokens_per_kilo_at_memory(self) -> float:
        """Token lines crossing the L2/memory interface per 1k instrs
        (the paper reports 0.04 for xalanc secure-full)."""
        if not self.instructions:
            return 0.0
        crossings = getattr(self.hierarchy_stats, "tokens_at_memory_interface", 0)
        return crossings / (self.instructions / 1000.0)

    @property
    def stall_buckets(self):
        """Top-down stall decomposition of this run's cycles.

        The bucket values sum exactly to ``cycles`` (see
        :mod:`repro.obs.stalls`).
        """
        from repro.obs.stalls import stall_buckets

        return stall_buckets(self.core_stats)


def _cell_unit(
    profile: BenchmarkProfile, spec: DefenseSpec, config: SimulationConfig
) -> WorkUnit:
    """The cache identity of one cell: everything it computes from.

    The uid is a digest of the payload, not the spec's display name,
    so the cache's uid/payload cross-check compares inputs only.
    """
    payload = {
        "profile": config_payload(profile),
        "spec": spec.key_payload(),
        "config": config.key_payload(),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return WorkUnit(
        uid=f"cell/{profile.name}/{digest[:16]}",
        module=__name__,
        func="run_benchmark",
        key_payload=payload,
    )


def build_defense(machine: Machine, spec: DefenseSpec) -> Defense:
    """Instantiate the defense a spec describes, bound to a machine.

    Resolution goes through the plugin registry
    (:mod:`repro.defenses.plugin`), so any registered mode — including
    aliases like ``plain`` — works here, with the plugin's
    ``from_spec`` hook applying the spec's ablation toggles.
    """
    return get_plugin(spec.defense).build(machine, spec)


def make_trace_machine(spec: DefenseSpec) -> Machine:
    """A trace-mode machine configured the way ``spec`` requires.

    Centralises the spec-to-machine knobs (perfect-hardware and
    software-REST limit studies, token width) that every trace-
    generating surface — bench, observed runs, experiments — must
    agree on.  Software REST follows the plugin's
    ``"software-tokens"`` capability, not the mode name.
    """
    capabilities = get_plugin(spec.defense).capabilities
    machine = Machine(
        mode=ExecutionMode.TRACE,
        perfect_hw=spec.perfect_hw,
        software_rest="software-tokens" in capabilities,
    )
    machine.token_width = spec.token_width
    return machine


def _make_hierarchy(spec: DefenseSpec, config: SimulationConfig) -> MemoryHierarchy:
    token = Token.random(spec.token_width, seed=config.token_seed)
    register = TokenConfigRegister(token, mode=spec.mode)
    return MemoryHierarchy(
        config=config.hierarchy, token_config=register
    )


#: Micro-ops per serialized chunk of :func:`_trace_digest`.
_DIGEST_CHUNK = 4096


def _trace_digest(trace: List[MicroOp]) -> bytes:
    """sha256 of the fields replay reads from each op.

    An exact serialization: ``marshal`` (format 2, which writes values
    and no object sharing) of ``(op, pc, address, size, deps, taken)``
    tuples, a chunk at a time so no copy of the whole trace is built.
    ``sid`` is left out: only a tracer reads it.
    """
    digest = hashlib.sha256()
    for start in range(0, len(trace), _DIGEST_CHUNK):
        fields = [
            (uop.op._value_, uop.pc, uop.address, uop.size, uop.deps, uop.taken)
            for uop in trace[start : start + _DIGEST_CHUNK]
        ]
        digest.update(marshal.dumps(fields, 2))
    return digest.digest()


class _ReplayMemo:
    """The replays of one :func:`run_suite` call.

    ``replays`` maps a :func:`_replay_key` to the first replay's
    ``(core_stats, hierarchy_stats, l1d_miss_rate, l2_miss_rate)``,
    kept as copies no caller holds.  ``digested`` is the last
    ``(trace, digest)`` pair, replaced whole, so a Secure cell and its
    Debug twin, which share one trace object (:func:`build_trace`),
    digest it once.
    """

    __slots__ = ("replays", "digested")

    def __init__(self) -> None:
        self.replays: Dict[tuple, tuple] = {}
        self.digested: Optional[Tuple[List[MicroOp], bytes]] = None


#: The replay memo of the :func:`run_suite` call running in this
#: context, or None outside a suite.
_replay_memo: ContextVar[Optional[_ReplayMemo]] = ContextVar(
    "_replay_memo", default=None
)


def _replay_key(
    memo: _ReplayMemo,
    trace: List[MicroOp],
    spec: DefenseSpec,
    config: SimulationConfig,
) -> tuple:
    """Everything replay reads: the trace's ops (:func:`_trace_digest`)
    and what :func:`_make_hierarchy` and the core are built from.

    REST's hardware is inert until a token is armed, so cells of
    different defenses whose traces are equal (a benchmark that arms
    nothing replays the same ops under Plain and REST) share a key.
    """
    digested = memo.digested
    if digested is not None and digested[0] is trace:
        digest = digested[1]
    else:
        digest = _trace_digest(trace)
        memo.digested = (trace, digest)
    return (
        digest,
        spec.mode,
        spec.token_width,
        config.token_seed,
        config.hierarchy,
        config.core,
    )


def _copy_replay(
    core_stats: CoreStats, hierarchy_stats: HierarchyStats
) -> Tuple[CoreStats, HierarchyStats]:
    """Copies of a replay's stats that share no mutable state with it."""
    return (
        replace(core_stats, op_counts=dict(core_stats.op_counts)),
        replace(hierarchy_stats),
    )


#: The last trace :func:`build_trace` generated without a tracer, as
#: one ``(key, trace, workload_stats)`` tuple, or None.  It is only
#: ever replaced whole, so a concurrent caller sees an old or new
#: entry, never a torn one, and at worst misses.
_trace_memo: Optional[Tuple[str, List[MicroOp], WorkloadStats]] = None


def _trace_key(
    profile: BenchmarkProfile, spec: DefenseSpec, config: SimulationConfig
) -> str:
    """Everything trace generation reads.

    ``spec.mode`` is left out: the REST mode bit changes only what the
    hardware does at commit and on a fault (paper §III), so it is read
    by :func:`_make_hierarchy` alone, and a Secure cell and its Debug
    twin generate the same trace.
    """
    spec_payload = spec.key_payload()
    del spec_payload["mode"]
    return json.dumps(
        [
            config_payload(profile),
            spec_payload,
            config.seed,
            config.scale,
            config.alloc_intensity,
        ],
        sort_keys=True,
    )


def build_trace(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: SimulationConfig,
    tracer=None,
) -> Tuple[List[MicroOp], WorkloadStats]:
    """Phase 1 of a cell: generate its trace through the defense.

    The one place under ``repro`` that turns a (benchmark, defense,
    seed, scale) cell into a trace, so every surface replays the same
    micro-ops for the same cell.  ``tracer``, when given, is attached
    to the trace machine before the defense is built, so it sees the
    allocator's arm/disarm and malloc/free events stamped with the
    trace position.

    The last untraced build is kept: a cell whose generation inputs
    (:func:`_trace_key`) equal the previous cell's, such as the Debug
    twin of a Secure cell, gets the same trace list back and a copy of
    its :class:`WorkloadStats`.  Replay only stamps each op's ``seq``
    with its trace index, so a shared trace replays the same every
    time.  A build with a ``tracer`` neither reads nor fills the memo,
    because its tracer needs the generation events.
    """
    global _trace_memo
    key = None
    if tracer is None:
        key = _trace_key(profile, spec, config)
        memo = _trace_memo
        if memo is not None and memo[0] == key:
            return memo[1], replace(memo[2])
        # Release the previous trace before generating the next one,
        # so at most one cell's trace is alive at a time.
        _trace_memo = None
        del memo
    machine = make_trace_machine(spec)
    if tracer is not None:
        machine.tracer = tracer
    defense = build_defense(machine, spec)
    workload_stats = SyntheticWorkload(
        profile,
        defense,
        seed=config.seed,
        scale=config.scale,
        alloc_intensity=config.alloc_intensity,
    ).run()
    trace = machine.take_trace()
    if key is not None:
        _trace_memo = (key, trace, replace(workload_stats))
    return trace, workload_stats


def run_benchmark(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: Optional[SimulationConfig] = None,
    on_sample: Optional[Callable] = None,
    sample_interval: Optional[int] = None,
    tracer=None,
) -> RunResult:
    """Simulate one benchmark under one defense spec.

    Phase 1 is :func:`build_trace`; phase 2 replays the trace on a
    fresh hierarchy and core built from ``config`` (``config.core`` is
    the core configuration).

    ``on_sample`` routes the replay through the interval sampler
    (:func:`repro.obs.sampler.run_sampled`) and forwards each snapshot
    as it is taken — the live-telemetry path used by ``repro sweep
    --live``, the job service and ``repro run``.  The sampled replay
    is stats-identical to the plain one, so results (and cache
    entries) do not depend on whether a run was observed.  ``tracer``
    observes both phases: trace generation, then every hook point of
    the replaying core.

    Inside a :func:`~repro.harness.parallel.cell_cache` block an
    unobserved run returns the cached cell when there is one and
    publishes its cell otherwise.
    A run with a ``tracer`` or ``on_sample`` always simulates and
    publishes nothing, since its observer needs the events.
    """
    config = config or SimulationConfig()
    if tracer is not None or on_sample is not None:
        return _simulate(
            profile, spec, config, on_sample, sample_interval, tracer
        )
    return _cached(
        _cell_unit(profile, spec, config),
        lambda: _simulate(profile, spec, config),
        RunResult.to_json,
        lambda record: RunResult.from_json(record, spec),
    )


def _simulate(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: SimulationConfig,
    on_sample: Optional[Callable] = None,
    sample_interval: Optional[int] = None,
    tracer=None,
) -> RunResult:
    """Generate and replay one cell (the body of :func:`run_benchmark`).

    Inside :func:`run_suite`, an unobserved cell whose replay key
    (:func:`_replay_key`) an earlier cell of the suite replayed gets
    copies of that replay's stats instead of running the core; its
    workload stats are its own.
    """
    trace, workload_stats = build_trace(profile, spec, config, tracer)
    memo = None
    if tracer is None and on_sample is None:
        memo = _replay_memo.get()
    replayed = None
    if memo is not None:
        key = _replay_key(memo, trace, spec, config)
        replayed = memo.replays.get(key)

    if replayed is not None:
        core_stats, hierarchy_stats, l1d_miss_rate, l2_miss_rate = replayed
        core_stats, hierarchy_stats = _copy_replay(core_stats, hierarchy_stats)
    else:
        hierarchy = _make_hierarchy(spec, config)
        core = OutOfOrderCore(hierarchy, config=config.core)
        if tracer is not None:
            from repro.obs.tracer import attach_tracer

            attach_tracer(core, tracer)
        if on_sample is None:
            core_stats = core.run(trace)
        else:
            from repro.obs.sampler import DEFAULT_INTERVAL, run_sampled

            core_stats, _ = run_sampled(
                core,
                trace,
                interval=sample_interval or DEFAULT_INTERVAL,
                on_sample=on_sample,
            )
        hierarchy_stats = hierarchy.stats
        l1d_miss_rate = hierarchy.l1d.stats.miss_rate
        l2_miss_rate = hierarchy.l2.stats.miss_rate
        if memo is not None:
            memo.replays[key] = (
                *_copy_replay(core_stats, hierarchy_stats),
                l1d_miss_rate,
                l2_miss_rate,
            )

    return RunResult(
        benchmark=profile.name,
        spec=spec,
        cycles=core_stats.cycles,
        instructions=core_stats.committed,
        app_instructions=workload_stats.app_instructions,
        core_stats=core_stats,
        workload_stats=workload_stats,
        hierarchy_stats=hierarchy_stats,
        l1d_miss_rate=l1d_miss_rate,
        l2_miss_rate=l2_miss_rate,
    )


def attack_outcomes(mode: str) -> Dict[str, AttackOutcome]:
    """Every registered attack's outcome against defense ``mode``.

    Each attack runs once, in name order, against a fresh functional
    defense (:func:`~repro.defenses.plugin.make_defense`).  Inside a
    :func:`~repro.harness.parallel.cell_cache` block the row is one
    record, uid ``attacks/<mode>``, so Table III, the security coverage
    table and the attack matrices of one sweep run the suite once per
    mode.
    """
    names = sorted(ATTACK_REGISTRY)
    unit = WorkUnit(
        uid=f"attacks/{mode}",
        module=__name__,
        func="attack_outcomes",
        key_payload={"mode": mode, "attacks": names},
    )
    return _cached(
        unit,
        lambda: {
            name: run_attack(name, make_defense(mode)).outcome
            for name in names
        },
        lambda row: {name: outcome.value for name, outcome in row.items()},
        lambda record: {
            name: AttackOutcome(value) for name, value in record.items()
        },
    )


def run_suite(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    config: Optional[SimulationConfig] = None,
    include_plain: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (benchmark, spec) pair; returns results[bench][spec].

    A Plain baseline run is added automatically (key "Plain") unless
    a spec already resolves to the baseline mode, or it is disabled.

    The suite holds a replay memo for the length of the call: a cell
    that would replay exactly what an earlier cell of the suite
    replayed (:func:`_replay_key`) reuses that replay.  Only code that
    can hit pays for the trace digests, so :func:`run_benchmark`
    outside a suite never digests.
    """
    config = config or SimulationConfig()
    all_specs: List[DefenseSpec] = list(specs)
    if include_plain and not any(is_baseline(s.defense) for s in all_specs):
        all_specs.insert(0, DefenseSpec.plain())
    results: Dict[str, Dict[str, RunResult]] = {}
    memo_token = _replay_memo.set(_ReplayMemo())
    try:
        for profile in profiles:
            per_bench: Dict[str, RunResult] = {}
            for spec in all_specs:
                if progress is not None:
                    progress(f"{profile.name} / {spec.name}")
                per_bench[spec.name] = run_benchmark(profile, spec, config)
            results[profile.name] = per_bench
    finally:
        _replay_memo.reset(memo_token)
    return results
