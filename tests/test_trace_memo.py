"""The one-entry trace memo of :func:`build_trace`.

REST's mode bit changes only what the hardware does at commit and on a
fault, so a Secure cell and its Debug twin generate the same trace and
``build_trace`` reuses the last one it built.  These tests pin the rule
the memo rests on (generation never reads ``spec.mode``), that a hit
changes no result, that a traced build bypasses the memo, and that a
miss releases the previous trace before generating the next.
"""

import weakref
from dataclasses import replace

import pytest

from repro.core.modes import Mode
from repro.defenses.plugin import DEFENSE_MODES
from repro.harness import experiment
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import build_trace, run_benchmark
from repro.obs.tracer import RingTracer
from repro.runtime.machine import Machine
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.spec import profile_by_name

CONFIG = SimulationConfig(scale=0.02, seed=1234)
PROFILE = profile_by_name("xalancbmk")  # allocation-heavy: arms and frees


def _stream(trace):
    return [
        (uop.op, uop.pc, uop.address, uop.size, uop.deps, uop.taken, uop.sid)
        for uop in trace
    ]


@pytest.fixture
def no_memo(monkeypatch):
    """Start each test with an empty memo; restore the old one after."""
    monkeypatch.setattr(experiment, "_trace_memo", None)


@pytest.fixture
def generations(monkeypatch):
    """Count trace generations (memo misses), not ``build_trace`` calls."""
    count = {"runs": 0}
    original = SyntheticWorkload.run

    def counted(workload):
        count["runs"] += 1
        return original(workload)

    monkeypatch.setattr(SyntheticWorkload, "run", counted)
    return count


@pytest.mark.parametrize("defense", DEFENSE_MODES)
def test_generation_never_reads_the_rest_mode(defense, monkeypatch, no_memo):
    built = {}
    for mode in (Mode.SECURE, Mode.DEBUG):
        monkeypatch.setattr(experiment, "_trace_memo", None)
        spec = DefenseSpec(name=defense, defense=defense, mode=mode)
        built[mode] = build_trace(PROFILE, spec, CONFIG)
    (secure, secure_stats), (debug, debug_stats) = built.values()
    assert secure is not debug
    assert _stream(secure) == _stream(debug)
    assert secure_stats == debug_stats


def test_a_memo_hit_gives_the_same_cell_records(monkeypatch, no_memo, generations):
    secure = DefenseSpec.rest("Secure Full", mode=Mode.SECURE)
    debug = DefenseSpec.rest("Debug Full", mode=Mode.DEBUG)

    shared = [run_benchmark(PROFILE, spec, CONFIG) for spec in (secure, debug)]
    assert generations["runs"] == 1

    alone = []
    for spec in (secure, debug):
        monkeypatch.setattr(experiment, "_trace_memo", None)
        alone.append(run_benchmark(PROFILE, spec, CONFIG))
    assert generations["runs"] == 3
    assert [r.to_json() for r in shared] == [r.to_json() for r in alone]
    # The two modes do differ downstream of the trace.
    assert shared[0].cycles != shared[1].cycles


def test_callers_cannot_change_the_memo_stats(no_memo):
    spec = DefenseSpec.rest("Secure Full")
    trace, stats = build_trace(PROFILE, spec, CONFIG)
    expected = replace(stats)
    stats.mallocs += 1
    again, again_stats = build_trace(PROFILE, replace(spec, mode=Mode.DEBUG), CONFIG)
    assert again is trace
    assert again_stats == expected
    again_stats.frees += 1
    assert build_trace(PROFILE, spec, CONFIG)[1] == expected


def test_a_traced_build_neither_reads_nor_fills_the_memo(no_memo, generations):
    secure = DefenseSpec.rest("Secure Full", mode=Mode.SECURE)
    build_trace(PROFILE, secure, CONFIG)
    memo = experiment._trace_memo
    assert memo is not None

    tracer = RingTracer()
    trace, _ = build_trace(PROFILE, replace(secure, mode=Mode.DEBUG), CONFIG, tracer)
    assert generations["runs"] == 2
    assert trace is not memo[1]
    assert experiment._trace_memo is memo
    kinds = tracer.counts()
    assert kinds.get("alloc.arm", 0) > 0 and kinds.get("alloc.disarm", 0) > 0


def test_a_miss_drops_the_previous_trace_before_generating(monkeypatch, no_memo):
    class Trace(list):
        """A list that takes weak references."""

    take_trace = Machine.take_trace
    monkeypatch.setattr(
        Machine, "take_trace", lambda machine: Trace(take_trace(machine))
    )
    trace, _ = build_trace(PROFILE, DefenseSpec.rest("Secure Full"), CONFIG)
    previous = weakref.ref(trace)
    del trace

    alive_at_generation = []
    run = SyntheticWorkload.run

    def observed(workload):
        alive_at_generation.append(previous() is not None)
        return run(workload)

    monkeypatch.setattr(SyntheticWorkload, "run", observed)
    build_trace(PROFILE, DefenseSpec.asan(), CONFIG)
    assert alive_at_generation == [False]
