"""Property-based tests of the pipeline's conservation invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import MemoryHierarchy
from repro.cpu import CoreConfig, OutOfOrderCore
from repro.cpu.isa import MicroOp, OpType


def build_trace(ops):
    trace = []
    for kind, payload in ops:
        if kind == "alu":
            trace.append(MicroOp(OpType.ALU, deps=(1,) if payload % 2 else ()))
        elif kind == "load":
            trace.append(
                MicroOp(OpType.LOAD, address=0x10000 + (payload & ~7), size=8)
            )
        elif kind == "store":
            trace.append(
                MicroOp(OpType.STORE, address=0x10000 + (payload & ~7), size=8)
            )
        elif kind == "branch":
            trace.append(
                MicroOp(OpType.BRANCH, pc=0x400 + 4 * (payload % 16),
                        taken=bool(payload % 3))
            )
    return trace


op_stream = st.lists(
    st.tuples(
        st.sampled_from(["alu", "load", "store", "branch"]),
        st.integers(min_value=0, max_value=4095),
    ),
    min_size=1,
    max_size=120,
)


class TestConservation:
    @given(op_stream)
    @settings(max_examples=40, deadline=None)
    def test_every_op_commits_exactly_once(self, ops):
        trace = build_trace(ops)
        stats = OutOfOrderCore(MemoryHierarchy()).run(trace)
        assert stats.committed == len(trace)
        assert stats.fetched == len(trace)
        assert sum(stats.op_counts.values()) == len(trace)

    @given(op_stream)
    @settings(max_examples=25, deadline=None)
    def test_deterministic_replay(self, ops):
        cycles = []
        for _ in range(2):
            trace = build_trace(ops)
            cycles.append(OutOfOrderCore(MemoryHierarchy()).run(trace).cycles)
        assert cycles[0] == cycles[1]

    @given(op_stream)
    @settings(max_examples=25, deadline=None)
    def test_cycles_bounded_below_by_width(self, ops):
        trace = build_trace(ops)
        core = OutOfOrderCore(MemoryHierarchy())
        stats = core.run(trace)
        assert stats.cycles >= len(trace) / core.config.commit_width

    @given(op_stream)
    @settings(max_examples=15, deadline=None)
    def test_narrow_machine_never_faster(self, ops):
        from dataclasses import replace

        from repro.mem.dram import DramConfig, DramModel

        # Uniform DRAM latency (row miss == row hit): the wide and
        # narrow machines interleave I- and D-side DRAM accesses in a
        # different order, so with real open-row state the wide machine
        # can lose row locality and occasionally finish *later* — a
        # memory-system artefact, not a width property.  Flattening the
        # row timing isolates the width/window difference this test is
        # actually about.
        def flat_dram():
            return DramModel(DramConfig(precharge_ns=0.0, ras_ns=0.0))

        wide = OutOfOrderCore(
            MemoryHierarchy(dram=flat_dram())
        ).run(build_trace(ops)).cycles
        # Same mispredict penalty: isolate the width/window difference.
        narrow_config = replace(CoreConfig.in_order(), mispredict_penalty=12)
        narrow = OutOfOrderCore(
            MemoryHierarchy(dram=flat_dram()), config=narrow_config
        ).run(build_trace(ops)).cycles
        assert narrow >= wide

    @given(op_stream)
    @settings(max_examples=15, deadline=None)
    def test_queues_empty_at_end(self, ops):
        core = OutOfOrderCore(MemoryHierarchy())
        core.run(build_trace(ops))
        assert len(core.rob) == 0
        assert len(core.iq) == 0
        assert core.lsq.lq_occupancy == 0
        assert core.lsq.sq_occupancy == 0


# -- scheduler corner cases -------------------------------------------------

_SCHED_KINDS = (
    OpType.ALU,
    OpType.MUL,
    OpType.DIV,
    OpType.FP,
    OpType.LOAD,
    OpType.STORE,
    OpType.BRANCH,
    OpType.ARM,
    OpType.DISARM,
)

#: Each op: kind, dependency distances (1..40, repeats allowed, short
#: ones favoured so chains form), and a payload picking the address
#: (memory ops) or branch outcome.  Memory ops share four 64-byte token
#: slots, so arms, disarms, loads and stores overlap and exercise the
#: LSQ gates and REST faults.
sched_stream = st.lists(
    st.tuples(
        st.sampled_from(_SCHED_KINDS),
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=3,
        ),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=150,
)


def build_sched_trace(ops):
    trace = []
    for kind, deps, payload in ops:
        address = 0x20000 + 64 * (payload % 4) + 8 * (payload // 4 % 8)
        if kind in (OpType.ARM, OpType.DISARM):
            address &= ~63
        trace.append(
            MicroOp(
                kind,
                pc=0x400 + 4 * (payload % 32),
                address=address if kind.is_memory else 0,
                size=8 if kind in (OpType.LOAD, OpType.STORE) else 0,
                deps=tuple(deps),
                taken=bool(payload % 3) if kind.is_control else None,
            )
        )
    return trace


def assert_memory_ops_issue_in_order(trace, issued):
    """Memory ops issue in program order: ``issued`` maps seq -> cycle."""
    memory = [issued[s] for s in sorted(issued) if trace[s].op.is_memory]
    assert memory == sorted(memory)


def _sched_outcome(ops, core_config, mode, fast_forward):
    from repro.core.token import TokenConfigRegister

    hierarchy = MemoryHierarchy(token_config=TokenConfigRegister(mode=mode))
    core = OutOfOrderCore(hierarchy, config=core_config)
    error = None
    try:
        for _ in core.run_stepwise(
            build_sched_trace(ops), fast_forward=fast_forward
        ):
            pass
    except Exception as exc:  # REST faults end the run; compare them too
        error = (type(exc).__name__, str(exc), getattr(exc, "cycle", None))
    stats = core.stats
    return {
        "error": error,
        "stats": {
            name: value
            for name, value in vars(stats).items()
            if not name.startswith("_")
        },
        "rob_max": core.rob.max_occupancy,
        "iq_max": core.iq.max_occupancy,
        "iq": len(core.iq),
        "rob": len(core.rob),
    }


class TestSchedulerCornerCases:
    def test_non_memory_ops_take_at_least_one_cycle(self):
        """The wakeup scheduler relies on it: a completion written at
        cycle c is later than c, so nothing woken in a cycle issues in
        that same cycle."""
        for op in OpType:
            if not op.is_memory:
                assert op.base_latency >= 1, op

    @pytest.mark.parametrize("config_name", ["default", "in-order", "serialize"])
    @given(
        ops=sched_stream,
        mode=st.sampled_from(["secure", "debug"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_forward_matches_stepwise(self, config_name, ops, mode):
        from dataclasses import replace

        from repro.core.modes import Mode

        core_config = {
            "default": CoreConfig(),
            "in-order": CoreConfig.in_order(),
            "serialize": replace(CoreConfig(), serialize_rest_ops=True),
        }[config_name]
        mode = Mode(mode)
        stepwise = _sched_outcome(ops, core_config, mode, False)
        fast = _sched_outcome(ops, core_config, mode, True)
        assert fast == stepwise

    @pytest.mark.parametrize("config_name", ["default", "in-order"])
    @given(ops=sched_stream)
    # A load becomes the memory-queue head in the cycle the load before
    # it issues, while its address producer still waits on that load.
    @example(
        ops=[
            (OpType.ALU, [], 0),
            (OpType.LOAD, [], 0),
            (OpType.ALU, [1], 0),
            (OpType.LOAD, [1], 1),
        ]
    )
    @settings(max_examples=40, deadline=None)
    def test_issue_waits_for_producers(self, config_name, ops):
        """From the event stream: no op issues before each producer's
        result is available, memory ops issue in program order, and no
        cycle issues more than the issue width."""
        from repro.obs.tracer import RingTracer, attach_tracer

        core_config = {
            "default": CoreConfig(),
            "in-order": CoreConfig.in_order(),
        }[config_name]
        trace = build_sched_trace(ops)
        core = OutOfOrderCore(MemoryHierarchy(), config=core_config)
        tracer = attach_tracer(core, RingTracer())
        try:
            core.run(trace)
        except Exception:
            pass  # REST faults end the run; check what issued before
        issued, done = {}, {}
        for event in tracer.events():
            if event["kind"] == "issue":
                issued[event["seq"]] = event["cycle"]
            elif event["kind"] == "complete":
                done[event["seq"]] = event["cycle"]
        for seq, cycle in issued.items():
            for distance in trace[seq].deps:
                if seq - distance >= 0:
                    assert done[seq - distance] <= cycle, (seq, distance)
        assert_memory_ops_issue_in_order(trace, issued)
        per_cycle = {}
        for cycle in issued.values():
            per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
        assert max(per_cycle.values(), default=0) <= core_config.issue_width
