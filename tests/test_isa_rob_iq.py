"""Tests for the micro-op ISA, reorder buffer and issue queue.

The ROB and IQ have no behaviour of their own outside the core's
pipeline, so their tests drive a core and watch its events.
"""

import pytest

from repro.cache import MemoryHierarchy
from repro.cpu import (
    CoreConfig,
    IssueQueue,
    MicroOp,
    OpType,
    OutOfOrderCore,
    ReorderBuffer,
)
from repro.cpu.isa import alu, arm_op, branch, disarm_op, load, store
from repro.obs.tracer import RingTracer, attach_tracer


class TestOpTypes:
    def test_memory_classification(self):
        assert OpType.LOAD.is_memory
        assert OpType.STORE.is_memory
        assert OpType.ARM.is_memory
        assert OpType.DISARM.is_memory
        assert not OpType.ALU.is_memory

    def test_store_like_classification(self):
        """Arm/disarm are functionally stores (paper §III-B)."""
        assert OpType.STORE.is_store_like
        assert OpType.ARM.is_store_like
        assert OpType.DISARM.is_store_like
        assert not OpType.LOAD.is_store_like

    def test_control_classification(self):
        assert OpType.BRANCH.is_control
        assert OpType.CALL.is_control
        assert OpType.RET.is_control
        assert not OpType.STORE.is_control

    def test_latencies(self):
        assert OpType.ALU.base_latency == 1
        assert OpType.DIV.base_latency > OpType.MUL.base_latency > 1
        assert OpType.FP.base_latency > OpType.ALU.base_latency

    def test_constructors(self):
        op = load(0x1000, 4, deps=(2,))
        assert op.op is OpType.LOAD and op.size == 4 and op.deps == (2,)
        assert store(0x2000).op is OpType.STORE
        assert arm_op(0x3000).op is OpType.ARM
        assert disarm_op(0x3000).op is OpType.DISARM
        assert branch(True).taken is True
        assert alu().deps == ()

    def test_repr(self):
        assert "0x1000" in repr(load(0x1000))
        assert "taken=True" in repr(branch(True))
        assert "alu" in repr(alu())


def _run(trace, **config):
    """Run ``trace`` on a default-hierarchy core; returns the core and
    its per-kind event lists.

    A leading NOP takes the cold I-cache miss, so the ops under test
    are fetched together; event seqs are renumbered to skip it.
    """
    core = OutOfOrderCore(MemoryHierarchy(), config=CoreConfig(**config))
    tracer = attach_tracer(core, RingTracer())
    core.run([MicroOp(OpType.NOP)] + trace)
    events = {}
    for event in tracer.events():
        if event.get("seq", 1) > 0:
            if "seq" in event:
                event["seq"] -= 1
            events.setdefault(event["kind"], []).append(event)
    return core, events


def _behind_a_miss(count):
    """A DRAM-missing load and ``count`` ALU ops that depend on it."""
    return [load(0x10000)] + [alu(deps=(1 + i,)) for i in range(count)]


class TestReorderBuffer:
    def test_fifo_order(self):
        """Younger ops finish first but commit in program order."""
        _, events = _run([MicroOp(OpType.DIV), alu(), alu()])
        done = {e["seq"]: e["cycle"] for e in events["complete"]}
        assert done[1] < done[0] and done[2] < done[0]
        assert [e["seq"] for e in events["commit"]] == [0, 1, 2]

    def test_capacity(self):
        core, _ = _run(_behind_a_miss(5), rob_entries=2)
        assert core.rob.max_occupancy == 2
        assert core.stats.rob_full_cycles > 0
        assert len(core.rob) == 0

    def test_max_occupancy(self):
        core, _ = _run(_behind_a_miss(5))
        assert core.rob.max_occupancy == 6

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestIssueQueue:
    def test_ready_selection(self):
        """An op waits for its producer; an independent younger op
        issues around it, and the waiter issues once the result is
        available."""
        _, events = _run([MicroOp(OpType.DIV), alu(deps=(1,)), alu()])
        issued = {e["seq"]: e["cycle"] for e in events["issue"]}
        done = {e["seq"]: e["cycle"] for e in events["complete"]}
        assert issued[2] < issued[1]
        assert issued[1] == done[0]

    def test_width_limit_oldest_first(self):
        _, events = _run([alu() for _ in range(5)], issue_width=2)
        order = [(e["cycle"], e["seq"]) for e in events["issue"]]
        first = order[0][0]
        assert order == [
            (first, 0),
            (first, 1),
            (first + 1, 2),
            (first + 1, 3),
            (first + 2, 4),
        ]

    def test_capacity(self):
        core, _ = _run(_behind_a_miss(3), iq_entries=1)
        assert core.iq.max_occupancy == 1
        assert core.stats.iq_full_cycles > 0
        assert len(core.iq) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            IssueQueue(0)
