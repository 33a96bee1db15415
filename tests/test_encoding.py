"""Tests for the binary trace encoding (arm/disarm get real opcodes)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.encoding import (
    RECORD_SIZE,
    EncodingError,
    decode_trace,
    decode_uop,
    encode_trace,
    encode_uop,
)
from repro.cpu.isa import MicroOp, OpType


def roundtrip(uop):
    return decode_uop(encode_uop(uop))


class TestRecordRoundtrip:
    def test_alu(self):
        out = roundtrip(MicroOp(OpType.ALU, pc=0x400, deps=(1,)))
        assert out.op is OpType.ALU and out.pc == 0x400 and out.deps == (1,)

    def test_load_with_64bit_address(self):
        uop = MicroOp(OpType.LOAD, address=0x7FFF_F000_0040, size=8, deps=(3, 7))
        out = roundtrip(uop)
        assert out.op is OpType.LOAD
        assert out.address == 0x7FFF_F000_0040
        assert out.size == 8 and out.deps == (3, 7)

    def test_branch_taken_flag(self):
        assert roundtrip(MicroOp(OpType.BRANCH, taken=True)).taken is True
        assert roundtrip(MicroOp(OpType.BRANCH, taken=False)).taken is False
        assert roundtrip(MicroOp(OpType.ALU)).taken is None

    def test_arm_disarm_opcodes(self):
        # 0xAE/0xAF — the xsave/xrstor nod from the paper.
        assert encode_uop(MicroOp(OpType.ARM, address=0x1000))[0] == 0xAE
        assert encode_uop(MicroOp(OpType.DISARM, address=0x1000))[0] == 0xAF

    def test_record_is_fixed_width(self):
        assert len(encode_uop(MicroOp(OpType.NOP))) == RECORD_SIZE == 24

    def test_bad_record_length(self):
        with pytest.raises(EncodingError):
            decode_uop(b"\x00" * 8)

    def test_unknown_opcode(self):
        with pytest.raises(EncodingError):
            decode_uop(b"\x77" + b"\x00" * (RECORD_SIZE - 1))

    def test_dependency_distance_range(self):
        with pytest.raises(EncodingError):
            encode_uop(MicroOp(OpType.ALU, deps=(70_000,)))


class TestTraceRoundtrip:
    def test_header_and_body(self):
        trace = [
            MicroOp(OpType.ARM, address=0x1000),
            MicroOp(OpType.LOAD, address=0x2000, size=4),
            MicroOp(OpType.DISARM, address=0x1000),
        ]
        data = encode_trace(trace)
        out = decode_trace(data)
        assert [u.op for u in out] == [u.op for u in trace]
        assert out[0].address == 0x1000

    def test_empty_trace(self):
        assert decode_trace(encode_trace([])) == []

    def test_bad_magic(self):
        data = bytearray(encode_trace([]))
        data[0] = ord("X")
        with pytest.raises(EncodingError):
            decode_trace(bytes(data))

    def test_version_1_trace_is_refused(self):
        """Version 1 records dropped the pc of memory ops; reading one
        as version 2 would misplace every field."""
        data = bytearray(encode_trace([MicroOp(OpType.ALU)]))
        data[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(EncodingError, match="version 1"):
            decode_trace(bytes(data))

    def test_truncated_body(self):
        data = encode_trace([MicroOp(OpType.ALU)])
        with pytest.raises(EncodingError):
            decode_trace(data[:-4])

    def test_generated_workload_trace_roundtrips(self):
        from repro.harness.configs import DefenseSpec, SimulationConfig
        from repro.harness.experiment import build_trace
        from repro.workloads import profile_by_name

        trace, _ = build_trace(
            profile_by_name("xalancbmk"),
            DefenseSpec.rest("Secure Full"),
            SimulationConfig(scale=0.05),
        )
        out = decode_trace(encode_trace(trace))
        assert len(out) == len(trace)
        for original, decoded in zip(trace, out):
            assert original.op is decoded.op
            if original.op.is_memory:
                assert original.address == decoded.address

    def test_decoded_trace_replays_identically(self):
        """Cycle counts match between original and decoded traces."""
        from repro.cache import MemoryHierarchy
        from repro.cpu import OutOfOrderCore
        from repro.cpu.isa import alu, arm_op, disarm_op, load, store

        trace = []
        for i in range(50):
            trace.append(arm_op(0x10000 + 64 * i))
            trace.append(alu(deps=(1,)))
            trace.append(store(0x20000 + 64 * i, 8))
            trace.append(load(0x20000 + 64 * i, 8, deps=(1,)))
            trace.append(disarm_op(0x10000 + 64 * i))
        decoded = decode_trace(encode_trace(trace))
        original_cycles = OutOfOrderCore(MemoryHierarchy()).run(trace).cycles
        decoded_cycles = OutOfOrderCore(MemoryHierarchy()).run(decoded).cycles
        assert original_cycles == decoded_cycles


@pytest.mark.parametrize("profile", ["xalancbmk", "lbm", "sjeng"])
def test_recorded_trace_replays_like_the_trace_in_memory(profile):
    """A recorded cell replays with the same CoreStats as the trace it
    was recorded from: memory ops keep their pc, so fetch walks the
    same I-cache lines."""
    from repro.cpu import OutOfOrderCore
    from repro.harness.configs import DefenseSpec, SimulationConfig
    from repro.harness.experiment import _make_hierarchy, build_trace
    from repro.workloads import profile_by_name

    spec = DefenseSpec(name="rest", defense="rest")
    config = SimulationConfig(scale=0.05)
    trace, _ = build_trace(profile_by_name(profile), spec, config)
    decoded = decode_trace(encode_trace(trace))

    def replay(uops):
        core = OutOfOrderCore(
            _make_hierarchy(spec, config), config=config.core
        )
        return core.run(uops)

    assert replay(decoded) == replay(trace)


class TestEncodingProperties:
    @given(
        st.sampled_from(list(OpType)),
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=255),
        st.lists(st.integers(min_value=1, max_value=65535), max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_any_op(self, op, payload, size, deps):
        uop = MicroOp(
            op,
            pc=payload if not op.is_memory else 0,
            address=payload if op.is_memory else 0,
            size=size,
            deps=tuple(deps),
        )
        out = roundtrip(uop)
        assert out.op is uop.op
        assert out.size == size
        assert out.deps == tuple(deps)
        if op.is_memory:
            assert out.address == payload
        else:
            assert out.pc == payload
