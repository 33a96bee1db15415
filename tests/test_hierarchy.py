"""Integration tests for the memory hierarchy with REST semantics.

These tests exercise the Table I action matrix end-to-end: arm, disarm,
load and store on cache hits and misses, plus the eviction path that
materialises token values into memory.
"""

import pytest

from repro.cache import HierarchyConfig, MemoryHierarchy
from repro.cache.cache import CacheConfig
from repro.core import (
    InvalidRestInstructionError,
    Mode,
    PrivilegeLevel,
    RestException,
    Token,
    TokenConfigRegister,
)
from repro.core.exceptions import RestFaultKind


def make_hierarchy(width=64, mode=Mode.SECURE, seed=1):
    reg = TokenConfigRegister(Token.random(width, seed=seed), mode=mode)
    return MemoryHierarchy(token_config=reg)


def tiny_hierarchy(width=64, mode=Mode.SECURE, seed=1, **overrides):
    """A hierarchy with a tiny L1 so evictions are easy to force."""
    reg = TokenConfigRegister(Token.random(width, seed=seed), mode=mode)
    config = HierarchyConfig(
        l1d=CacheConfig(name="L1-D", size=512, associativity=2, line_size=64),
        l2=CacheConfig(
            name="L2", size=2048, associativity=2, line_size=64, hit_latency=20
        ),
        **overrides,
    )
    return MemoryHierarchy(config=config, token_config=reg)


class TestPlainAccesses:
    def test_read_write_roundtrip(self):
        h = make_hierarchy()
        h.write(0x1000, b"hello")
        data, result = h.read(0x1000, 5)
        assert data == b"hello"
        assert result.l1_hit  # write-allocate brought the line in

    def test_first_access_misses(self):
        h = make_hierarchy()
        _, result = h.read(0x1000, 4)
        assert not result.l1_hit
        assert result.went_to_memory
        assert result.latency > h.config.l1d.hit_latency

    def test_second_access_hits(self):
        h = make_hierarchy()
        h.read(0x1000, 4)
        _, result = h.read(0x1004, 4)
        assert result.l1_hit
        assert result.latency == h.config.l1d.hit_latency

    def test_line_crossing_access(self):
        h = make_hierarchy()
        h.write(0x103C, b"A" * 8)  # crosses the 0x1040 line boundary
        data, _ = h.read(0x103C, 8)
        assert data == b"A" * 8

    def test_l2_hit_after_l1_eviction(self):
        h = tiny_hierarchy()
        h.read(0x0, 4)
        # Evict line 0 from tiny L1 by filling its set.
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)
        _, result = h.read(0x0, 4)
        assert not result.l1_hit and result.l2_hit

    def test_cold_stream_misses_every_line_in_l2(self):
        """4,096 distinct lines through a fresh hierarchy: each is one
        L2 miss, the fill path every cold simulation cell starts with."""
        h = MemoryHierarchy()
        for i in range(4096):
            h.read(0x100000 + 64 * i, 8)
        assert h.l2.stats.misses == 4096


class TestArmDisarm:
    def test_arm_then_load_raises(self):
        h = make_hierarchy()
        h.arm(0x1000)
        with pytest.raises(RestException) as info:
            h.read(0x1000, 8)
        assert info.value.kind is RestFaultKind.LOAD_TOUCHED_TOKEN
        assert info.value.address == 0x1000

    def test_arm_then_store_raises(self):
        h = make_hierarchy()
        h.arm(0x1000)
        with pytest.raises(RestException) as info:
            h.write(0x1008, b"\xff" * 4)
        assert info.value.kind is RestFaultKind.STORE_TOUCHED_TOKEN

    def test_arm_unaligned_raises_precise(self):
        h = make_hierarchy()
        with pytest.raises(InvalidRestInstructionError):
            h.arm(0x1001)

    def test_disarm_unaligned_raises_precise(self):
        h = make_hierarchy()
        with pytest.raises(InvalidRestInstructionError):
            h.disarm(0x1004)

    def test_disarm_unarmed_raises(self):
        h = make_hierarchy()
        with pytest.raises(RestException) as info:
            h.disarm(0x1000)
        assert info.value.kind is RestFaultKind.DISARM_UNARMED
        assert info.value.precise  # disarm faults are always precise

    def test_disarm_restores_access_and_zeroes(self):
        h = make_hierarchy()
        h.write(0x1000, b"\xaa" * 64)
        h.arm(0x1000)
        h.disarm(0x1000)
        data, _ = h.read(0x1000, 64)
        assert data == b"\x00" * 64  # disarm zeroes the slot

    def test_arm_hit_single_cycle(self):
        h = make_hierarchy()
        h.read(0x1000, 4)  # bring line in
        result = h.arm(0x1000)
        assert result.latency == 1  # paper: arm hits complete in 1 cycle

    def test_disarm_costs_extra_cycle(self):
        h = make_hierarchy()
        h.arm(0x1000)
        result = h.disarm(0x1000)
        assert result.latency == 1 + h.config.disarm_extra_cycles

    def test_adjacent_data_unaffected(self):
        h = make_hierarchy()
        h.write(0x10C0, b"B" * 64)
        h.arm(0x1100)
        data, _ = h.read(0x10C0, 64)
        assert data == b"B" * 64

    def test_narrow_token_slots_independent(self):
        h = make_hierarchy(width=16)
        h.write(0x1000, b"C" * 64)
        h.arm(0x1010)  # slot 1 of the line
        data, _ = h.read(0x1000, 16)  # slot 0 still fine
        assert data == b"C" * 16
        data, _ = h.read(0x1020, 16)  # slot 2 fine
        assert data == b"C" * 16
        with pytest.raises(RestException):
            h.read(0x1010, 1)

    def test_access_spanning_into_token_slot_raises(self):
        h = make_hierarchy(width=16)
        h.arm(0x1010)
        with pytest.raises(RestException):
            h.read(0x100C, 8)  # touches slots 0 and 1


class TestEvictionSemantics:
    def test_token_value_written_on_eviction(self):
        h = tiny_hierarchy()
        token = h.detector.token
        h.arm(0x0)
        # Before eviction the backing store does NOT hold the token:
        # arm only set the bit (the single-cycle-arm optimisation).
        assert h.backing.read(0x0, 64) != token.value
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)  # evicts the armed line
        assert h.backing.read(0x0, 64) == token.value

    def test_refetched_token_line_detected(self):
        h = tiny_hierarchy()
        h.arm(0x0)
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)
        # Line 0 was evicted with the token; refetching must re-detect it.
        with pytest.raises(RestException):
            h.read(0x0, 8)

    def test_writeback_all_materialises_tokens(self):
        h = make_hierarchy()
        token = h.detector.token
        h.arm(0x2000)
        h.writeback_all()
        assert h.backing.read(0x2000, 64) == token.value
        # And the token survives a cold refetch.
        with pytest.raises(RestException):
            h.read(0x2000, 4)

    def test_is_armed_probe(self):
        h = make_hierarchy()
        h.arm(0x3000)
        assert h.is_armed(0x3000)
        assert not h.is_armed(0x3040)
        h.writeback_all()
        assert h.is_armed(0x3000)  # now via backing-store pattern
        h.disarm(0x3000)
        assert not h.is_armed(0x3000)


class TestModes:
    def test_secure_mode_imprecise_loads(self):
        h = make_hierarchy(mode=Mode.SECURE)
        h.arm(0x1000)
        with pytest.raises(RestException) as info:
            h.read(0x1000, 8)
        assert not info.value.precise

    def test_debug_mode_precise_loads(self):
        h = make_hierarchy(mode=Mode.DEBUG)
        h.arm(0x1000)
        with pytest.raises(RestException) as info:
            h.read(0x1000, 8)
        assert info.value.precise

    def test_debug_mode_token_hold_latency(self):
        """A debug-mode load that misses on a line carrying token bits
        is held for ``debug_token_hold_cycles``; other misses are not."""

        def miss_latency(hold_cycles, armed):
            h = tiny_hierarchy(
                width=32, mode=Mode.DEBUG, debug_token_hold_cycles=hold_cycles
            )
            if armed:
                h.arm(0x0)  # the line's first 32-byte slot only
            set_stride = h.l1d.config.num_sets * 64
            h.read(set_stride, 4)
            h.read(2 * set_stride, 4)  # evict line 0x0 to memory
            _, result = h.read(0x20, 8)  # the line's unarmed slot
            assert not result.l1_hit
            return result.latency

        assert miss_latency(7, armed=True) == miss_latency(0, armed=True) + 7
        assert miss_latency(7, armed=False) == miss_latency(0, armed=False)


class TestPrivilegeAndStats:
    def test_syscall_access_to_token_raises(self):
        """Token manipulation via syscalls is prevented (paper §V-C)."""
        h = make_hierarchy()
        h.arm(0x1000)
        with pytest.raises(RestException) as info:
            h.read(0x1000, 8, privilege=PrivilegeLevel.SUPERVISOR)
        assert info.value.kind is RestFaultKind.SYSCALL_TOUCHED_TOKEN

    def test_stats_counters(self):
        h = make_hierarchy()
        h.arm(0x1000)
        h.disarm(0x1000)
        h.arm(0x2000)
        with pytest.raises(RestException):
            h.read(0x2000, 4)
        assert h.stats.arms == 2
        assert h.stats.disarms == 1
        assert h.stats.token_faults == 1

    def test_tokens_at_memory_interface_counted(self):
        h = tiny_hierarchy()
        h.arm(0x0)
        set_stride = h.l1d.config.num_sets * 64
        # Thrash both L1 and L2 so the token line reaches memory and back.
        for i in range(1, 40):
            h.read(i * set_stride, 4)
        with pytest.raises(RestException):
            h.read(0x0, 4)
        assert h.stats.tokens_at_memory_interface >= 1


class TestEvictionWriteBufferContention:
    """A dirty victim's writeback bypasses the L1 write buffer: a full
    buffer never stalls the fill that evicts it."""

    def _fill_write_buffer(self, h):
        buffer = h.l1d.write_buffer
        # Past full even after the per-access background drain.
        buffer._occupancy = buffer.entries + buffer.drain_per_access
        return buffer

    def _force_dirty_eviction(self, h):
        """Dirty a line, then read two more lines of the same set."""
        set_stride = h.l1d.config.num_sets * 64
        h.write(0x0, b"dirty!")
        latency = 0
        for probe in (set_stride, 2 * set_stride):
            latency += h.read(probe, 4)[1].latency
        return latency

    def test_eviction_never_waits_on_write_buffer(self):
        baseline = self._force_dirty_eviction(tiny_hierarchy())

        contended = tiny_hierarchy()
        contended.write(0x0, b"dirty!")
        buffer = self._fill_write_buffer(contended)
        inserts_before = buffer.inserts
        set_stride = contended.l1d.config.num_sets * 64
        latency = (
            contended.read(set_stride, 4)[1].latency
            + contended.read(2 * set_stride, 4)[1].latency
        )
        assert latency == baseline
        assert buffer.inserts == inserts_before

    def test_writeback_still_reaches_l2_when_buffer_full(self):
        h = tiny_hierarchy()
        h.write(0x0, b"dirty!")
        self._fill_write_buffer(h)
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)  # evicts the dirty line
        l2_line = h.l2.lookup(0x0)
        assert l2_line is not None and l2_line.dirty
