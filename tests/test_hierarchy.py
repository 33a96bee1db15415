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


def tiny_hierarchy(width=64, mode=Mode.SECURE, seed=1):
    """A hierarchy with a tiny L1 so evictions are easy to force."""
    reg = TokenConfigRegister(Token.random(width, seed=seed), mode=mode)
    config = HierarchyConfig(
        l1d=CacheConfig(name="L1-D", size=512, associativity=2, line_size=64),
        l2=CacheConfig(
            name="L2", size=2048, associativity=2, line_size=64, hit_latency=20
        ),
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
        """Debug holds loads in MSHRs while the word matches the token."""
        h = tiny_hierarchy(mode=Mode.DEBUG)
        h.arm(0x0)
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)  # evict armed line to memory
        before = h.l1d.mshrs.token_holds
        with pytest.raises(RestException):
            h.read(0x0, 8)  # miss on a token line
        assert h.l1d.mshrs.token_holds == before + 1


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
    """Regression tests: a dirty victim's writeback must contend for the
    write buffer (stall the fill) instead of leaving for free, and MSHR
    exhaustion must not wipe the whole file or recount misses."""

    def _contended_hierarchy(self, **kwargs):
        reg = TokenConfigRegister(Token.random(64, seed=1))
        config = HierarchyConfig(
            l1d=CacheConfig(
                name="L1-D", size=512, associativity=2, line_size=64
            ),
            l2=CacheConfig(
                name="L2", size=2048, associativity=2, line_size=64,
                hit_latency=20,
            ),
            **kwargs,
        )
        return MemoryHierarchy(config=config, token_config=reg)

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

    def test_full_buffer_stalls_fill_when_enabled(self):
        h = self._contended_hierarchy(eviction_port_stalls=True)
        baseline = self._force_dirty_eviction(h)

        h2 = self._contended_hierarchy(eviction_port_stalls=True)
        h2.write(0x0, b"dirty!")
        buffer = self._fill_write_buffer(h2)
        stalls_before = buffer.full_stalls
        set_stride = h2.l1d.config.num_sets * 64
        latency = (
            h2.read(set_stride, 4)[1].latency
            + h2.read(2 * set_stride, 4)[1].latency
        )
        # The eviction found the buffer full: the fill was stalled and
        # the stall was accounted — the writeback was not dropped.
        assert buffer.full_stalls > stalls_before
        assert latency > baseline

    def test_writeback_still_reaches_l2_when_buffer_full(self):
        h = self._contended_hierarchy(eviction_port_stalls=True)
        h.write(0x0, b"dirty!")
        self._fill_write_buffer(h)
        set_stride = h.l1d.config.num_sets * 64
        h.read(set_stride, 4)
        h.read(2 * set_stride, 4)  # evicts the dirty line
        l2_line = h.l2.lookup(0x0)
        assert l2_line is not None and l2_line.dirty

    def test_legacy_default_timing_unchanged(self):
        """Default config pins the golden timing: evictions bypass the
        write buffer, so a full buffer must not change fill latency."""
        quiet = self._contended_hierarchy()
        baseline = self._force_dirty_eviction(quiet)

        contended = self._contended_hierarchy()
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


class TestMshrExhaustion:
    def test_retire_blocking_frees_one_register_only(self):
        from repro.cache.mshr import MshrFile

        mshrs = MshrFile(registers=2, entries_per_register=2)
        mshrs.allocate(0x000)
        mshrs.allocate(0x040)
        assert mshrs.allocate(0x080) is None  # file full
        mshrs.retire_blocking(0x080)
        # Exactly one (the oldest) register retired; the other survives.
        assert mshrs.occupancy == 1
        assert mshrs.lookup(0x040) is not None
        assert mshrs.allocate(0x080) is not None

    def test_retire_blocking_prefers_the_matching_register(self):
        from repro.cache.mshr import MshrFile

        mshrs = MshrFile(registers=2, entries_per_register=1)
        mshrs.allocate(0x000)
        mshrs.allocate(0x040)
        assert mshrs.allocate(0x040) is None  # merge capacity exhausted
        mshrs.retire_blocking(0x040)
        assert mshrs.lookup(0x040) is None
        assert mshrs.lookup(0x000) is not None  # untouched

    def test_exhaustion_counts_each_miss_once(self):
        """Exercise the hierarchy's stall path directly: stats must
        count one miss and one stall cycle, and other in-flight
        registers must survive the retry."""
        reg = TokenConfigRegister(Token.random(64, seed=1))
        h = MemoryHierarchy(token_config=reg)
        # Pin the MSHR file full with unrelated outstanding misses.
        mshrs = h.l1d.mshrs
        for i in range(mshrs.registers):
            assert mshrs.allocate(0x100000 + 64 * i) is not None
        allocations_before = mshrs.allocations
        misses_before = h.l1d.stats.misses
        h._fetch_into_l1(0x2000, 0)
        assert h.l1d.stats.misses == misses_before + 1
        assert h.l1d.stats.mshr_stall_cycles == 1
        # One register retired for the stall, one allocated for the new
        # miss (and released on fill completion); the rest survive.
        assert mshrs.occupancy == mshrs.registers - 1
        assert mshrs.allocations == allocations_before + 1
