"""Tests for the load/store queue and its REST forwarding checks."""

import pytest

from repro.core import RestException
from repro.core.exceptions import RestFaultKind
from repro.cpu import LoadStoreQueue, SqEntryKind


class TestDispatchAndOccupancy:
    def test_capacities(self):
        lsq = LoadStoreQueue(lq_entries=2, sq_entries=2)
        lsq.dispatch_load(0)
        lsq.dispatch_load(1)
        assert lsq.lq_full
        with pytest.raises(RuntimeError):
            lsq.dispatch_load(2)

    def test_sq_overflow(self):
        lsq = LoadStoreQueue(sq_entries=1)
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 8)
        assert lsq.sq_full
        with pytest.raises(RuntimeError):
            lsq.dispatch_store_like(1, SqEntryKind.STORE, 0x200, 8)

    def test_retire_frees_entries(self):
        lsq = LoadStoreQueue(lq_entries=1, sq_entries=1)
        lsq.dispatch_load(0)
        lsq.retire_load(0)
        assert not lsq.lq_full
        lsq.dispatch_store_like(1, SqEntryKind.STORE, 0x100, 8)
        lsq.retire_store_like(1)
        assert not lsq.sq_full

    def test_store_likes_retire_from_the_head_only(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 8)
        lsq.dispatch_store_like(1, SqEntryKind.ARM, 0x140, 64)
        with pytest.raises(RuntimeError):
            lsq.retire_store_like(1)
        lsq.retire_store_like(0)
        lsq.retire_store_like(1)
        assert lsq.sq_occupancy == 0
        lsq.check_store(2, 0x140, 8)  # the retired arm no longer gates

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LoadStoreQueue(lq_entries=0)

    def test_arm_entries_carry_no_value(self):
        lsq = LoadStoreQueue()
        entry = lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
        assert not entry.has_value
        entry = lsq.dispatch_store_like(1, SqEntryKind.STORE, 0x2000, 8)
        assert entry.has_value


class TestForwarding:
    def test_store_forwards_to_covered_load(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 16)
        match = lsq.search_for_load(1, 0x104, 8)
        assert match is not None and match.seq == 0
        assert lsq.forwards == 1

    def test_partial_cover_does_not_forward(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 8)
        assert lsq.search_for_load(1, 0x104, 8) is None

    def test_younger_store_does_not_forward_to_older_load(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(5, SqEntryKind.STORE, 0x100, 8)
        assert lsq.search_for_load(3, 0x100, 8) is None

    def test_youngest_covering_store_wins(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 8)
        lsq.dispatch_store_like(1, SqEntryKind.STORE, 0x100, 8)
        match = lsq.search_for_load(2, 0x100, 8)
        assert match is not None and match.seq == 1

    def test_drained_store_does_not_forward(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.STORE, 0x100, 8)
        lsq.retire_store_like(0)
        assert lsq.search_for_load(1, 0x100, 8) is None

    def test_disarm_never_forwards(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.DISARM, 0x100, 64)
        assert lsq.search_for_load(1, 0x100, 8) is None


class TestRestViolations:
    def test_load_hitting_inflight_arm_raises(self):
        """Figure 5: forwarding from an arm leaks the token — raise."""
        lsq = LoadStoreQueue(line_size=64)
        lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
        with pytest.raises(RestException) as info:
            lsq.search_for_load(1, 0x1008, 8)
        assert info.value.kind is RestFaultKind.LSQ_FORWARD_FROM_ARM
        assert lsq.rest_violations == 1

    def test_load_to_other_line_unaffected_by_arm(self):
        lsq = LoadStoreQueue(line_size=64)
        lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
        assert lsq.search_for_load(1, 0x1040, 8) is None

    def test_store_over_inflight_arm_raises(self):
        lsq = LoadStoreQueue(line_size=64)
        lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
        with pytest.raises(RestException) as info:
            lsq.check_store(1, 0x1010, 8)
        assert info.value.kind is RestFaultKind.LSQ_STORE_OVER_ARM

    def test_double_inflight_disarm_raises(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.DISARM, 0x1000, 64)
        with pytest.raises(RestException) as info:
            lsq.dispatch_store_like(1, SqEntryKind.DISARM, 0x1000, 64)
        assert info.value.kind is RestFaultKind.LSQ_DOUBLE_DISARM

    def test_disarm_to_different_location_ok(self):
        lsq = LoadStoreQueue()
        lsq.dispatch_store_like(0, SqEntryKind.DISARM, 0x1000, 64)
        lsq.dispatch_store_like(1, SqEntryKind.DISARM, 0x1040, 64)
        assert lsq.sq_occupancy == 2

    def test_drained_arm_does_not_trigger(self):
        lsq = LoadStoreQueue(line_size=64)
        lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
        lsq.retire_store_like(0)
        assert lsq.search_for_load(1, 0x1008, 8) is None
        lsq.check_store(2, 0x1008, 8)  # no raise

    def test_older_load_unaffected_by_younger_arm(self):
        lsq = LoadStoreQueue(line_size=64)
        lsq.dispatch_store_like(5, SqEntryKind.ARM, 0x1000, 64)
        assert lsq.search_for_load(2, 0x1008, 8) is None
