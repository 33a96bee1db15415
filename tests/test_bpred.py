"""Tests for the branch predictor model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import BranchPredictor


def reference_predict_and_update(bp: BranchPredictor, pc: int, taken: bool) -> bool:
    """The predictor's update as first written (tuples and min/max):
    the oracle the tuple-free ``predict_and_update`` must match."""
    base = (pc >> 2) & bp._mask
    gidx = base ^ (bp._history & bp._mask)
    gshare_taken = bp._gshare[gidx] >= 2
    bimodal_taken = bp._bimodal[base] >= 2
    use_gshare = bp._chooser[base] >= 2
    predicted = gshare_taken if use_gshare else bimodal_taken
    correct = predicted == taken

    bp.predictions += 1
    if not correct:
        bp.mispredictions += 1

    if gshare_taken != bimodal_taken:
        if gshare_taken == taken:
            bp._chooser[base] = min(3, bp._chooser[base] + 1)
        else:
            bp._chooser[base] = max(0, bp._chooser[base] - 1)
    for table, idx in ((bp._gshare, gidx), (bp._bimodal, base)):
        if taken:
            table[idx] = min(3, table[idx] + 1)
        else:
            table[idx] = max(0, table[idx] - 1)
    bp._history = ((bp._history << 1) | int(taken)) & bp._history_mask
    return correct


class TestBranchPredictor:
    def test_learns_always_taken(self):
        bp = BranchPredictor()
        for _ in range(100):
            bp.predict_and_update(0x400, True)
        assert bp.accuracy > 0.9

    def test_learns_never_taken(self):
        bp = BranchPredictor()
        for _ in range(100):
            bp.predict_and_update(0x400, False)
        # Counters initialise weakly-taken, so early misses happen.
        assert bp.mispredictions <= 5

    def test_learns_alternating_pattern_via_history(self):
        bp = BranchPredictor()
        for i in range(2000):
            bp.predict_and_update(0x400, i % 2 == 0)
        bp.reset_stats()
        for i in range(200):
            bp.predict_and_update(0x400, i % 2 == 0)
        assert bp.accuracy > 0.95

    def test_loop_branch_pattern(self):
        """A loop taken 15 times then not-taken once, repeatedly."""
        bp = BranchPredictor()
        for _ in range(50):
            for i in range(16):
                bp.predict_and_update(0x400, i != 15)
        assert bp.accuracy > 0.85

    def test_distinct_pcs_do_not_interfere(self):
        bp = BranchPredictor()
        for _ in range(200):
            bp.predict_and_update(0x400, True)
            bp.predict_and_update(0x800, False)
        assert bp.accuracy > 0.9

    def test_accuracy_with_no_predictions(self):
        assert BranchPredictor().accuracy == 1.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchPredictor(table_bits=0)

    def test_reset_stats(self):
        bp = BranchPredictor()
        bp.predict_and_update(0, True)
        bp.reset_stats()
        assert bp.predictions == 0 and bp.mispredictions == 0


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        table_bits=st.integers(1, 6),
        history_bits=st.integers(0, 8),
        branches=st.lists(
            st.tuples(st.integers(0, 1 << 10), st.booleans()), max_size=300
        ),
    )
    def test_same_predictions_and_state(self, table_bits, history_bits, branches):
        """Small tables alias pcs and saturate counters both ways."""
        fast = BranchPredictor(table_bits, history_bits)
        oracle = BranchPredictor(table_bits, history_bits)
        for pc, taken in branches:
            assert fast.predict_and_update(pc, taken) == (
                reference_predict_and_update(oracle, pc, taken)
            )
        assert fast._gshare == oracle._gshare
        assert fast._bimodal == oracle._bimodal
        assert fast._chooser == oracle._chooser
        assert fast._history == oracle._history
        assert (fast.predictions, fast.mispredictions) == (
            oracle.predictions,
            oracle.mispredictions,
        )
