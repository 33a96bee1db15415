"""Tests for the coverage and tradeoff analyses."""

import pytest

from repro.analysis import (
    coverage_report,
    quarantine_tradeoff,
    token_width_tradeoff,
)
from repro.analysis.coverage import ATTACK_CLASSES
from repro.workloads.attacks import ATTACK_REGISTRY


class TestCoverage:
    def test_all_attacks_classified(self):
        classified = {name for names in ATTACK_CLASSES.values() for name in names}
        assert classified == set(ATTACK_REGISTRY)

    def test_rest_coverage_shape(self):
        report = coverage_report("rest")
        # Linear spatial: everything applicable stopped.
        assert report.stopped_fraction("spatial-linear") == 1.0
        # Targeted/intra-object/pad: missed by design.
        assert report.stopped_fraction("spatial-targeted") == 0.0
        # Temporal: protection until realloc — most stopped, the
        # documented post-realloc and use-after-return cases missed.
        temporal = report.stopped_fraction("temporal")
        assert 0.5 <= temporal < 1.0
        # Hardening probes all stopped.
        assert report.stopped_fraction("hardening") == 1.0

    def test_plain_coverage_near_zero(self):
        report = coverage_report("plain")
        assert report.stopped_fraction("spatial-linear") == 0.0
        assert report.stopped_fraction("temporal") == 0.0

    def test_rest_strictly_dominates_asan_on_composability(self):
        rest = coverage_report("rest")
        asan = coverage_report("asan")
        assert rest.stopped_fraction("spatial-linear") > (
            asan.stopped_fraction("spatial-linear")
        )

    def test_missed_attacks_listed(self):
        report = coverage_report("rest")
        missed = report.missed_attacks()
        assert "targeted_corruption" in missed
        assert "uaf_after_reallocation" in missed
        assert "heartbleed" not in missed


class TestQuarantineTradeoff:
    def test_window_monotonic_in_budget(self):
        points = quarantine_tradeoff(budgets=(0, 2048, 16384))
        windows = [p.protection_window for p in points]
        assert windows == sorted(windows)
        assert windows[0] <= 1

    def test_memory_cost_tracks_budget(self):
        points = quarantine_tradeoff(budgets=(1024, 65536))
        assert points[1].peak_quarantine_bytes > points[0].peak_quarantine_bytes

    def test_token_work_counted(self):
        points = quarantine_tradeoff(budgets=(4096,), churn=50)
        assert points[0].token_instructions > 0


class TestTokenWidthTradeoff:
    def test_pad_window_shrinks_with_width(self):
        points = {p.width: p for p in token_width_tradeoff()}
        assert (
            points[16].max_pad_false_negative
            < points[64].max_pad_false_negative
        )

    def test_pad_window_bounded_by_width(self):
        for point in token_width_tradeoff():
            # A size of width+1 leaves a pad of width-1 bytes.
            assert point.max_pad_false_negative == point.width - 1

    def test_blacklist_cost_inverse_to_width(self):
        points = {p.width: p for p in token_width_tradeoff()}
        assert points[16].arms_per_4k_blacklist == 256
        assert points[64].arms_per_4k_blacklist == 64

    def test_secret_bits(self):
        points = {p.width: p for p in token_width_tradeoff()}
        assert points[64].secret_bits == 512
        assert points[16].secret_bits == 128
