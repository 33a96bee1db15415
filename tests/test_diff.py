"""Tests for the differential trace profiler (repro.obs.diff).

Covers the anchor-and-resync aligner, the per-PC apportionment
invariant (column sums equal the aggregate buckets exactly, under
hypothesis-generated carriers and clamped buckets), the committed
stream identity checks, the canonical trace-diff/v1 artifact
(determinism, token-site attribution), and the CLI surface.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.diff import (
    CAUSE_BUCKET,
    UNATTRIBUTED_PC,
    align_streams,
    build_trace_diff,
    check_commit_invariants,
    committed_stream,
    per_pc_attribution,
    render_diff_text,
    write_trace_diff,
)
from repro.obs.stalls import STALL_BUCKETS, largest_remainder


class TestAlignment:
    def test_identical_streams_fully_pair(self):
        keys = [(0x400, "alu"), (0x404, "load"), (0x408, "store")] * 5
        result = align_streams(keys, list(keys))
        assert result["pairs"] == [(i, i) for i in range(len(keys))]
        assert result["a_only"] == [] and result["b_only"] == []
        assert result["resyncs"] == 0

    def test_insertions_in_b_go_one_sided(self):
        a = [(pc, "alu") for pc in range(10)]
        b = a[:4] + [(99, "arm"), (99, "arm")] + a[4:]
        result = align_streams(a, b)
        assert len(result["pairs"]) == 10
        assert result["a_only"] == []
        assert [b[i] for i in result["b_only"]] == [(99, "arm")] * 2
        assert result["resyncs"] == 1

    def test_deletions_from_a_go_one_sided(self):
        a = [(pc, "alu") for pc in range(10)]
        b = a[:3] + a[6:]
        result = align_streams(a, b)
        assert len(result["pairs"]) == 7
        assert result["a_only"] == [3, 4, 5]
        assert result["b_only"] == []

    def test_unresyncable_tails_stay_unmatched(self):
        a = [(pc, "alu") for pc in range(5)]
        b = [(pc + 1000, "alu") for pc in range(5)]
        result = align_streams(a, b, window=8)
        assert result["pairs"] == []
        assert result["a_only"] == list(range(5))
        assert result["b_only"] == list(range(5))

    def test_alignment_is_deterministic(self):
        a = [(pc % 7, "alu") for pc in range(50)]
        b = [(pc % 7, "alu") for pc in range(3, 53)]
        assert align_streams(a, b) == align_streams(a, b)


class TestCommitInvariants:
    def test_dense_increasing_passes(self):
        commits = [
            {"kind": "commit", "cycle": i, "seq": 10 + i} for i in range(5)
        ]
        check_commit_invariants(commits)

    def test_non_increasing_raises(self):
        commits = [
            {"kind": "commit", "cycle": 0, "seq": 2},
            {"kind": "commit", "cycle": 1, "seq": 2},
        ]
        with pytest.raises(ValueError, match="strictly increasing"):
            check_commit_invariants(commits)

    def test_gap_raises_only_without_drops(self):
        commits = [
            {"kind": "commit", "cycle": 0, "seq": 0},
            {"kind": "commit", "cycle": 1, "seq": 5},
        ]
        with pytest.raises(ValueError, match="dense"):
            check_commit_invariants(commits, dropped=0)
        check_commit_invariants(commits, dropped=3)  # ring wrapped

    def test_missing_seq_raises(self):
        with pytest.raises(ValueError, match="seq"):
            check_commit_invariants([{"kind": "commit", "cycle": 0}])


def _synthetic_events(draw):
    pcs = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    events = []
    cycle = 0
    n_commits = draw(st.integers(min_value=1, max_value=25))
    for seq in range(n_commits):
        cycle += draw(st.integers(min_value=0, max_value=3))
        events.append(
            {
                "kind": "commit",
                "cycle": cycle,
                "seq": seq,
                "pc": draw(st.sampled_from(pcs)),
                "op": "alu",
            }
        )
    for cause in sorted(CAUSE_BUCKET):
        for pc in pcs:
            cycles = draw(st.integers(min_value=0, max_value=50))
            if cycles:
                events.append(
                    {
                        "kind": "pcstall",
                        "cycle": cycle,
                        "cause": cause,
                        "pc": pc,
                        "cycles": cycles,
                    }
                )
    return events


@st.composite
def _attribution_case(draw):
    events = _synthetic_events(draw)
    # Aggregate buckets chosen independently of the carriers — the
    # clamped decomposition generally disagrees with the raw counters,
    # which is exactly the case apportionment must handle.
    buckets = {
        name: draw(st.integers(min_value=0, max_value=300))
        for name in STALL_BUCKETS
    }
    return events, buckets


class TestPerPcAttribution:
    @settings(max_examples=100, deadline=None)
    @given(case=_attribution_case())
    def test_columns_sum_exactly_to_buckets(self, case):
        events, buckets = case
        rows, _meta = per_pc_attribution(events, buckets)
        for name in STALL_BUCKETS:
            assert (
                sum(row[name] for row in rows.values()) == buckets[name]
            )
            assert all(row[name] >= 0 for row in rows.values())

    def test_unclamped_buckets_reproduce_raw_counts(self):
        events = [
            {"kind": "commit", "cycle": 1, "seq": 0, "pc": 4, "op": "alu"},
            {"kind": "commit", "cycle": 2, "seq": 1, "pc": 8, "op": "alu"},
            {"kind": "pcstall", "cycle": 2, "cause": "iq", "pc": 4,
             "cycles": 7},
            {"kind": "pcstall", "cycle": 2, "cause": "iq", "pc": 8,
             "cycles": 3},
        ]
        # Aggregate equals the raw carrier sum: shares must be verbatim.
        buckets = dict.fromkeys(STALL_BUCKETS, 0)
        buckets["iq_full"] = 10
        buckets["base"] = 2
        rows, _ = per_pc_attribution(events, buckets)
        assert rows[4]["iq_full"] == 7
        assert rows[8]["iq_full"] == 3
        assert rows[4]["base"] == 1 and rows[8]["base"] == 1

    def test_carrierless_mass_goes_unattributed(self):
        events = [
            {"kind": "commit", "cycle": 1, "seq": 0, "pc": 4, "op": "alu"},
        ]
        buckets = dict.fromkeys(STALL_BUCKETS, 0)
        buckets["base"] = 1
        buckets["other"] = 9  # no "rob" pcstall carrier exists
        rows, _ = per_pc_attribution(events, buckets)
        assert rows[UNATTRIBUTED_PC]["other"] == 9
        assert sum(row["other"] for row in rows.values()) == 9

    def test_lq_and_sq_merge_into_lsq_full(self):
        events = [
            {"kind": "commit", "cycle": 1, "seq": 0, "pc": 4, "op": "alu"},
            {"kind": "pcstall", "cycle": 1, "cause": "lq", "pc": 4,
             "cycles": 6},
            {"kind": "pcstall", "cycle": 1, "cause": "sq", "pc": 4,
             "cycles": 4},
        ]
        buckets = dict.fromkeys(STALL_BUCKETS, 0)
        buckets["lsq_full"] = 10
        buckets["base"] = 1
        rows, _ = per_pc_attribution(events, buckets)
        assert rows[4]["lsq_full"] == 10


@pytest.fixture(scope="module")
def diff_run(tmp_path_factory):
    """Observed plain + rest-debug run with events, plus the diff."""
    from repro.obs.runner import run_observed

    outdir = tmp_path_factory.mktemp("diffrun")
    payload = run_observed(
        outdir,
        modes=["plain", "rest-debug"],
        scale=0.03,
        seed=7,
        interval=500,
        ring_capacity=1 << 20,
        events=True,
        o3=True,
        diff=("plain", "rest-debug"),
    )
    return outdir, payload


class TestTraceDiffArtifact:
    def test_runner_wrote_artifact(self, diff_run):
        outdir, payload = diff_run
        assert payload["diff_file"] == "trace-diff.json"
        artifact = json.loads((outdir / "trace-diff.json").read_text())
        assert artifact["format"] == "trace-diff/v1"
        assert artifact["kind"] == "modes"

    def test_per_pc_sums_match_run_json_buckets(self, diff_run):
        outdir, _ = diff_run
        artifact = json.loads((outdir / "trace-diff.json").read_text())
        run = json.loads((outdir / "run.json").read_text())
        for mode in ("plain", "rest-debug"):
            aggregate = run["modes"][mode]["buckets"]
            per_pc = artifact["modes"][mode]["per_pc"]
            for name in STALL_BUCKETS:
                assert (
                    sum(row["buckets"][name] for row in per_pc)
                    == aggregate[name]
                ), (mode, name)

    def test_artifact_is_byte_deterministic(self, diff_run, tmp_path):
        outdir, _ = diff_run
        first = build_trace_diff(outdir, "plain", "rest-debug")
        second = build_trace_diff(outdir, "plain", "rest-debug")
        write_trace_diff(first, tmp_path / "one.json")
        write_trace_diff(second, tmp_path / "two.json")
        assert (
            (tmp_path / "one.json").read_bytes()
            == (tmp_path / "two.json").read_bytes()
        )
        # And identical to what the runner wrote during the run.
        assert (
            (tmp_path / "one.json").read_bytes()
            == (outdir / "trace-diff.json").read_bytes()
        )

    def test_alignment_isolates_defense_insertions(self, diff_run):
        outdir, _ = diff_run
        artifact = json.loads((outdir / "trace-diff.json").read_text())
        alignment = artifact["alignment"]
        assert alignment["pairs"] > 0
        # rest-debug inserts arm/disarm ops plain never commits.
        assert alignment["b_only_ops"].get("arm", 0) > 0
        assert "arm" not in alignment["a_only_ops"]

    def test_rob_store_delta_lands_on_token_sites(self, diff_run):
        """Debug mode's headline mechanism (ROB head blocked on a
        store) must be attributed to store-like PCs — the arm/disarm
        and redzone-adjacent store sites the paper discusses."""
        outdir, _ = diff_run
        artifact = json.loads((outdir / "trace-diff.json").read_text())
        per_pc = artifact["modes"]["rest-debug"]["per_pc"]
        carriers = [
            row for row in per_pc if row["buckets"]["rob_store_blocked"]
        ]
        assert carriers, "rest-debug must have rob-store stalls"
        heaviest = max(
            carriers, key=lambda r: r["buckets"]["rob_store_blocked"]
        )
        assert set(heaviest["ops"]) & {"arm", "disarm", "store"}

    def test_timeline_and_render(self, diff_run):
        outdir, _ = diff_run
        artifact = json.loads((outdir / "trace-diff.json").read_text())
        points = artifact["timeline"]["points"]
        assert points and all(isinstance(p, int) for p in points)
        text = "\n".join(render_diff_text(artifact))
        assert "trace diff — plain vs rest-debug" in text
        assert "delta by stall bucket" in text
        assert "top delta PCs" in text

    def test_report_includes_diff_sections(self, diff_run):
        from repro.obs.report import render_html, render_text

        outdir, _ = diff_run
        text = render_text(outdir)
        assert "trace diff — plain vs rest-debug" in text
        html = render_html(outdir)
        assert "trace diff" in html and "top delta PCs" in html

    def test_unknown_mode_rejected(self, diff_run):
        outdir, _ = diff_run
        with pytest.raises(ValueError, match="not in run.json"):
            build_trace_diff(outdir, "plain", "asan")

    def test_fast_tier_run_rejected(self, tmp_path):
        (tmp_path / "run.json").write_text(
            json.dumps({"tier": "fast", "modes": {}})
        )
        with pytest.raises(ValueError, match="fast tier"):
            build_trace_diff(tmp_path, "plain", "rest-debug")

    def test_missing_events_file_rejected(self, diff_run, tmp_path):
        outdir, _ = diff_run
        run = json.loads((outdir / "run.json").read_text())
        (tmp_path / "run.json").write_text(json.dumps(run))
        with pytest.raises(FileNotFoundError):
            build_trace_diff(tmp_path, "plain", "rest-debug")


class TestDiffCli:
    def test_diff_cli_writes_artifact(self, diff_run, tmp_path, capsys):
        from repro.__main__ import main

        outdir, _ = diff_run
        out = tmp_path / "d.json"
        assert main(
            ["diff", str(outdir), "--out", str(out), "--top", "5"]
        ) == 0
        assert json.loads(out.read_text())["format"] == "trace-diff/v1"
        assert "trace diff" in capsys.readouterr().out

    def test_diff_cli_missing_dir_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["diff", str(tmp_path / "nope")]) == 2
        assert "diff failed" in capsys.readouterr().out

    def test_diff_cli_requires_dir(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as err:
            main(["diff"])
        assert err.value.code == 2
        assert "dir" in capsys.readouterr().err

    def test_run_cli_rejects_diff_without_trace_out(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(
            ["run", "--outdir", str(tmp_path), "--diff", "plain",
             "rest-debug"]
        ) == 2
        assert "--trace-out" in capsys.readouterr().out

    def test_runner_rejects_diff_without_events(self, tmp_path):
        from repro.obs.runner import run_observed

        with pytest.raises(ValueError, match="event streams"):
            run_observed(
                tmp_path, modes=["plain"], scale=0.01,
                diff=("plain", "plain"),
            )


class TestCommittedStream:
    def test_filters_commits_in_order(self):
        events = [
            {"kind": "fetch", "cycle": 0, "seq": 0},
            {"kind": "commit", "cycle": 3, "seq": 0, "pc": 4},
            {"kind": "pcstall", "cycle": 5, "cause": "iq", "pc": 4,
             "cycles": 1},
            {"kind": "commit", "cycle": 4, "seq": 1, "pc": 8},
        ]
        commits = committed_stream(events)
        assert [e["seq"] for e in commits] == [0, 1]

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1,
            max_size=12,
        ),
        total=st.integers(min_value=0, max_value=10**6),
    )
    def test_largest_remainder_partitions_exactly(self, weights, total):
        shares = largest_remainder(weights, total)
        if not sum(weights):
            assert shares == [0] * len(weights)
        else:
            assert sum(shares) == total
            for weight, share in zip(weights, shares):
                if not weight:
                    assert share == 0
