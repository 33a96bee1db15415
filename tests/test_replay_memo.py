"""The replay memo of :func:`run_suite`.

Inside one suite a cell whose trace ops, REST mode, token width, token
seed, hierarchy and core equal an earlier cell's takes that cell's
replay.  These tests pin that the memo is invisible in results, that
every key field forces a replay of its own, that the memo lives only
for the length of a suite call, and that the digest is paid once per
trace and only inside a suite.
"""

from dataclasses import replace

import pytest

from repro.core.modes import Mode
from repro.cpu.pipeline import CoreConfig, OutOfOrderCore
from repro.experiments.common import make_config
from repro.harness import experiment
from repro.harness.configs import DefenseSpec, figure7_specs, figure8_specs
from repro.harness.experiment import run_benchmark, run_suite
from repro.workloads.spec import ALL_PROFILES, profile_by_name

CONFIG = make_config(scale=0.02, seed=1234)
#: lbm allocates nothing and protects no frame at this scale, so REST
#: arms nothing and its trace equals the Plain one.
LBM = profile_by_name("lbm")
XALAN = profile_by_name("xalancbmk")
#: Two cells that share one trace and differ only in the REST mode.
TWINS = [
    DefenseSpec.rest("Secure Full"),
    DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
]


@pytest.fixture
def replays(monkeypatch):
    """Count core replays (``OutOfOrderCore.run`` calls)."""
    count = {"runs": 0}
    original = OutOfOrderCore.run

    def counted(core, *args, **kwargs):
        count["runs"] += 1
        return original(core, *args, **kwargs)

    monkeypatch.setattr(OutOfOrderCore, "run", counted)
    return count


@pytest.fixture
def memo():
    """An open replay memo, as :func:`run_suite` holds one."""
    token = experiment._replay_memo.set(experiment._ReplayMemo())
    try:
        yield experiment._replay_memo.get()
    finally:
        experiment._replay_memo.reset(token)


def _alone(profiles, specs, config):
    """Per-cell records from ``run_benchmark`` outside any suite."""
    all_specs = [DefenseSpec.plain()] + list(specs)
    return {
        profile.name: {
            spec.name: run_benchmark(profile, spec, config).to_json()
            for spec in all_specs
        }
        for profile in profiles
    }


def _records(results):
    return {
        bench: {name: run.to_json() for name, run in cells.items()}
        for bench, cells in results.items()
    }


@pytest.mark.parametrize(
    "specs", [figure7_specs(), figure8_specs()], ids=["fig7", "fig8"]
)
def test_a_suite_gives_the_records_of_cells_run_alone(specs):
    suite = _records(run_suite(ALL_PROFILES, specs, CONFIG))
    assert suite == _alone(ALL_PROFILES, specs, CONFIG)


def test_fig7_replays_each_replay_input_once(replays):
    config = make_config(scale=0.05, seed=1234)
    run_suite(ALL_PROFILES, figure7_specs(), config)
    assert replays["runs"] == 63  # of 96 cells


def test_the_rest_mode_forces_a_replay(replays):
    suite = _records(run_suite([XALAN], TWINS, CONFIG, include_plain=False))
    assert replays["runs"] == 2
    secure, debug = suite["xalancbmk"].values()
    assert secure["cycles"] != debug["cycles"]
    assert suite == {
        "xalancbmk": {
            spec.name: run_benchmark(XALAN, spec, CONFIG).to_json()
            for spec in TWINS
        }
    }


def test_the_token_width_forces_a_replay(replays):
    specs = [
        DefenseSpec.rest("REST 16", token_width=16),
        DefenseSpec.rest("REST 64"),
    ]
    suite = _records(run_suite([LBM], specs, CONFIG, include_plain=False))
    assert replays["runs"] == 2
    assert suite == {
        "lbm": {
            spec.name: run_benchmark(LBM, spec, CONFIG).to_json()
            for spec in specs
        }
    }


def test_equal_traces_of_different_defenses_share_a_replay(replays):
    results = run_suite([LBM], [DefenseSpec.rest("Secure Full")], CONFIG)
    assert replays["runs"] == 1
    plain, secure = (run.to_json() for run in results["lbm"].values())
    assert plain == secure


@pytest.mark.parametrize(
    "changed",
    [
        replace(CONFIG, token_seed=CONFIG.token_seed + 1),
        replace(CONFIG, core=CoreConfig.in_order()),
    ],
    ids=["token_seed", "core"],
)
def test_a_config_field_forces_a_replay(changed, memo, replays):
    spec = DefenseSpec.rest("Secure Full")
    first = run_benchmark(XALAN, spec, CONFIG).to_json()
    second = run_benchmark(XALAN, spec, changed).to_json()
    assert replays["runs"] == 2
    assert len(memo.replays) == 2
    experiment._replay_memo.set(None)
    assert first == run_benchmark(XALAN, spec, CONFIG).to_json()
    assert second == run_benchmark(XALAN, spec, changed).to_json()


def test_the_memo_is_open_only_inside_a_suite():
    seen = []

    def progress(_label):
        seen.append(experiment._replay_memo.get())

    assert experiment._replay_memo.get() is None
    run_suite([LBM], [], CONFIG, progress=progress)
    assert seen and all(memo is not None for memo in seen)
    assert experiment._replay_memo.get() is None


def test_the_memo_closes_when_a_suite_raises():
    def progress(label):
        if label.endswith("Secure Full"):
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        run_suite(
            [LBM], [DefenseSpec.rest("Secure Full")], CONFIG, progress=progress
        )
    assert experiment._replay_memo.get() is None


def test_no_digest_outside_a_suite(monkeypatch):
    def refuse(_trace):
        raise AssertionError("digested outside a suite")

    monkeypatch.setattr(experiment, "_trace_digest", refuse)
    run_benchmark(LBM, DefenseSpec.plain(), CONFIG)


def test_a_hit_shares_no_mutable_state(memo, replays):
    plain = run_benchmark(LBM, DefenseSpec.plain(), CONFIG)
    expected = plain.to_json()
    plain.core_stats.op_counts["load"] += 1
    plain.hierarchy_stats.arms += 1

    secure = run_benchmark(LBM, DefenseSpec.rest("Secure Full"), CONFIG)
    assert replays["runs"] == 1
    assert secure.to_json() == expected
    secure.core_stats.op_counts["load"] += 1
    secure.core_stats.cycles += 1

    heap_spec = DefenseSpec.rest("Secure Heap", protect_stack=False)
    heap = run_benchmark(LBM, heap_spec, CONFIG)
    assert replays["runs"] == 1
    assert heap.to_json() == expected


def test_a_shared_trace_is_digested_once(monkeypatch, replays):
    calls = {"digests": 0}
    original = experiment._trace_digest

    def counted(trace):
        calls["digests"] += 1
        return original(trace)

    monkeypatch.setattr(experiment, "_trace_digest", counted)
    run_suite([XALAN], TWINS, CONFIG, include_plain=False)
    assert calls["digests"] == 1
    assert replays["runs"] == 2
