"""Contract suite for the defense-plugin registry and the MTE plugin.

Every plugin the registry knows must satisfy the same lifecycle
contract (fresh-machine isolation, functional/trace parity, globals
registration, stable mode naming); the registry itself must reject
unknown modes with actionable suggestions; and the MTE plugin must
reproduce the coverage and overhead relationships the defense-zoo
experiment asserts (sync between REST and ASan on alloc-heavy
workloads, async cheaper than sync but imprecise).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.defenses import (
    DEFENSE_MODES,
    MteDefense,
    canonical_mode,
    get_plugin,
    make_defense,
)
from repro.defenses.plugin import registered_aliases, registered_plugins
from repro.runtime import Machine
from repro.runtime.machine import ExecutionMode
from repro.runtime.mte import MteViolation, TagSequencer

REPO = Path(__file__).resolve().parent.parent


# -- registry contract ------------------------------------------------------


def test_registry_exposes_all_modes():
    assert DEFENSE_MODES == (
        "none", "asan", "rest", "rest-heap", "softrest",
        "mte", "mte-async", "mte-asymm",
    )
    assert set(registered_aliases()) == {"plain", "mte-sync"}


def test_canonical_mode_resolves_aliases():
    assert canonical_mode("plain") == "none"
    assert canonical_mode("mte-sync") == "mte"
    for mode in DEFENSE_MODES:
        assert canonical_mode(mode) == mode


def test_unknown_mode_error_carries_suggestions():
    with pytest.raises(ValueError) as excinfo:
        canonical_mode("mte-asycn")
    message = str(excinfo.value)
    assert "unknown defense mode 'mte-asycn'" in message
    assert "did you mean" in message
    assert "mte-async" in message
    assert "aliases: mte-sync, plain" in message


def test_make_defense_rejects_unknown_mode():
    with pytest.raises(ValueError):
        make_defense("restt")


def test_cli_attack_unknown_defense_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "attack", "all",
         "--defense", "mte-asycn"],
        capture_output=True, text=True,
        cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert "did you mean" in proc.stdout
    assert "mte-async" in proc.stdout


# -- per-plugin lifecycle contract ------------------------------------------


@pytest.mark.parametrize("mode", DEFENSE_MODES)
def test_plugin_builds_on_fresh_machine(mode):
    plugin = get_plugin(mode)
    defense = plugin.build(Machine())
    # describe() is the stable harness-facing mode name ("rest-heap"
    # reports "rest": same mechanism, narrower scope).
    assert defense.describe() == plugin.build(Machine()).describe()
    assert defense.describe()
    assert isinstance(defense.capabilities, frozenset)
    # Two builds never share machine state: a malloc in one is
    # invisible to the other.
    other = plugin.build(Machine())
    ptr = defense.malloc(64)
    defense.store(ptr, b"x" * 8)
    assert other.machine is not defense.machine


@pytest.mark.parametrize("mode", DEFENSE_MODES)
def test_plugin_functional_trace_parity(mode):
    """The same program runs in both execution modes: functional mode
    round-trips data, trace mode emits micro-ops without faulting."""
    defense = make_defense(mode, machine=Machine())
    ptr = defense.malloc(100)
    defense.store(ptr, b"in bounds")
    assert defense.load(ptr, 9) == b"in bounds"
    defense.free(ptr)

    # softrest lowers arm/disarm to store sequences and insists the
    # trace machine was built for that (same rule as make_trace_machine).
    machine = Machine(
        mode=ExecutionMode.TRACE,
        software_rest="software-tokens" in get_plugin(mode).capabilities,
    )
    defense = make_defense(mode, machine=machine)
    ptr = defense.malloc(100)
    defense.store(ptr, b"in bounds")
    defense.load(ptr, 9)
    defense.free(ptr)
    assert machine.take_trace(), "trace mode must emit micro-ops"


@pytest.mark.parametrize("mode", DEFENSE_MODES)
def test_plugin_globals_registration(mode):
    defense = make_defense(mode)
    address = defense.register_global(128)
    assert (address, 128) in defense.globals_registered


def test_plugin_metadata_complete():
    plugins = registered_plugins()
    assert tuple(p.name for p in plugins) == DEFENSE_MODES
    for plugin in plugins:
        assert plugin.description
        assert plugin.detector
        assert isinstance(plugin.requires_recompilation, bool)


# -- MTE behaviour ----------------------------------------------------------


def test_mte_sync_detects_overflow_precisely():
    defense = make_defense("mte")
    ptr = defense.malloc(32)
    with pytest.raises(MteViolation) as excinfo:
        defense.load(ptr + 48, 8)
    assert excinfo.value.precise


def test_mte_async_defers_to_checkpoint():
    defense = make_defense("mte-async")
    ptr = defense.malloc(32)
    defense.store(ptr + 48, b"\x41" * 8)  # no fault yet
    pending = defense.take_pending_fault()
    assert pending is not None and not pending.precise
    # Once drained, a checkpoint flush is clean.
    defense.flush_pending_faults()


def test_mte_asymm_loads_sync_stores_async():
    defense = make_defense("mte-asymm")
    ptr = defense.malloc(32)
    defense.store(ptr + 48, b"\x41" * 8)  # store: deferred
    assert defense.take_pending_fault() is not None
    with pytest.raises(MteViolation):
        defense.load(ptr + 48, 8)  # load: synchronous


def test_mte_use_after_free_retags():
    defense = make_defense("mte")
    ptr = defense.malloc(64)
    defense.store(ptr, b"live")
    defense.free(ptr)
    with pytest.raises(MteViolation):
        defense.load(ptr, 4)


def test_mte_double_free_caught_by_allocator_check():
    defense = make_defense("mte-async")  # software check is sync even here
    ptr = defense.malloc(64)
    defense.free(ptr)
    with pytest.raises(MteViolation):
        defense.free(ptr)


def test_mte_sub_granule_overflow_missed():
    """Intra-granule overflows share the allocation's tag: missed."""
    defense = make_defense("mte")
    ptr = defense.malloc(10)  # granule rounds to 16
    defense.store(ptr + 12, b"\x41")  # inside the tagged granule
    assert defense.load(ptr + 12, 1) == b"\x41"


def test_mte_tag_sequencer_replay_matches_draws():
    seq = TagSequencer(1234)
    drawn = [seq.draw() for _ in range(8)]
    assert drawn == TagSequencer.replay_tags(8, 1234)
    assert all(1 <= t <= 15 for t in drawn)


def test_mte_trace_mode_emits_tag_fetches():
    machine = Machine(mode=ExecutionMode.TRACE)
    defense = MteDefense(machine)
    ptr = defense.malloc(64)
    defense.load(ptr, 8)
    trace = machine.take_trace()
    assert trace, "trace mode must emit micro-ops"


# -- zoo-level relationships (asserted from committed artifacts) ------------


def _golden():
    path = REPO / "results" / "foundry_matrix_golden.json"
    return json.loads(path.read_text())


def test_golden_includes_mte_axes():
    golden = _golden()
    assert "mte" in golden["defenses"]
    assert "mte-async" in golden["defenses"]
    assert golden["mispredictions"] == []


def test_mte_catches_pad_landings_rest_misses():
    """≥1 family where MTE detects cases REST misses (pad landings)."""
    cells = _golden()["cells"]
    pad = cells["pad_landing"]
    assert pad["mte"]["detected"] > pad["rest"]["detected"]
    jump = cells["targeted_jump"]
    assert jump["mte"]["detected"] > jump["rest"]["detected"]


def test_mte_misses_sub_granule_cases():
    cells = _golden()["cells"]
    assert cells["subtoken"]["mte"]["missed"] > 0


def test_mte_async_latency_exceeds_sync():
    latency = _golden()["latency"]
    assert latency["mte-async"]["p90"] > latency["mte"]["p90"]
    assert latency["mte-async"]["mean"] > latency["mte"]["mean"]


# -- defense-zoo experiment --------------------------------------------------


def test_defensezoo_relationships_and_determinism():
    """One small zoo run pins the acceptance relationships: MTE sync
    lands between REST and ASan on alloc-heavy workloads, async costs
    less than sync, and the canonical JSON is byte-stable."""
    from repro.experiments.defensezoo import run, to_json

    payload = run(scale=0.05, seed=1234)
    heavy = payload["overhead"]["alloc_heavy_geomean"]
    assert heavy["REST Secure"] < heavy["MTE Sync"] < heavy["ASan"]
    assert heavy["MTE Async"] < heavy["MTE Sync"]
    assert heavy["MTE Asymm"] < heavy["MTE Sync"]
    assert payload["coverage"]["mispredictions"] == 0

    again = run(scale=0.05, seed=1234)
    assert to_json(again) == to_json(payload)
