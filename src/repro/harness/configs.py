"""Simulation configurations, including the paper's Table II.

A :class:`DefenseSpec` names one bar of Figures 7/8 (which defense, what
scope, which mode, what token width); a :class:`SimulationConfig`
couples it with the hardware configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from repro.cache.hierarchy import HierarchyConfig
from repro.core.modes import Mode
from repro.cpu.pipeline import CoreConfig
from repro.defenses.plugin import canonical_mode


def config_payload(obj) -> dict:
    """JSON-safe fingerprint of a (nested) config dataclass.

    Every field that influences a simulation result appears in the
    output, so two configs with equal payloads are interchangeable for
    result caching (see :mod:`repro.harness.parallel`).
    """

    def convert(value):
        if is_dataclass(value) and not isinstance(value, type):
            body = {
                f.name: convert(getattr(value, f.name))
                for f in fields(value)
            }
            body["__class__"] = type(value).__name__
            return body
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, (list, tuple)):
            return [convert(item) for item in value]
        if isinstance(value, dict):
            return {str(key): convert(item) for key, item in value.items()}
        return value

    if not is_dataclass(obj):
        raise TypeError(f"expected a config dataclass, got {type(obj)!r}")
    return convert(obj)


@dataclass(frozen=True)
class DefenseSpec:
    """One protection configuration to evaluate."""

    name: str  # display label, e.g. "Secure Full"
    #: Defense mode name: any canonical mode or alias in the plugin
    #: registry (``repro.defenses.plugin.DEFENSE_MODES``, e.g. "plain",
    #: "asan", "rest", "rest-heap", "softrest", "mte", "mte-async");
    #: MTE check modes are encoded in the name.
    defense: str
    protect_stack: bool = True
    mode: Mode = Mode.SECURE
    token_width: int = 64
    perfect_hw: bool = False
    # ASan component toggles (for the Figure 3 breakdown).
    asan_allocator: bool = True
    asan_stack: bool = True
    asan_checks: bool = True
    asan_intercepts: bool = True

    def key_payload(self) -> dict:
        """Cache-key fingerprint of this spec (see parallel engine)."""
        return config_payload(self)

    @staticmethod
    def plain() -> "DefenseSpec":
        return DefenseSpec(name="Plain", defense="plain", protect_stack=False)

    @staticmethod
    def asan(name: str = "ASan", **toggles) -> "DefenseSpec":
        return DefenseSpec(name=name, defense="asan", **toggles)

    @staticmethod
    def mte(name: str = "MTE Sync", check_mode: str = "sync") -> "DefenseSpec":
        """An MTE spec; the check mode is encoded in the defense name."""
        defense = canonical_mode(f"mte-{check_mode}")
        return DefenseSpec(name=name, defense=defense, protect_stack=False)

    @staticmethod
    def rest(
        name: str,
        mode: Mode = Mode.SECURE,
        protect_stack: bool = True,
        token_width: int = 64,
        perfect_hw: bool = False,
    ) -> "DefenseSpec":
        return DefenseSpec(
            name=name,
            defense="rest",
            protect_stack=protect_stack,
            mode=mode,
            token_width=token_width,
            perfect_hw=perfect_hw,
        )


#: The eight Figure 7 configurations, in the paper's legend order.
def figure7_specs() -> list:
    return [
        DefenseSpec.asan("ASan"),
        DefenseSpec.rest("Debug Full", mode=Mode.DEBUG, protect_stack=True),
        DefenseSpec.rest("Secure Full", mode=Mode.SECURE, protect_stack=True),
        DefenseSpec.rest("PerfectHW Full", protect_stack=True, perfect_hw=True),
        DefenseSpec.rest("Debug Heap", mode=Mode.DEBUG, protect_stack=False),
        DefenseSpec.rest("Secure Heap", mode=Mode.SECURE, protect_stack=False),
        DefenseSpec.rest("PerfectHW Heap", protect_stack=False, perfect_hw=True),
    ]


#: The six Figure 8 configurations (16/32/64-byte tokens, secure mode).
def figure8_specs() -> list:
    specs = []
    for width in (16, 32, 64):
        specs.append(
            DefenseSpec.rest(
                f"{width} Full", protect_stack=True, token_width=width
            )
        )
        specs.append(
            DefenseSpec.rest(
                f"{width} Heap", protect_stack=False, token_width=width
            )
        )
    return specs


@dataclass(frozen=True)
class SimulationConfig:
    """Hardware + workload-scale configuration for one experiment."""

    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    scale: float = 1.0
    seed: int = 1234
    token_seed: int = 7
    #: Allocator-churn compression for scaled-down runs (see
    #: SyntheticWorkload.__init__).
    alloc_intensity: float = 25.0

    def key_payload(self) -> dict:
        """Cache-key fingerprint of this config (core + hierarchy +
        workload knobs — everything that steers a run)."""
        return config_payload(self)

    @staticmethod
    def quick() -> "SimulationConfig":
        """A fast configuration for tests and smoke runs."""
        return SimulationConfig(scale=0.1)


def table2_text() -> str:
    """Render the simulated hardware configuration (paper Table II)."""
    rows = [
        ("Frequency", "2 GHz"),
        ("BPred", "gshare+bimodal stand-in for L-TAGE (31k-entry class)"),
        ("Fetch", "8 wide, 64-entry IQ"),
        ("Issue", "8 wide, 192-entry ROB"),
        ("Writeback", "8 wide, 32-entry LQ, 32-entry SQ"),
        (
            "L1-I",
            "64kB, 8-way, 2 cycles, 64B blocks, LRU, 4 20-entry MSHRs",
        ),
        (
            "L1-D",
            "64kB, 8-way, 2 cycles, 64B blocks, LRU, 8-entry write "
            "buffer, 4 20-entry MSHRs [+1 token bit/line, token detector]",
        ),
        (
            "L2",
            "2MB, 16-way, 20 cycles, 64B blocks, LRU, 8-entry write "
            "buffer, 20 12-entry MSHRs",
        ),
        (
            "Memory",
            "DDR3, 800 MHz, 13.75ns CAS latency and row precharge, "
            "35ns RAS latency",
        ),
    ]
    width = max(len(label) for label, _ in rows)
    lines = ["Table II: Simulation base hardware configuration", "-" * 72]
    lines += [f"{label:<{width}}  {value}" for label, value in rows]
    return "\n".join(lines)
