"""Table I: actions taken on various operations, L1-D hits and misses.

This module *executes* every cell of the paper's Table I against the
implemented hardware (LSQ + cache hierarchy) and reports the observed
behaviour next to the specified behaviour, as a conformance matrix.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core import Mode, RestException, Token, TokenConfigRegister
from repro.cpu.lsq import LoadStoreQueue, SqEntryKind
from repro.harness.reporting import format_table


def _hierarchy(mode: Mode = Mode.SECURE) -> MemoryHierarchy:
    register = TokenConfigRegister(Token.random(64, seed=3), mode=mode)
    config = HierarchyConfig(
        l1d=CacheConfig(name="L1-D", size=512, associativity=2, line_size=64),
        l2=CacheConfig(name="L2", size=2048, associativity=2, hit_latency=20),
    )
    return MemoryHierarchy(config=config, token_config=register)


def _evict_line0(h: MemoryHierarchy) -> None:
    stride = h.l1d.config.num_sets * 64
    h.read(stride, 4)
    h.read(2 * stride, 4)


# -- one check per Table I cell ------------------------------------------------


def arm_lsq() -> bool:
    lsq = LoadStoreQueue()
    entry = lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
    return entry.kind is SqEntryKind.ARM and not entry.has_value


def arm_hit() -> bool:
    h = _hierarchy()
    h.read(0x0, 4)  # line resident
    result = h.arm(0x0)
    return h.is_armed(0x0) and result.l1_hit and result.latency == 1


def arm_miss() -> bool:
    h = _hierarchy()
    result = h.arm(0x0)  # cold line
    return h.is_armed(0x0) and not result.l1_hit


def disarm_lsq() -> bool:
    lsq = LoadStoreQueue()
    lsq.dispatch_store_like(0, SqEntryKind.DISARM, 0x1000, 64)
    try:
        lsq.dispatch_store_like(1, SqEntryKind.DISARM, 0x1000, 64)
        return False
    except RestException:
        return True


def disarm_hit_unarmed_raises() -> bool:
    h = _hierarchy()
    h.read(0x0, 4)
    try:
        h.disarm(0x0)
        return False
    except RestException:
        return True


def disarm_hit_clears() -> bool:
    h = _hierarchy()
    h.arm(0x0)
    h.disarm(0x0)
    data, _ = h.read(0x0, 64)
    return data == b"\x00" * 64 and not h.is_armed(0x0)


def disarm_miss() -> bool:
    h = _hierarchy()
    h.arm(0x0)
    _evict_line0(h)  # token now only in memory
    h.disarm(0x0)  # fetch re-detects the token, then proceeds as hit
    return not h.is_armed(0x0)


def load_lsq() -> bool:
    lsq = LoadStoreQueue()
    lsq.dispatch_store_like(0, SqEntryKind.ARM, 0x1000, 64)
    try:
        lsq.search_for_load(1, 0x1008, 8)
        return False
    except RestException:
        return True


def load_hit() -> bool:
    h = _hierarchy()
    h.arm(0x0)
    try:
        h.read(0x0, 8)
        return False
    except RestException:
        return True


def load_miss() -> bool:
    h = _hierarchy()
    h.arm(0x0)
    _evict_line0(h)
    try:
        h.read(0x0, 8)  # miss; detector sets token bit; proceed as hit
        return False
    except RestException:
        return True


def store_hit() -> bool:
    h = _hierarchy()
    h.arm(0x0)
    try:
        h.write(0x8, b"\xff" * 8)
        return False
    except RestException:
        return True


def store_miss_secure_vs_debug() -> bool:
    """Debug mode delays store commit until the L1-D ack (pipeline)."""
    from repro.cpu.isa import store
    from repro.cpu.pipeline import OutOfOrderCore

    def cycles(mode: Mode) -> Tuple[int, int]:
        h = _hierarchy(mode)
        core = OutOfOrderCore(h)
        stats = core.run([store(0x40000 + 64 * i, 8) for i in range(100)])
        return stats.cycles, stats.rob_blocked_by_store_cycles

    secure_cycles, secure_blocked = cycles(Mode.SECURE)
    debug_cycles, debug_blocked = cycles(Mode.DEBUG)
    return debug_cycles > secure_cycles and debug_blocked > secure_blocked


def eviction_fills_token() -> bool:
    h = _hierarchy()
    token = h.detector.token
    h.arm(0x0)
    before = h.backing.read(0x0, 64)
    _evict_line0(h)
    after = h.backing.read(0x0, 64)
    return before != token.value and after == token.value


CHECKS: List[Tuple[str, str, Callable[[], bool]]] = [
    ("Arm / LSQ", "Create entry in SQ, tag as arm (no value)", arm_lsq),
    ("Arm / hit", "Set token bit; completes in 1 cycle", arm_hit),
    ("Arm / miss", "Fetch line, set token bit", arm_miss),
    ("Disarm / LSQ", "Raise if SQ has disarm for same location", disarm_lsq),
    ("Disarm / hit (unarmed)", "Raise exception if token bit unset", disarm_hit_unarmed_raises),
    ("Disarm / hit (armed)", "Clear line, unset token bit", disarm_hit_clears),
    ("Disarm / miss", "Fetch line, set bit if token, proceed as hit", disarm_miss),
    ("Load / LSQ", "Raise if value would forward from armed entry", load_lsq),
    ("Load / hit", "Raise if token bit set, else read", load_hit),
    ("Load / miss", "Fetch, detector sets bit, proceed as hit", load_miss),
    ("Store / hit", "Raise if token bit set, else write", store_hit),
    ("Store / miss (debug)", "Debug delays commit till L1-D ack", store_miss_secure_vs_debug),
    ("Eviction", "If token bit set, fill token value in outgoing packet", eviction_fills_token),
]


def regenerate(scale: float, seed: int) -> str:
    rows = []
    for cell, specified, check in CHECKS:
        try:
            ok = check()
        except Exception as error:  # a crash is a failed conformance cell
            rows.append([cell, specified, f"ERROR: {error}"])
            continue
        rows.append([cell, specified, "CONFORMS" if ok else "VIOLATION"])
    rows.append(["Coherence msgs", "As usual (unmodified)", "CONFORMS (by construction)"])
    return format_table(
        ["Action / where", "Specified behaviour (Table I)", "Observed"],
        rows,
        title="Table I conformance: actions on operations for L1-D hits/misses",
    )
