"""Per-family case drivers: replay one :class:`AttackCase` mechanically.

Each driver builds the case's program state on a *fresh* defense, then
brackets the illegal (or, for benign cases, the reuse) phase: the
machine's ``functional_cycles`` odometer is sampled at phase start, and
the delta at the moment a tripwire fires is the case's detection
latency.  Classification:

* a :class:`RestException`/:class:`AsanViolation` inside the bracketed
  phase → DETECTED (FALSE_POSITIVE for benign cases);
* the phase completing → MISSED (CLEAN for benign cases);
* an :class:`AllocationError` (plain allocator aborting on a stale
  pointer) → MISSED — a crash is not a memory-safety detection;
* the attack becoming impossible to stage (e.g. the quarantine never
  recycled the victim) → PREVENTED.

``run_shard`` is the module-level entry point the parallel engine
imports by name; it regenerates its corpus slice from the seed, so
work units ship only coordinates, never case bodies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import RestException
from repro.defenses.base import Defense
from repro.defenses.plugin import canonical_mode, make_defense
from repro.defenses.rest import RestDefense
from repro.foundry.primitives import AttackCase, CaseOutcome
from repro.runtime.allocators.base import AllocationError
from repro.runtime.mte import MteViolation
from repro.runtime.setjmp import FrameRegistry, longjmp, setjmp
from repro.runtime.shadow import AsanViolation

_VIOLATIONS = (RestException, AsanViolation, MteViolation)

#: (outcome, detected_by, latency_cycles, detail)
_DriverResult = Tuple[CaseOutcome, Optional[str], Optional[int], str]


def _fill(defense: Defense, address: int, size: int, pattern: bytes = b"\xcd") -> None:
    offset = 0
    while offset < size:
        width = min(8, size - offset)
        defense.store(address + offset, pattern * width)
        offset += width


def _run_phase(
    defense: Defense,
    phase: Callable[[], None],
    benign: bool = False,
) -> _DriverResult:
    """Execute the bracketed phase and classify what happened."""
    start = defense.machine.functional_cycles
    try:
        phase()
        # Deferred-delivery defenses (MTE async/asymm) accumulate the
        # fault and only report at a checkpoint; flushing inside the
        # bracket scores the detection with its real (imprecise)
        # latency — the whole phase ran before the report landed.
        defense.flush_pending_faults()
    except _VIOLATIONS as error:
        latency = defense.machine.functional_cycles - start
        outcome = CaseOutcome.FALSE_POSITIVE if benign else CaseOutcome.DETECTED
        return outcome, type(error).__name__, latency, str(error)
    except AllocationError as error:
        return (
            CaseOutcome.MISSED,
            None,
            None,
            f"allocator crash (not a detection): {error}",
        )
    if benign:
        return CaseOutcome.CLEAN, None, None, "benign sequence ran cleanly"
    return CaseOutcome.MISSED, None, None, "illegal operation completed"


def _access(defense: Defense, op: str, address: int, width: int) -> None:
    if op == "load":
        defense.load(address, width)
    else:
        defense.store(address, b"\xaa" * width)


def _drive_linear_overflow(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    size = p["size"]
    if p["region"] == "heap":
        if p["direction"] == "forward":
            defense.malloc(48)  # neighbor below; victim last → pad above
            base = defense.malloc(size)
        else:
            base = defense.malloc(size)  # victim first → nothing armed below
            defense.malloc(48)
    else:
        frame = defense.function_enter([size])
        base = frame.buffers[0].address

    def phase() -> None:
        for offset, width in p["accesses"]:
            _access(defense, p["op"], base + offset, width)

    return _run_phase(defense, phase)


def _drive_targeted_jump(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    victim = defense.malloc(p["victim_size"])
    for gap in p["gap_sizes"]:
        defense.malloc(gap)
    target = defense.malloc(p["target_size"])
    _fill(defense, target, p["target_size"], b"\x5e")
    # The "corrupted pointer": victim base plus a computed delta that
    # lands inside the neighbor, overflying every redzone in between.
    # The attacker knows the heap-layout distance (canonical), not the
    # pointer metadata, so the forged pointer keeps the victim's tag.
    delta = defense.canonical_address(target) - defense.canonical_address(victim)
    address = victim + delta + p["inner_offset"]

    def phase() -> None:
        _access(defense, p["op"], address, p["width"])

    return _run_phase(defense, phase)


def _drive_single_heap_access(case: AttackCase, defense: Defense) -> _DriverResult:
    """pad_landing and subtoken: one narrow access past the victim."""
    p = case.params
    victim = defense.malloc(p["size"])
    _fill(defense, victim, p["size"])

    def phase() -> None:
        _access(defense, p["op"], victim + p["offset"], p["width"])

    return _run_phase(defense, phase)


def _drive_uaf_window(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    size = p["size"]
    victim = defense.malloc(size)
    _fill(defense, victim, size)
    defense.free(victim)
    for _ in range(p["fillers"]):
        filler = defense.malloc(512)
        defense.free(filler)
    if p["variant"] == "recycled":
        reused = None
        for _ in range(8):
            candidate = defense.malloc(size)
            if defense.canonical_address(candidate) == defense.canonical_address(victim):
                reused = candidate
                break
        if reused is None:
            return (
                CaseOutcome.PREVENTED,
                None,
                None,
                "allocator never recycled the victim address",
            )

    def phase() -> None:
        _access(defense, p["op"], victim + p["offset"], p["width"])

    return _run_phase(defense, phase)


def _drive_double_free(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    victim = defense.malloc(p["size"])
    defense.free(victim)
    for _ in range(p["fillers"]):
        filler = defense.malloc(512)
        defense.free(filler)
    if p["variant"] == "realloc_between":
        defense.malloc(p["size"])  # the new owner of the victim's chunk

    def phase() -> None:
        defense.free(victim)

    return _run_phase(defense, phase)


def _drive_stack_reuse(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    env = setjmp(defense)
    registry: Optional[FrameRegistry] = None
    if (
        p["use_registry"]
        and isinstance(defense, RestDefense)
        and defense.protect_stack
    ):
        registry = FrameRegistry()
    for _ in range(p["depth"]):
        frame = defense.function_enter([p["skipped_buffer"]])
        if registry is not None:
            registry.register(frame)

    def phase() -> None:
        longjmp(defense, env, frame_registry=registry)
        frame = defense.function_enter([p["reuse_buffer"]])
        base = frame.buffers[0].address
        for offset in range(0, p["reuse_buffer"], 8):
            defense.store(base + offset, b"\xbb" * 8)
        defense.function_exit(frame)

    return _run_phase(defense, phase, benign=True)


def _drive_library_boundary(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    if p["direction"] == "read":
        other = defense.malloc(4096)
        victim = defense.malloc(p["size"])
        _fill(defense, victim, p["size"])
        src, dst = victim, other
    else:
        other = defense.malloc(4096)
        victim = defense.malloc(p["size"])
        src, dst = other, victim

    def phase() -> None:
        defense.libc.memcpy(dst, src, p["n"])

    return _run_phase(defense, phase)


def _drive_parser(case: AttackCase, defense: Defense) -> _DriverResult:
    p = case.params
    buf = defense.malloc(p["buf_size"])
    out = defense.malloc(4096)
    copy = defense.memcpy if p["via"] == "api" else defense.libc.memcpy
    # Attacker-controlled wire bytes: well-formed records, then one
    # whose length field overstates the remaining payload.
    for offset, length in p["records"]:
        defense.store(buf + offset, length.to_bytes(2, "little"))
        _fill(defense, buf + offset + 2, length, b"\x7a")
    defense.store(buf + p["corrupt_offset"], p["claimed"].to_bytes(2, "little"))
    # Decode the well-formed prefix (in-bounds, must not fault).
    out_offset = 0
    for offset, _length in p["records"]:
        n = int.from_bytes(defense.load(buf + offset, 2), "little")
        copy(out + out_offset, buf + offset + 2, n)
        out_offset += n

    def phase() -> None:
        n = int.from_bytes(defense.load(buf + p["corrupt_offset"], 2), "little")
        copy(out + out_offset, buf + p["corrupt_offset"] + 2, n)

    return _run_phase(defense, phase)


_DRIVERS: Dict[str, Callable[[AttackCase, Defense], _DriverResult]] = {
    "linear_overflow": _drive_linear_overflow,
    "targeted_jump": _drive_targeted_jump,
    "pad_landing": _drive_single_heap_access,
    "subtoken": _drive_single_heap_access,
    "uaf_window": _drive_uaf_window,
    "double_free": _drive_double_free,
    "stack_reuse": _drive_stack_reuse,
    "library_boundary": _drive_library_boundary,
    "parser": _drive_parser,
}


def run_case(case: AttackCase, defense_name: str) -> Dict[str, Any]:
    """Run one case against one fresh defense; returns a JSON-safe record."""
    mode = canonical_mode(defense_name)
    defense = make_defense(mode)
    tag_seed = case.params.get("mte_tag_seed")
    if tag_seed is not None:
        reseed = getattr(defense, "reseed_tags", None)
        if reseed is not None:
            reseed(tag_seed)
    benign = case.oracle.kind == "benign"
    try:
        outcome, detected_by, latency, detail = _DRIVERS[case.family](case, defense)
    except _VIOLATIONS as error:
        # A fault *outside* the bracketed phase: setup that should have
        # been legal tripped the defense.
        outcome = (
            CaseOutcome.FALSE_POSITIVE if benign else CaseOutcome.DETECTED
        )
        detected_by = type(error).__name__
        latency = None
        detail = f"fault outside the attack phase: {error}"
    expected = case.oracle.expected[mode]
    return {
        "case_id": case.case_id,
        "family": case.family,
        "defense": mode,
        "outcome": outcome.value,
        "detected_by": detected_by,
        "latency_cycles": latency,
        "detail": detail,
        "expected": expected,
        "matches_expected": outcome.value == expected,
    }


def run_shard(
    seed: int,
    count: int,
    start: int,
    shard: int,
    defense: str,
    families: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Work-unit target: cases [start, start+shard) of corpus ``seed``."""
    from repro.foundry.generator import generate_corpus

    cases = generate_corpus(seed, count, families)[start : start + shard]
    return [run_case(case, defense) for case in cases]
