"""Seeded case generators and the defense geometry model.

Every case is a pure function of ``(seed, index)``: the per-case RNG is
``random.Random(f"foundry:{seed}:{index}:{family}")``, so corpora are
byte-identical across runs, processes and shard boundaries — the
parallel executor regenerates its slice from the seed instead of
shipping cases over the wire.

The geometry model mirrors the allocators exactly (same rounding and
redzone-scaling code paths) and predicts, per defense mode, whether a
given ordered access pattern intersects poisoned/armed metadata.  For
spatial families the ``expected`` oracle map is *computed* from this
model rather than hand-written; temporal and benign families use small
hand tables that encode the quarantine/shadow state machines.

The model for a mode follows its plugin's capabilities, not its name:
``shadow-memory`` is ASan's geometry, ``rest-tokens`` REST's,
``memory-tagging`` + ``heap-tags`` MTE's; no capabilities detects
nothing.  Only plugins that require recompilation guard the stack
(paper §IV-A: stack tokens are what change the binary).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.defenses.plugin import get_plugin
from repro.runtime.mte import TagSequencer
from repro.foundry.primitives import (
    AttackCase,
    CaseOutcome,
    DEFENSE_MODES,
    FAMILIES,
    Family,
    Oracle,
    OracleViolation,
)

# -- geometry (must match the allocators bit-for-bit) -----------------------

TOKEN = 64
GRANULE = 8
MTE_GRANULE = 16
ASAN_STACK_REDZONE = 32
ASAN_MIN_REDZONE = 16
ASAN_MAX_REDZONE = 2048
REST_MAX_TOKENS = 8


def _round_up(n: int, g: int) -> int:
    return (n + g - 1) // g * g


def asan_heap_span(size: int) -> int:
    """ASan unpoisons the full rounded payload span, pad included."""
    return max(GRANULE, _round_up(size, GRANULE))


def asan_heap_redzone(size: int) -> int:
    redzone = ASAN_MIN_REDZONE
    while redzone < ASAN_MAX_REDZONE and redzone < size / 4:
        redzone *= 2
    return redzone


def rest_heap_span(size: int) -> int:
    return max(TOKEN, _round_up(size, TOKEN))


def mte_heap_span(size: int) -> int:
    """Bytes tagged with the allocation tag: the 16-byte-granule span.

    Anything the program touches beyond it carries a different tag
    (chunk header: tag 0; fresh arena: tag 0; a neighbor: its own
    draw), so the *first* out-of-span granule on any linear path is
    always lethal — the drivers lay victims out so that granule is a
    header or virgin arena, making detection deterministic, not
    1-in-15.  Bytes between ``size`` and the span are MTE's sub-granule
    false-negative window.
    """
    return max(MTE_GRANULE, _round_up(size, MTE_GRANULE))


def rest_heap_redzone(size: int) -> int:
    tokens = 1
    while tokens < REST_MAX_TOKENS and tokens * TOKEN < size // 4:
        tokens *= 2
    return tokens * TOKEN


def asan_stack_span(size: int) -> int:
    return max(ASAN_STACK_REDZONE, _round_up(size, ASAN_STACK_REDZONE))


def rest_stack_span(size: int) -> int:
    return max(TOKEN, _round_up(size, TOKEN))


def _caps(defense: str) -> frozenset:
    return get_plugin(defense).capabilities


def _tags_heap(defense: str) -> bool:
    return {"memory-tagging", "heap-tags"} <= _caps(defense)


def poison_intervals(
    defense: str, region: str, size: int
) -> Tuple[Tuple[int, int], ...]:
    """Payload-relative [lo, hi) intervals the defense has made lethal.

    Empty for unprotected combinations (no redzone capability, stack
    buffers under ``rest-heap``).
    """
    plugin = get_plugin(defense)
    heap = region == "heap"
    if not heap and not plugin.requires_recompilation:
        return ()
    if "shadow-memory" in plugin.capabilities:
        if heap:
            span, rz = asan_heap_span(size), asan_heap_redzone(size)
        else:
            span, rz = asan_stack_span(size), ASAN_STACK_REDZONE
    elif "rest-tokens" in plugin.capabilities:
        if heap:
            span, rz = rest_heap_span(size), rest_heap_redzone(size)
        else:
            span, rz = rest_stack_span(size), TOKEN
    else:
        return ()
    return ((-rz, 0), (span, span + rz))


def _hits(accesses: Sequence[Sequence[int]], intervals) -> bool:
    return any(
        off < hi and off + width > lo
        for off, width in accesses
        for lo, hi in intervals
    )


def _expected_spatial(
    region: str,
    size: int,
    accesses: Sequence[Sequence[int]],
    asan_checked: bool = True,
) -> Dict[str, str]:
    """Predict each defense's outcome for an ordered access pattern.

    ``asan_checked=False`` models uninstrumented-library accesses:
    REST's tokens are hardware (still lethal), ASan's shadow checks are
    compiler-inserted (absent).
    """
    expected = {}
    for defense in DEFENSE_MODES:
        if _tags_heap(defense):
            # Tag checks are hardware (library code included) but
            # heap-only: any byte outside the tagged span is lethal,
            # anything inside it — the sub-granule pad included — is
            # invisible.  Coverage is check-mode-independent.
            span = mte_heap_span(size)
            hit = region == "heap" and any(
                off < 0 or off + width > span for off, width in accesses
            )
        elif not asan_checked and "shadow-memory" in _caps(defense):
            hit = False
        else:
            hit = _hits(accesses, poison_intervals(defense, region, size))
        expected[defense] = (
            CaseOutcome.DETECTED.value if hit else CaseOutcome.MISSED.value
        )
    return expected


def _illegal_hull(
    accesses: Sequence[Sequence[int]], size: int
) -> Tuple[Optional[int], Optional[int]]:
    """Hull of accessed bytes outside [0, size), payload-relative."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for off, width in accesses:
        for byte in range(off, off + width):
            if 0 <= byte < size:
                continue
            lo = byte if lo is None else min(lo, byte)
            hi = byte + 1 if hi is None else max(hi, byte + 1)
    return lo, hi


# -- per-family generators --------------------------------------------------

#: Sizes whose ASan span is strictly below the REST span (a non-empty
#: alignment pad exists) — the raw material for REST's §V-C false
#: negative.  All stay below 256 bytes so redzones are 16–64B (ASan)
#: and exactly one token (REST).
_PAD_SIZES = (8, 16, 24, 40, 48, 72, 100, 104, 136, 200)

#: Sizes that are not granule multiples (a 1–7 byte sub-granule pad
#: exists that even ASan cannot see).
_SUBGRANULE_SIZES = (13, 21, 30, 45, 61, 77, 101, 150, 197)

_WIDTHS = (1, 2, 4, 8)
_STRIDES = (1, 4, 8, 16, 32, 48)


def _gen_linear_overflow(rng: random.Random):
    region = rng.choice(("heap", "stack"))
    op = rng.choice(("load", "store"))
    direction = rng.choice(("forward", "backward"))
    size = rng.randrange(1, 200)
    stride = rng.choice(_STRIDES)
    width = rng.choice(_WIDTHS)
    distance = rng.randrange(stride + width, stride + width + 152)
    if direction == "forward":
        accesses = [[off, width] for off in range(0, size + distance, stride)]
    else:
        steps = distance // stride
        # A backward access spans [-k*stride, -k*stride + width); when
        # width > k*stride that span crosses offset 0 back into the
        # granted allocation, making the illegal hull two-sided (which
        # _illegal_hull cannot represent) and overlapping [0, size).
        # Start at the first step whose whole span lies below the
        # allocation.  width <= stride keeps first == 1, so those
        # corpora are unchanged; the rng draw order above is untouched
        # either way.
        first = max(1, -(-width // stride))
        accesses = [[-k * stride, width] for k in range(first, first + steps)]
    lo, hi = _illegal_hull(accesses, size)
    params = {
        "region": region,
        "op": op,
        "direction": direction,
        "size": size,
        "stride": stride,
        "width": width,
        "distance": distance,
        "accesses": accesses,
    }
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=size,
        illegal_start=lo,
        illegal_end=hi,
        illegal_ref="victim",
        expected=_expected_spatial(region, size, accesses),
    )
    return params, oracle


def _gen_targeted_jump(rng: random.Random):
    """Pointer corruption: one access lands *inside* a neighboring
    allocation, never touching any redzone — the documented miss for
    every tripwire scheme (paper §V-C, Table III)."""
    victim_size = rng.choice(_PAD_SIZES)
    target_size = rng.randrange(32, 160)
    width = rng.choice(_WIDTHS)
    inner = rng.randrange(0, target_size - width + 1)
    params = {
        "victim_size": victim_size,
        "target_size": target_size,
        "gap_sizes": [rng.randrange(16, 96) for _ in range(rng.randrange(0, 3))],
        "inner_offset": inner,
        "width": width,
        "op": rng.choice(("load", "store")),
    }
    # The corrupted pointer keeps the *victim's* tag while landing in
    # the target's granules (the attacker knows the layout distance,
    # not the tag bits), so MTE detects exactly when the two seeded
    # draws differ — victim is draw 0, the target follows the gaps.
    params["mte_tag_seed"] = rng.randrange(1 << 30)
    replay = TagSequencer.replay_tags(
        len(params["gap_sizes"]) + 2, params["mte_tag_seed"]
    )
    mte = (
        CaseOutcome.DETECTED.value
        if replay[-1] != replay[0]
        else CaseOutcome.MISSED.value
    )
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=target_size,
        illegal_start=inner,
        illegal_end=inner + width,
        illegal_ref="neighbor",
        expected={
            d: (mte if _tags_heap(d) else CaseOutcome.MISSED.value)
            for d in DEFENSE_MODES
        },
    )
    return params, oracle


def _gen_pad_landing(rng: random.Random):
    """A full-granule access into REST's alignment pad / ASan's redzone:
    the size window where ASan detects and REST structurally cannot."""
    size = rng.choice(_PAD_SIZES)
    span8 = asan_heap_span(size)
    window_hi = min(rest_heap_span(size), span8 + asan_heap_redzone(size))
    offset = rng.choice(range(span8, window_hi - GRANULE + 1, GRANULE))
    accesses = [[offset, GRANULE]]
    params = {
        "region": "heap",
        "op": rng.choice(("load", "store")),
        "size": size,
        "offset": offset,
        "width": GRANULE,
    }
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=size,
        illegal_start=offset,
        illegal_end=offset + GRANULE,
        illegal_ref="victim",
        expected=_expected_spatial("heap", size, accesses),
    )
    return params, oracle


def _gen_subtoken(rng: random.Random):
    """Sub-token-width (narrow) accesses just past the object.

    * ``subgranule``: inside the 1–7 byte pad below ASan's own granule —
      missed by *every* defense (the floor of tripwire precision).
    * ``narrow_pad``: a 1/2/4-byte access in ASan's redzone but inside
      REST's 64-byte pad — ASan catches, REST misses.
    """
    variant = rng.choice(("subgranule", "narrow_pad"))
    if variant == "subgranule":
        size = rng.choice(_SUBGRANULE_SIZES)
        span8 = asan_heap_span(size)
        window = span8 - size
        width = rng.choice([w for w in (1, 2, 4) if w <= window])
        offset = rng.randrange(size, span8 - width + 1)
    else:
        size = rng.choice(_PAD_SIZES)
        span8 = asan_heap_span(size)
        window_hi = min(rest_heap_span(size), span8 + asan_heap_redzone(size))
        width = rng.choice((1, 2, 4))
        offset = span8 + rng.randrange(0, window_hi - span8 - width + 1)
    accesses = [[offset, width]]
    params = {
        "region": "heap",
        "variant": variant,
        "op": rng.choice(("load", "store")),
        "size": size,
        "offset": offset,
        "width": width,
    }
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=size,
        illegal_start=offset,
        illegal_end=offset + width,
        illegal_ref="victim",
        expected=_expected_spatial("heap", size, accesses),
    )
    return params, oracle


def _gen_uaf_window(rng: random.Random):
    """Use-after-free with a variable reallocation window.

    ``fillers`` cycles of malloc(512)/free push the victim through the
    256KiB quarantine: 0/20 cycles leave it quarantined (armed/FREED —
    both tripwires detect); 400 cycles drain and recycle it, and a
    fresh same-size allocation takes the address — the until-
    reallocation limit both schemes share.
    """
    variant = rng.choice(("immediate", "spaced", "recycled"))
    fillers = {"immediate": 0, "spaced": 20, "recycled": 400}[variant]
    size = rng.randrange(8, 200)
    width = rng.choice(_WIDTHS)
    offset = rng.randrange(0, size - width + 1)
    detected = CaseOutcome.DETECTED.value
    missed = CaseOutcome.MISSED.value
    params = {
        "variant": variant,
        "fillers": fillers,
        "size": size,
        "offset": offset,
        "width": width,
        "op": rng.choice(("load", "store")),
    }
    params["mte_tag_seed"] = rng.randrange(1 << 30)
    if variant == "recycled":
        expected = {d: missed for d in DEFENSE_MODES}
        # MTE has no quarantine: the first same-class malloc reuses the
        # victim with a fresh draw.  Victim = draw 0, each filler
        # cycle draws once, the reallocation is draw fillers+1; the
        # dangling pointer mismatches unless the two draws collide
        # (1-in-15) — modelled exactly from the seeded sequence.
        replay = TagSequencer.replay_tags(fillers + 2, params["mte_tag_seed"])
        mte = detected if replay[fillers + 1] != replay[0] else missed
        for d in DEFENSE_MODES:
            if _tags_heap(d):
                expected[d] = mte
    else:
        # Freed-but-unreused: MTE's free-time retag never equals the
        # allocation tag, so immediate/spaced dangling accesses are
        # caught in every check mode (imprecisely under async).
        expected = {d: (detected if _caps(d) else missed) for d in DEFENSE_MODES}
    oracle = Oracle(
        kind="temporal",
        sound_detects=True,
        alloc_size=size,
        illegal_start=offset,
        illegal_end=offset + width,
        illegal_ref="victim",
        expected=expected,
    )
    return params, oracle


def _gen_double_free(rng: random.Random):
    """Double free at varying quarantine spacing.

    While quarantined both tripwires identify the stale free; once
    drained only ASan's sticky FREED shadow does; once the chunk is
    *reallocated* the second free silently releases the new owner's
    memory — missed by everything.  A plain allocator's abort on a
    stale pointer is a crash, not a detection (scored MISSED).
    """
    variant = rng.choice(("quarantined", "drained", "realloc_between"))
    fillers = {"quarantined": rng.choice((0, 20)), "drained": 400,
               "realloc_between": 400}[variant]
    size = rng.randrange(8, 200)
    detected = CaseOutcome.DETECTED.value
    missed = CaseOutcome.MISSED.value
    params = {"variant": variant, "fillers": fillers, "size": size}
    params["mte_tag_seed"] = rng.randrange(1 << 30)
    if variant == "quarantined":
        expected = {d: (detected if _caps(d) else missed) for d in DEFENSE_MODES}
    elif variant == "drained":
        # ASan's FREED shadow is sticky, and MTE's allocator validates
        # the pointer tag on every free (all check modes): the freed
        # region was retagged, so the stale free faults long after any
        # quarantine would have drained.
        expected = {
            d: (
                detected
                if "shadow-memory" in _caps(d) or _tags_heap(d)
                else missed
            )
            for d in DEFENSE_MODES
        }
    else:
        expected = {d: missed for d in DEFENSE_MODES}
        # realloc_between: the stale free is checked against the *new*
        # owner's draw (victim = 0, fillers 1..400, new owner 401); a
        # collision silently frees the new owner's chunk.
        replay = TagSequencer.replay_tags(fillers + 2, params["mte_tag_seed"])
        mte = detected if replay[fillers + 1] != replay[0] else missed
        for d in DEFENSE_MODES:
            if _tags_heap(d):
                expected[d] = mte
    oracle = Oracle(
        kind="temporal",
        sound_detects=True,
        alloc_size=size,
        illegal_start=None,
        illegal_end=None,
        illegal_ref="none",
        expected=expected,
    )
    return params, oracle


def _gen_stack_reuse(rng: random.Random):
    """Benign setjmp/longjmp stack reuse (paper §V-C).

    No illegal byte is ever touched; the oracle asks whether the
    defense *survives*.  REST with stack tokens and no frame registry
    leaves skipped frames' redzones armed and faults spuriously on
    reuse — the published reason REST does not support longjmp.
    """
    use_registry = rng.choice((False, True))
    clean = CaseOutcome.CLEAN.value
    expected = {d: clean for d in DEFENSE_MODES}
    if not use_registry:
        for d in DEFENSE_MODES:
            if "rest-tokens" in _caps(d) and (
                get_plugin(d).requires_recompilation  # stack tokens
            ):
                expected[d] = CaseOutcome.FALSE_POSITIVE.value
    params = {
        "depth": rng.choice((2, 3)),
        "use_registry": use_registry,
        "skipped_buffer": 64,
        "reuse_buffer": 512,
    }
    oracle = Oracle(
        kind="benign",
        sound_detects=False,
        alloc_size=None,
        illegal_start=None,
        illegal_end=None,
        illegal_ref="none",
        expected=expected,
    )
    return params, oracle


def _gen_library_boundary(rng: random.Random):
    """Overflow driven by an uninstrumented library memcpy.

    ASan's compiler-inserted checks are absent in library code, so the
    copy is invisible to it; REST's tokens are hardware and still fire
    — but only if the copy actually crosses the 64-byte pad into an
    armed slot (``token`` variant), not when it stops inside the pad
    (``pad`` variant).
    """
    direction = rng.choice(("read", "write"))
    size = rng.choice(_PAD_SIZES)
    span64 = rest_heap_span(size)
    if rng.choice((False, True)):
        variant = "token"
        n = span64 + rng.choice((8, 64))
    else:
        variant = "pad"
        n = rng.choice(range(_round_up(size + 1, GRANULE), span64 + 1, GRANULE))
    accesses = [[0, n]]
    params = {"direction": direction, "variant": variant, "size": size, "n": n}
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=size,
        illegal_start=size,
        illegal_end=n,
        illegal_ref="victim",
        expected=_expected_spatial("heap", size, accesses, asan_checked=False),
    )
    return params, oracle


def _gen_parser(rng: random.Random):
    """Rule-of-2 workload: length-prefixed record decoding over
    attacker-controlled bytes.

    A parser trusts an in-band 16-bit length field; the last record's
    claimed length reaches ``overread_end`` bytes past the buffer
    start.  ``excess_kind`` places that end in the sub-granule pad
    (all miss), ASan's redzone (ASan only, and only when the copy goes
    through the instrumented API), or past REST's token pad (REST
    always — tokens are hardware — ASan only via the API).
    """
    via = rng.choice(("api", "library"))
    excess_kind = rng.choice(("pad", "granule", "token"))
    buf_size = rng.choice((44, 52, 76, 100, 148, 196))
    span8 = asan_heap_span(buf_size)
    span64 = rest_heap_span(buf_size)
    records = []
    offset = 0
    for _ in range(rng.randrange(0, 3)):
        length = rng.randrange(1, 9)
        records.append([offset, length])
        offset += 2 + length
    if excess_kind == "pad":
        end = rng.randrange(buf_size + 1, span8 + 1)
    elif excess_kind == "granule":
        end = rng.randrange(span8 + 1, min(span64, span8 + ASAN_MIN_REDZONE) + 1)
    else:
        end = span64 + rng.choice((8, 32, 64))
    claimed = end - (offset + 2)
    accesses = [[offset + 2, end - (offset + 2)]]
    params = {
        "via": via,
        "excess_kind": excess_kind,
        "buf_size": buf_size,
        "records": records,
        "corrupt_offset": offset,
        "claimed": claimed,
        "overread_end": end,
    }
    oracle = Oracle(
        kind="spatial",
        sound_detects=True,
        alloc_size=buf_size,
        illegal_start=buf_size,
        illegal_end=end,
        illegal_ref="victim",
        expected=_expected_spatial(
            "heap", buf_size, accesses, asan_checked=(via == "api")
        ),
    )
    return params, oracle


_GENERATORS = {
    Family.LINEAR_OVERFLOW.value: _gen_linear_overflow,
    Family.TARGETED_JUMP.value: _gen_targeted_jump,
    Family.PAD_LANDING.value: _gen_pad_landing,
    Family.SUBTOKEN.value: _gen_subtoken,
    Family.UAF_WINDOW.value: _gen_uaf_window,
    Family.DOUBLE_FREE.value: _gen_double_free,
    Family.STACK_REUSE.value: _gen_stack_reuse,
    Family.LIBRARY_BOUNDARY.value: _gen_library_boundary,
    Family.PARSER.value: _gen_parser,
}


# -- corpus assembly and validation -----------------------------------------

_OUTCOME_VALUES = frozenset(o.value for o in CaseOutcome)


def validate_case(case: AttackCase) -> None:
    """Internal-consistency checks; raises :class:`OracleViolation`."""

    def fail(message: str) -> None:
        raise OracleViolation(case.case_id, message)

    oracle = case.oracle
    if case.family not in FAMILIES:
        fail(f"unknown family {case.family!r}")
    if set(oracle.expected) != set(DEFENSE_MODES):
        fail(f"expected-map keys {sorted(oracle.expected)} != defense modes")
    bad = [v for v in oracle.expected.values() if v not in _OUTCOME_VALUES]
    if bad:
        fail(f"invalid expected outcomes {bad}")
    if oracle.kind == "benign":
        if oracle.sound_detects:
            fail("benign case cannot be sound-detectable")
        if oracle.illegal_start is not None or oracle.illegal_end is not None:
            fail("benign case must not claim illegal bytes")
        ok = {CaseOutcome.CLEAN.value, CaseOutcome.FALSE_POSITIVE.value}
        if not set(oracle.expected.values()) <= ok:
            fail("benign expectations must be clean/false_positive")
        return
    if not oracle.sound_detects:
        fail(f"{oracle.kind} case must be sound-detectable")
    if oracle.kind == "spatial":
        if oracle.illegal_start is None or oracle.illegal_end is None:
            fail("spatial case must carry an illegal byte hull")
        if oracle.illegal_start >= oracle.illegal_end:
            fail("empty illegal hull")
        if oracle.illegal_ref == "victim":
            if (
                oracle.illegal_start < 0
                and oracle.illegal_end > oracle.alloc_size
            ):
                fail(
                    f"illegal hull [{oracle.illegal_start}, "
                    f"{oracle.illegal_end}) spans both sides of the "
                    f"granted allocation [0, {oracle.alloc_size}); "
                    "_illegal_hull collapses illegal bytes into one "
                    "contiguous interval and cannot represent a "
                    "two-sided (underflow and overflow) region — keep "
                    "each generated case one-sided"
                )
            inside = (
                oracle.illegal_end > 0
                and oracle.illegal_start < oracle.alloc_size
            )
            if inside:
                fail(
                    f"illegal hull [{oracle.illegal_start}, "
                    f"{oracle.illegal_end}) overlaps the granted "
                    f"allocation [0, {oracle.alloc_size})"
                )
        elif oracle.illegal_ref == "neighbor":
            if not (0 <= oracle.illegal_start < oracle.illegal_end <= oracle.alloc_size):
                fail("neighbor-relative hull must lie inside the neighbor")
        else:
            fail(f"spatial case has illegal_ref {oracle.illegal_ref!r}")
    elif oracle.kind == "temporal":
        if oracle.illegal_start is not None:
            if not (
                0 <= oracle.illegal_start < oracle.illegal_end <= oracle.alloc_size
            ):
                fail("temporal access must target the freed allocation")
    else:
        fail(f"unknown oracle kind {oracle.kind!r}")


def case_at(seed: int, index: int, families: Optional[Sequence[str]] = None) -> AttackCase:
    """The ``index``-th case of corpus ``seed`` — pure and stable."""
    fams = tuple(families) if families else FAMILIES
    family = fams[index % len(fams)]
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    rng = random.Random(f"foundry:{seed}:{index}:{family}")
    params, oracle = _GENERATORS[family](rng)
    return AttackCase(
        case_id=f"f{seed}-{index:05d}-{family}",
        family=family,
        params=params,
        oracle=oracle,
    )


def generate_corpus(
    seed: int,
    count: int,
    families: Optional[Sequence[str]] = None,
) -> List[AttackCase]:
    """Generate and validate ``count`` cases, round-robin over families."""
    if count <= 0:
        raise ValueError("count must be positive")
    cases = []
    for index in range(count):
        case = case_at(seed, index, families)
        validate_case(case)
        cases.append(case)
    return cases
