"""Attack scenarios for the security evaluation (paper §I, §V, Table III).

Each attack runs against a fresh functional-mode defense and reports
whether the defense detected it, and how.  The suite covers:

* the spatial bugs tripwires are built for (linear over-read/write on
  heap and stack, including the Listing 1 Heartbleed reproduction);
* the temporal bugs (use-after-free, double free), including the
  until-reallocation limit both ASan and REST share;
* the documented *misses*: targeted (pointer-corruption) accesses that
  jump over redzones, and small overflows landing in the alignment pad
  (REST's §V-C false negative);
* REST-specific hardening: brute-force disarm probing, token forgery,
  and composability with uninstrumented third-party library code.
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core import RestException
from repro.core.exceptions import InvalidRestInstructionError
from repro.defenses.base import Defense
from repro.runtime.mte import MteViolation
from repro.runtime.shadow import AsanViolation

SECRET = b"PASSWORD+PRIVATE-KEY-MATERIAL!!!"

#: Every exception class that counts as a *detection* when an attack
#: trips a defense (REST tokens, ASan shadow checks, MTE tag checks).
_VIOLATIONS = (RestException, AsanViolation, MteViolation)


class AttackOutcome(enum.Enum):
    DETECTED = "detected"
    MISSED = "missed"
    #: The defense's structure made the attack impossible rather than
    #: detecting it (e.g. zeroed free pool stops uninitialized leaks).
    PREVENTED = "prevented"
    #: The attack targets machinery this defense does not have.
    NOT_APPLICABLE = "n/a"


@dataclass
class AttackResult:
    attack: str
    defense: str
    outcome: AttackOutcome
    detected_by: Optional[str] = None
    detail: str = ""

    @property
    def detected(self) -> bool:
        return self.outcome is AttackOutcome.DETECTED


def _caught(attack: str, defense: Defense, error: Exception, detail: str = "") -> AttackResult:
    return AttackResult(
        attack=attack,
        defense=defense.describe(),
        outcome=AttackOutcome.DETECTED,
        detected_by=type(error).__name__,
        detail=detail or str(error),
    )


def _missed(attack: str, defense: Defense, detail: str) -> AttackResult:
    return AttackResult(
        attack=attack,
        defense=defense.describe(),
        outcome=AttackOutcome.MISSED,
        detail=detail,
    )


def _prevented(attack: str, defense: Defense, detail: str) -> AttackResult:
    return AttackResult(
        attack=attack,
        defense=defense.describe(),
        outcome=AttackOutcome.PREVENTED,
        detail=detail,
    )


def _not_applicable(attack: str, defense: Defense, detail: str) -> AttackResult:
    return AttackResult(
        attack=attack,
        defense=defense.describe(),
        outcome=AttackOutcome.NOT_APPLICABLE,
        detail=detail,
    )


def _is_rest(defense: Defense) -> bool:
    return "rest-tokens" in defense.capabilities


# ---------------------------------------------------------------------------
# Spatial attacks
# ---------------------------------------------------------------------------


def heartbleed(defense: Defense) -> AttackResult:
    """Listing 1: attacker-controlled memcpy length over-reads the heap.

    The victim buffer holds a small legitimate payload; sensitive data
    sits in the adjacent allocation.  The attacker claims a payload
    length far beyond the buffer, and the unchecked memcpy walks off the
    end (Figure 1A) — unless a redzone stops it (Figure 1B).
    """
    machine = defense.machine
    request = defense.malloc(64)
    machine.store(request, b"HB-REQUEST" + b"\x00" * 54)
    secrets = defense.malloc(64)
    machine.store(secrets, SECRET * 2)
    response = defense.malloc(4096)
    claimed_payload = 1024  # attacker-controlled, actual data is 64B
    try:
        defense.memcpy(response, request, claimed_payload)
    except _VIOLATIONS as error:
        return _caught("heartbleed", defense, error)
    leaked = machine.load(response, claimed_payload)
    if SECRET[:8] in leaked:
        return _missed(
            "heartbleed", defense, "secret material leaked to response"
        )
    return _missed("heartbleed", defense, "over-read succeeded silently")


def linear_heap_overflow_write(defense: Defense) -> AttackResult:
    """A loop writes one word past the end of a heap buffer, repeatedly
    — the classic sweeping overflow pattern tripwires target."""
    machine = defense.machine
    victim = defense.malloc(128)
    neighbour = defense.malloc(64)
    machine.store(neighbour, b"critical")
    try:
        for offset in range(0, 256, 8):
            defense.store(victim + offset, b"AAAAAAAA")
    except _VIOLATIONS as error:
        return _caught("linear_heap_overflow_write", defense, error)
    if machine.load(neighbour, 8) != b"critical":
        return _missed(
            "linear_heap_overflow_write",
            defense,
            "adjacent allocation corrupted",
        )
    return _missed(
        "linear_heap_overflow_write", defense, "overflow went unnoticed"
    )


def heap_underflow_read(defense: Defense) -> AttackResult:
    """Read before the start of an allocation (off-by-one indexing)."""
    victim = defense.malloc(64)
    try:
        for offset in range(8, 96, 8):
            defense.load(victim - offset, 8)
    except _VIOLATIONS as error:
        return _caught("heap_underflow_read", defense, error)
    return _missed(
        "heap_underflow_read", defense, "under-read reached metadata region"
    )


def stack_linear_overflow(defense: Defense) -> AttackResult:
    """An unbounded copy into a stack buffer (strcpy-style smash)."""
    frame = defense.function_enter([64])
    try:
        if not frame.buffers:
            return _missed(
                "stack_linear_overflow", defense, "no protected stack buffers"
            )
        buffer = frame.buffers[0]
        try:
            for offset in range(0, 256, 8):
                defense.store(buffer.address + offset, b"BBBBBBBB")
        except _VIOLATIONS as error:
            return _caught("stack_linear_overflow", defense, error)
        return _missed(
            "stack_linear_overflow",
            defense,
            "copy ran past the frame unhindered",
        )
    finally:
        # Tear down carefully; the overflow may have been stopped before
        # the redzones were disturbed, so the epilogue must still run.
        try:
            defense.function_exit(frame)
        except Exception:
            pass


def stack_overread(defense: Defense) -> AttackResult:
    """Linear read past a stack buffer (format-string style leak)."""
    frame = defense.function_enter([32])
    try:
        if not frame.buffers:
            return _missed("stack_overread", defense, "no protected buffers")
        buffer = frame.buffers[0]
        try:
            for offset in range(0, 256, 8):
                defense.load(buffer.address + offset, 8)
        except _VIOLATIONS as error:
            return _caught("stack_overread", defense, error)
        return _missed("stack_overread", defense, "read the caller's frame")
    finally:
        try:
            defense.function_exit(frame)
        except Exception:
            pass


def targeted_corruption(defense: Defense) -> AttackResult:
    """Pointer-corruption attack: a *targeted* write that jumps clean
    over the redzone into another live allocation.

    Tripwire schemes (ASan and REST alike) do not detect this access
    pattern — only whitelisting/bounds-checking schemes do (Table III,
    "Linear" vs "Complete" spatial protection).
    """
    machine = defense.machine
    victim = defense.malloc(64)
    target = defense.malloc(64)
    machine.store(target, b"isadmin0")
    delta = target - victim  # attacker-derived exact displacement
    try:
        defense.store(victim + delta, b"isadmin1")
    except _VIOLATIONS as error:
        return _caught("targeted_corruption", defense, error)
    if machine.load(target, 8) == b"isadmin1":
        return _missed(
            "targeted_corruption",
            defense,
            "redzone jumped; adjacent object rewritten",
        )
    return _missed("targeted_corruption", defense, "write landed elsewhere")


def pad_overflow(defense: Defense) -> AttackResult:
    """A small overflow that lands in the alignment pad, not the token.

    This is REST's documented false negative (§V-C): token alignment
    introduces a pad between the buffer and the redzone, and overflows
    small enough to stay inside the pad go unseen.  ASan's 8-byte
    granularity makes the equivalent window much smaller.
    """
    # 40 bytes in a 64-byte-granule world leaves a 24-byte pad for REST;
    # ASan pads only to 8 bytes, so +8 is already poisoned there.
    victim = defense.malloc(40)
    try:
        defense.store(victim + 40, b"XXXXXXXX")
    except _VIOLATIONS as error:
        return _caught("pad_overflow", defense, error)
    return _missed(
        "pad_overflow", defense, "overflow absorbed by alignment pad"
    )


# ---------------------------------------------------------------------------
# Temporal attacks
# ---------------------------------------------------------------------------


def use_after_free_read(defense: Defense) -> AttackResult:
    """Dangling-pointer read of freed (quarantined) memory."""
    machine = defense.machine
    victim = defense.malloc(128)
    machine.store(victim, SECRET)
    defense.free(victim)
    try:
        data = defense.load(victim, 32)
    except _VIOLATIONS as error:
        return _caught("use_after_free_read", defense, error)
    if data[: len(SECRET)] == SECRET:
        return _missed(
            "use_after_free_read", defense, "freed secret still readable"
        )
    return _prevented(
        "use_after_free_read", defense, "freed data no longer present"
    )


def use_after_free_write(defense: Defense) -> AttackResult:
    """Dangling-pointer write into freed memory (heap corruption)."""
    victim = defense.malloc(128)
    defense.free(victim)
    try:
        defense.store(victim, b"pwnedptr")
    except _VIOLATIONS as error:
        return _caught("use_after_free_write", defense, error)
    return _missed("use_after_free_write", defense, "freed chunk rewritten")


def double_free(defense: Defense) -> AttackResult:
    """free() called twice on the same pointer."""
    victim = defense.malloc(64)
    defense.free(victim)
    try:
        defense.free(victim)
    except _VIOLATIONS as error:
        return _caught("double_free", defense, error)
    except Exception as error:
        # The plain allocator may throw a bookkeeping error — that is a
        # crash, not a detection.
        return _missed(
            "double_free",
            defense,
            f"allocator state corrupted ({type(error).__name__})",
        )
    return _missed("double_free", defense, "second free accepted")


def _reallocate_after_drain(defense: Defense, freed: int) -> Optional[int]:
    """Drain the quarantine (if any), then reallocate 64-byte chunks
    until one lands on ``freed``'s address; None if none does in 64."""
    quarantine_budget = getattr(defense.allocator, "quarantine_bytes", 0)
    drained = 0
    while drained <= quarantine_budget + 4096:
        filler = defense.malloc(512)
        defense.free(filler)
        drained += 512
    target = defense.canonical_address(freed)
    for _ in range(64):
        candidate = defense.malloc(64)
        if defense.canonical_address(candidate) == target:
            return candidate
    return None


def uaf_after_reallocation(defense: Defense) -> AttackResult:
    """Dangling access *after* the chunk left quarantine and was
    reallocated.  Both ASan and REST lose the bug at this point — their
    temporal protection lasts "until realloc" (Table III)."""
    machine = defense.machine
    victim = defense.malloc(64)
    defense.free(victim)
    reused = _reallocate_after_drain(defense, victim)
    if reused is None:
        return _prevented(
            "uaf_after_reallocation",
            defense,
            "allocator never reissued the freed address",
        )
    machine.store(reused, b"newowner")
    try:
        data = defense.load(victim, 8)  # dangling pointer, same address
    except _VIOLATIONS as error:
        return _caught("uaf_after_reallocation", defense, error)
    return _missed(
        "uaf_after_reallocation",
        defense,
        f"dangling read returned new owner's data {data!r}",
    )


def uninitialized_heap_leak(defense: Defense) -> AttackResult:
    """Read a fresh allocation hoping for a previous owner's data.

    REST's relaxed invariant (zeroed free pool) *prevents* this
    structurally; the plain allocator leaks stale bytes."""
    machine = defense.machine
    first = defense.malloc(64)
    machine.store(first, SECRET)
    defense.free(first)
    probe = _reallocate_after_drain(defense, first)
    if probe is None:
        return _prevented(
            "uninitialized_heap_leak", defense, "address never reused"
        )
    try:
        data = defense.load(probe, len(SECRET))
    except _VIOLATIONS as error:
        return _caught("uninitialized_heap_leak", defense, error)
    if data == SECRET:
        return _missed(
            "uninitialized_heap_leak", defense, "stale secret returned"
        )
    return _prevented(
        "uninitialized_heap_leak", defense, "reused memory arrived zeroed"
    )


# ---------------------------------------------------------------------------
# REST-specific hardening probes
# ---------------------------------------------------------------------------


def brute_force_disarm(defense: Defense) -> AttackResult:
    """Attacker controls a disarm gadget but not the layout (§V-C).

    Blindly disarming swaths of memory must fault on the first location
    that holds no token — disarm demands a precisely armed target."""
    machine = defense.machine
    if not _is_rest(defense) or machine.hierarchy is None:
        return _not_applicable(
            "brute_force_disarm", defense, "no disarm gadget without REST"
        )
    victim = defense.malloc(64)
    try:
        # Sweep guesses at token-width granularity near the allocation.
        width = machine.token_width
        for guess in range(16):
            machine.disarm((victim & ~(width - 1)) + 2 * width * guess + 4 * width)
    except (RestException, InvalidRestInstructionError) as error:
        return _caught("brute_force_disarm", defense, error)
    return _missed("brute_force_disarm", defense, "swept without faulting")


def token_forgery(defense: Defense) -> AttackResult:
    """Try to conjure a token by writing attacker-chosen bytes.

    Without knowing the secret value the chance of success is 2^-512;
    writing wrong bytes must neither set a token bit nor fault."""
    machine = defense.machine
    if not _is_rest(defense) or machine.hierarchy is None:
        return _not_applicable(
            "token_forgery", defense, "no tokens to forge without REST"
        )
    scratch = defense.malloc(128)
    forged = bytes(range(64))
    machine.store(scratch, forged)
    machine.hierarchy.writeback_all()
    machine.load(scratch, 64)  # refetch through the detector
    if machine.hierarchy.is_armed(scratch):
        return _missed("token_forgery", defense, "forged a token?!")
    return _prevented(
        "token_forgery",
        defense,
        "forged pattern not recognised as token (2^-512 bound)",
    )


def library_overflow(defense: Defense) -> AttackResult:
    """Composability (§V-C): the overflow happens inside an
    *uninstrumented third-party library* — its copy loop has no ASan
    checks and no intercepted entry point.

    ASan misses this (its checks are compiled into the program, not the
    library); REST still catches it because the token guards the data
    itself, no matter whose code touches it."""
    machine = defense.machine
    victim = defense.malloc(64)
    secrets = defense.malloc(64)
    machine.store(secrets, SECRET * 2)
    scratch = defense.malloc(4096)
    try:
        # Call the raw libc loop directly: no interception, the way a
        # third-party .so would run.
        defense.libc.memcpy(scratch, victim, 512)
    except _VIOLATIONS as error:
        return _caught("library_overflow", defense, error)
    leaked = machine.load(scratch, 512)
    if SECRET[:8] in leaked:
        return _missed(
            "library_overflow", defense, "library loop leaked the secret"
        )
    return _missed("library_overflow", defense, "library over-read silent")


def use_after_return(defense: Defense) -> AttackResult:
    """Use-after-return: a pointer to a dead frame's local escapes.

    REST's epilogue *disarms* the frame's redzones so future frames
    inherit a clean stack (Figure 6A) — which means a stale pointer to
    the dead frame is unprotected.  ASan as modelled here (and as
    commonly deployed, without the fake-stack option) misses it too.
    Documents a scope boundary both schemes share."""
    machine = defense.machine
    frame = defense.function_enter([64])
    if not frame.buffers:
        escaped = defense.stack.stack_pointer - 64
    else:
        escaped = frame.buffers[0].address
        defense.store(escaped, b"localval")
    defense.function_exit(frame)
    try:
        data = defense.load(escaped, 8)
    except _VIOLATIONS as error:
        return _caught("use_after_return", defense, error)
    return _missed(
        "use_after_return",
        defense,
        f"dead frame's local still accessible ({data!r})",
    )


def intra_object_overflow(defense: Defense) -> AttackResult:
    """Overflow from one field of a struct into a sibling field.

    No redzone can sit *inside* an object, so every tripwire scheme —
    and most bounds-checking schemes, which track whole-object bounds —
    misses this by construction."""
    machine = defense.machine
    # struct { char name[16]; int is_admin; } — one allocation.
    record = defense.malloc(24)
    machine.store(record + 16, b"\x00" * 8)  # is_admin = 0
    try:
        # The unchecked copy into `name` runs 8 bytes long.
        defense.store(record + 16, b"\x01" * 8)
    except _VIOLATIONS as error:
        return _caught("intra_object_overflow", defense, error)
    if machine.load(record + 16, 8) != b"\x00" * 8:
        return _missed(
            "intra_object_overflow",
            defense,
            "sibling field overwritten (privilege flag flipped)",
        )
    return _missed("intra_object_overflow", defense, "write absorbed")


def off_by_one_write(defense: Defense) -> AttackResult:
    """The classic single-byte overflow at the exact buffer boundary.

    With an allocation size that is already token/granule aligned (64
    bytes) there is no pad, so the byte lands directly on the redzone
    and both ASan and REST catch it; the pad-absorbed variant is the
    separate ``pad_overflow`` scenario."""
    victim = defense.malloc(64)  # granule- and token-aligned size
    try:
        defense.store(victim + 64, b"\x00")
    except _VIOLATIONS as error:
        return _caught("off_by_one_write", defense, error)
    return _missed("off_by_one_write", defense, "boundary byte clobbered")


def syscall_confused_deputy(defense: Defense) -> AttackResult:
    """Kernel-side access with attacker-controlled size (§V-C, VII).

    A read()-style syscall writes into a user buffer with a corrupted
    size argument.  Schemes that rely on compiled-in checks cannot see
    kernel accesses; REST raises because token exceptions fire at every
    privilege level."""
    from repro.core.modes import PrivilegeLevel

    machine = defense.machine
    if machine.hierarchy is None:
        return _prevented("syscall_confused_deputy", defense, "no hardware")
    victim = defense.malloc(64)
    try:
        # The "kernel" writes 512 bytes into a 64-byte buffer.
        machine.hierarchy.write(
            defense.canonical_address(victim),
            b"k" * 512,
            privilege=PrivilegeLevel.SUPERVISOR,
        )
    except RestException as error:
        return _caught("syscall_confused_deputy", defense, error)
    return _missed(
        "syscall_confused_deputy", defense, "kernel write overflowed buffer"
    )


#: name -> attack callable.
ATTACK_REGISTRY: Dict[str, Callable[[Defense], AttackResult]] = {
    "heartbleed": heartbleed,
    "linear_heap_overflow_write": linear_heap_overflow_write,
    "heap_underflow_read": heap_underflow_read,
    "stack_linear_overflow": stack_linear_overflow,
    "stack_overread": stack_overread,
    "targeted_corruption": targeted_corruption,
    "pad_overflow": pad_overflow,
    "use_after_free_read": use_after_free_read,
    "use_after_free_write": use_after_free_write,
    "double_free": double_free,
    "uaf_after_reallocation": uaf_after_reallocation,
    "uninitialized_heap_leak": uninitialized_heap_leak,
    "brute_force_disarm": brute_force_disarm,
    "token_forgery": token_forgery,
    "library_overflow": library_overflow,
    "syscall_confused_deputy": syscall_confused_deputy,
    "use_after_return": use_after_return,
    "intra_object_overflow": intra_object_overflow,
    "off_by_one_write": off_by_one_write,
}


class UnknownAttackError(KeyError):
    """Raised for attack names not in :data:`ATTACK_REGISTRY`.

    A ``KeyError`` subclass (callers that catch ``KeyError`` keep
    working) carrying the bad name, the known names and close-match
    suggestions so CLI layers can print an actionable message.
    """

    def __init__(self, name: str, known: Sequence[str]) -> None:
        self.name = name
        self.known = tuple(known)
        self.suggestions = tuple(
            difflib.get_close_matches(name, self.known, n=3, cutoff=0.6)
        )
        message = f"unknown attack {name!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions)
        message += "; known: " + ", ".join(self.known)
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg
        return self.args[0]


def run_attack(name: str, defense: Defense) -> AttackResult:
    """Run one registered attack against a (fresh) defense instance.

    Defenses with deferred fault delivery (MTE async/asymm) may let the
    attack *complete* and only report at a later checkpoint; a missed
    verdict with a pending fault is therefore re-scored as an imprecise
    detection — the report arrived, just not at the faulting access.
    """
    try:
        attack = ATTACK_REGISTRY[name]
    except KeyError:
        raise UnknownAttackError(name, sorted(ATTACK_REGISTRY)) from None
    result = attack(defense)
    if result.outcome is AttackOutcome.MISSED:
        pending = defense.take_pending_fault()
        if pending is not None:
            result = AttackResult(
                attack=result.attack,
                defense=result.defense,
                outcome=AttackOutcome.DETECTED,
                detected_by=type(pending).__name__,
                detail=f"imprecise (checkpoint delivery): {pending}",
            )
    return result
