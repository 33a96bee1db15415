"""Memory hierarchy wiring with REST semantics (paper Table I).

The hierarchy connects the L1 data cache (carrying token bits and the
fill-path detector), a unified L2 (tags only — the detector is placed at
L1-D specifically to leave other caches unmodified, Section V-B), and
the DRAM model over a sparse backing store that holds authoritative
data.

Table I semantics implemented here:

===========  =======================================  ==========================================
Action       Cache hit                                Cache miss
===========  =======================================  ==========================================
Arm          set token bit                            fetch line, set token bit
Disarm       raise if token bit unset, else clear     fetch line (detector may set bit), as hit
             slot and unset bit
Load         raise if token bit set, else read        fetch line, detector sets bit if token,
                                                      proceed as hit
Store        raise if token bit set, else write       fetch line (write-allocate), as hit;
                                                      debug mode delays commit until L1-D ack
Eviction     if token bit set, fill token value into
             the outgoing packet
===========  =======================================  ==========================================

Arm does *not* write the token value into the line: it only sets the
bit, and the value is materialised when the line is evicted.  This is
what lets an arm that hits complete in a single cycle despite logically
being a 64-byte-wide store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cache.cache import Cache, CacheConfig
from repro.core.detector import TokenDetector
from repro.obs.tracer import NULL_TRACER
from repro.core.exceptions import (
    InvalidRestInstructionError,
    RestException,
    RestFaultKind,
)
from repro.core.modes import Mode, PrivilegeLevel
from repro.core.token import TokenConfigRegister
from repro.mem.backing import BackingStore
from repro.mem.dram import DramModel


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache-side configuration (defaults per Table II)."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="L1-D")
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="L1-I")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2",
            size=2 * 1024 * 1024,
            associativity=16,
            hit_latency=20,
            mshr_registers=20,
            mshr_entries=12,
            write_buffer_entries=8,
        )
    )
    #: Extra cycles a debug-mode load is held in the MSHR while the
    #: delivered critical word partially matches the token value.
    debug_token_hold_cycles: int = 2
    #: Extra latency of a disarm write (touches all data banks at once).
    disarm_extra_cycles: int = 1
    #: Extra cycles per L1-D load miss in debug mode: precise REST
    #: exceptions require disabling critical-word-first fetching (paper
    #: "Exception Reporting"), so the load waits for the rest of the
    #: line's fill beats.
    debug_no_cwf_extra_cycles: int = 4
    #: §VIII future-work hardware: a dedicated staging structure for
    #: REST lines that acks arm/disarm writes immediately, cutting the
    #: debug-mode commit wait for token operations.  0 disables it.
    token_staging_entries: int = 0
    #: When True, a dirty/token line evicted by an L1 fill contends for
    #: the L1 write buffer like any other outgoing write: a full buffer
    #: stalls the *fill* until a slot drains, instead of letting the
    #: victim's writeback leave for free.  Off by default because the
    #: committed experiment goldens (results/*) pin the legacy timing in
    #: which evictions bypass the buffer; flip it (and regenerate the
    #: goldens) at the next baseline refresh.
    eviction_port_stalls: bool = False


@dataclass
class AccessResult:
    """Timing and path information for one hierarchy access."""

    latency: int = 0
    l1_hit: bool = True
    l2_hit: bool = False
    went_to_memory: bool = False
    token_bit_seen: bool = False


@dataclass
class HierarchyStats:
    """REST-specific traffic counters (paper Section VI-B in-text)."""

    tokens_filled_from_memory: int = 0
    tokens_written_to_memory: int = 0
    arms: int = 0
    disarms: int = 0
    token_faults: int = 0
    #: Faults swallowed while the (privileged-only) mask bit was set.
    suppressed_faults: int = 0
    #: Token ops absorbed by the §VIII staging buffer, and stalls when
    #: it was full.
    staged_token_ops: int = 0
    staging_full_stalls: int = 0

    @property
    def tokens_at_memory_interface(self) -> int:
        """Token lines crossing the L2/memory interface, both directions."""
        return self.tokens_filled_from_memory + self.tokens_written_to_memory


class MemoryHierarchy:
    """L1-D + L2 + DRAM with REST token semantics."""

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        token_config: Optional[TokenConfigRegister] = None,
        backing: Optional[BackingStore] = None,
        dram: Optional[DramModel] = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.token_config = token_config or TokenConfigRegister()
        self.backing = backing or BackingStore()
        self.dram = dram or DramModel()
        self.l1d = Cache(self.config.l1d)
        self.l1i = Cache(self.config.l1i)
        self.l2 = Cache(self.config.l2)
        self.detector = TokenDetector(
            self.token_config, line_size=self.config.l1d.line_size
        )
        self.stats = HierarchyStats()
        #: Observability hook; event sites below are all per-miss or
        #: per-writeback, guarded on ``tracer.enabled``.
        self.tracer = NULL_TRACER
        #: §VIII token staging buffer: a small FIFO that acks token
        #: writes immediately and drains in the background.  Timing
        #: model only — token state is applied immediately.
        self._staging: list = []

    # -- helpers ----------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self.token_config.mode

    @property
    def line_size(self) -> int:
        return self.config.l1d.line_size

    def _slot_mask(self, address: int, size: int) -> int:
        # Contiguous bit run covering slots [first, last]; equivalent to
        # OR-ing ``1 << slot`` over detector.slots_touched(address, size)
        # without materialising the slot list.
        width = self.detector.token.width
        offset = address % self.config.l1d.line_size
        first = offset // width
        last = (offset + size - 1) // width
        return (1 << (last + 1)) - (1 << first)

    def _split_lines(self, address: int, size: int):
        """(addr, size) pieces that each stay within one line."""
        line_size = self.config.l1d.line_size
        pieces = []
        while size > 0:
            line_base = address - (address % line_size)
            take = min(size, line_base + line_size - address)
            pieces.append((address, take))
            address += take
            size -= take
        return pieces

    # -- fill / evict paths -------------------------------------------------

    def _fetch_into_l1(self, address: int, result: AccessResult) -> "CacheLine":
        """Handle an L1-D miss: go to L2/DRAM, scan fill data, install."""
        line_base = self.l1d.line_address(address)
        result.l1_hit = False
        self.l1d.stats.misses += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("l1d_miss", tracer.now, address=line_base)
        if self.l1d.mshrs.allocate(line_base) is None:
            # Structural stall: charge a cycle for the blocking miss to
            # complete, then retry.  Only the register that blocked us
            # is retired — the old wholesale ``reset()`` here discarded
            # every other outstanding miss and let the retry allocation
            # recount entries the file had already accounted for.
            self.l1d.stats.mshr_stall_cycles += 1
            result.latency += 1
            if tracer.enabled:
                tracer.emit("mshr_stall", tracer.now, address=line_base)
            self.l1d.mshrs.retire_blocking(line_base)
            self.l1d.mshrs.allocate(line_base)
        result.latency += self.config.l2.hit_latency
        l2_line = self.l2.lookup(line_base)
        if l2_line is not None:
            self.l2.stats.hits += 1
            result.l2_hit = True
        else:
            self.l2.stats.misses += 1
            result.went_to_memory = True
            result.latency += self.dram.access(line_base, is_write=False)
            _, l2_victim = self.l2.install(line_base)
            if l2_victim is not None and l2_victim.dirty:
                victim_base = self.l2.victim_address(line_base, l2_victim)
                self._account_line_to_memory(victim_base)
        # The fill passes through the L1-D token detector.
        data = self.backing.read(line_base, self.line_size)
        token_bits = self.detector.scan_line(data)
        if token_bits and result.went_to_memory:
            self.stats.tokens_filled_from_memory += 1
        line, victim = self.l1d.install(line_base, token_bits=token_bits)
        if tracer.enabled:
            tracer.emit(
                "l1d_fill",
                tracer.now,
                address=line_base,
                l2_hit=result.l2_hit,
                memory=result.went_to_memory,
                tokens=token_bits,
                latency=result.latency,
            )
        if victim is not None:
            result.latency += self._handle_l1_eviction(line_base, victim)
        self.l1d.mshrs.release(line_base)
        return line

    def _handle_l1_eviction(self, probe_address: int, victim) -> int:
        """Table I eviction: fill token value into the outgoing packet.

        Returns the stall cycles the eviction costs the triggering fill
        (non-zero only with ``eviction_port_stalls`` and a contended
        write buffer).
        """
        stall = 0
        if self.config.eviction_port_stalls and (
            victim.dirty or victim.token_bits
        ):
            # The victim's writeback leaves through the same L1 write
            # buffer stores drain through; a full buffer stalls the
            # fill until a slot opens, it does not drop the writeback.
            stall = self.l1d.write_buffer.insert()
        victim_base = self.l1d.victim_address(probe_address, victim)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "l1d_writeback",
                tracer.now,
                address=victim_base,
                dirty=victim.dirty,
                tokens=victim.token_bits,
                wb_stall=stall,
            )
        if victim.token_bits:
            self.materialise_tokens(victim_base, victim.token_bits)
        if victim.dirty or victim.token_bits:
            l2_line = self.l2.lookup(victim_base)
            if l2_line is not None:
                l2_line.dirty = True
            else:
                l2_line, l2_victim = self.l2.install(victim_base)
                if l2_victim is not None and l2_victim.dirty:
                    self._account_line_to_memory(
                        self.l2.victim_address(victim_base, l2_victim)
                    )
                l2_line.dirty = True
        return stall

    def materialise_tokens(self, line_base: int, token_bits: int) -> None:
        """Write the token value into every armed slot of a line leaving
        the L1-D (eviction, coherence surrender, ``writeback_all``)."""
        token = self.detector.token
        for slot in range(self.detector.slots_per_line):
            if token_bits & (1 << slot):
                self.backing.write(line_base + slot * token.width, token.value)

    def _account_line_to_memory(self, line_base: int) -> None:
        """An L2 line drains to DRAM; count token lines crossing over."""
        self.dram.access(line_base, is_write=True)
        data = self.backing.read(line_base, self.line_size)
        tokened = bool(self.detector.scan_line(data))
        if tokened:
            self.stats.tokens_written_to_memory += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "l2_writeback",
                tracer.now,
                address=line_base,
                tokened=tokened,
            )

    # -- public operations --------------------------------------------------

    def read(
        self,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> Tuple[bytes, AccessResult]:
        """A regular load.  Raises RestException on token access."""
        result = AccessResult(latency=self.config.l1d.hit_latency)
        if self._staging:
            del self._staging[0]
        # Single-line fast path: the overwhelming majority of accesses
        # stay within one line, so skip the split loop and byte joins.
        line_size = self.config.l1d.line_size
        if 0 < size <= line_size - address % line_size:
            self._checked_access(address, size, result, privilege, cycle)
            return self.backing.read(address, size), result
        out = bytearray()
        for piece_addr, piece_size in self._split_lines(address, size):
            self._checked_access(
                piece_addr, piece_size, result, privilege, cycle
            )
            out += self.backing.read(piece_addr, piece_size)
        return bytes(out), result

    def _checked_access(
        self,
        piece_addr: int,
        piece_size: int,
        result: AccessResult,
        privilege: PrivilegeLevel,
        cycle: Optional[int],
        is_store: bool = False,
    ) -> None:
        """Token-checked L1-D access of one within-line piece.

        Shared body of :meth:`read` and :meth:`write`: fetch on miss
        (with the debug-mode no-critical-word-first penalty for loads),
        then raise per Table I if the access touches an armed slot.
        """
        l1d = self.l1d
        line = l1d.lookup(piece_addr)
        if line is None:
            line = self._fetch_into_l1(piece_addr, result)
            if not is_store and self.mode is Mode.DEBUG:
                # Precise exceptions: no critical-word-first, the
                # load waits for the whole line.
                result.latency += self.config.debug_no_cwf_extra_cycles
                if line.token_bits:
                    # Word partially matched; load held in the MSHR.
                    l1d.mshrs.token_holds += 1
                    result.latency += self.config.debug_token_hold_cycles
        else:
            l1d.stats.hits += 1
        # Compute the slot mask only when the line carries token bits at
        # all (almost never), not on every access.
        if line.token_bits and line.token_bits & self._slot_mask(
            piece_addr, piece_size
        ):
            result.token_bit_seen = True
            if self.token_config.exceptions_masked:
                # Privileged software (e.g. mid-rotation) masked
                # REST exceptions; the access proceeds (§V-B: user
                # level can never set this bit).
                self.stats.suppressed_faults += 1
            else:
                self.stats.token_faults += 1
                if privilege > PrivilegeLevel.USER:
                    kind = RestFaultKind.SYSCALL_TOUCHED_TOKEN
                elif is_store:
                    kind = RestFaultKind.STORE_TOUCHED_TOKEN
                else:
                    kind = RestFaultKind.LOAD_TOUCHED_TOKEN
                raise RestException(
                    piece_addr,
                    kind,
                    precise=self.mode.precise_exceptions,
                    cycle=cycle,
                )
        if is_store:
            line.dirty = True

    def write(
        self,
        address: int,
        data: bytes,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> AccessResult:
        """A regular store (write-allocate).  Raises on token access."""
        result = AccessResult(latency=self.config.l1d.hit_latency)
        if self._staging:
            del self._staging[0]
        size = len(data)
        line_size = self.config.l1d.line_size
        if 0 < size <= line_size - address % line_size:
            self._checked_access(
                address, size, result, privilege, cycle, is_store=True
            )
            self.backing.write(address, data)
            wb_stall = self.l1d.write_buffer.insert()
            if wb_stall:
                result.latency += wb_stall
                if self.tracer.enabled:
                    self.tracer.emit(
                        "wb_stall",
                        self.tracer.now,
                        address=address,
                        cycles=wb_stall,
                    )
            return result
        offset = 0
        for piece_addr, piece_size in self._split_lines(address, size):
            self._checked_access(
                piece_addr, piece_size, result, privilege, cycle,
                is_store=True,
            )
            self.backing.write(piece_addr, data[offset : offset + piece_size])
            wb_stall = self.l1d.write_buffer.insert()
            if wb_stall:
                result.latency += wb_stall
                if self.tracer.enabled:
                    self.tracer.emit(
                        "wb_stall",
                        self.tracer.now,
                        address=piece_addr,
                        cycles=wb_stall,
                    )
            offset += piece_size
        return result

    def _stage_token_op(self, address: int, result: AccessResult) -> None:
        """Route a token op through the §VIII staging buffer (if any).

        The buffer acks immediately while it has room; a full buffer
        costs one drain cycle.  One pending entry drains per regular
        data access (see read/write).
        """
        entries = self.config.token_staging_entries
        if not entries:
            return
        self.stats.staged_token_ops += 1
        if len(self._staging) >= entries:
            self.stats.staging_full_stalls += 1
            result.latency += 1
            self._staging.pop(0)
        self._staging.append(address)

    def _drain_staging(self) -> None:
        if self._staging:
            self._staging.pop(0)

    def arm(self, address: int, cycle: Optional[int] = None) -> AccessResult:
        """Place a token at ``address`` (must be token-width aligned).

        Sets the token bit only; the token value is written out when the
        line is evicted, so an arm that hits completes in one cycle.
        """
        token = self.detector.token
        if address % token.width != 0:
            raise InvalidRestInstructionError(address, token.width, "arm")
        self.stats.arms += 1
        result = AccessResult(latency=1)
        self._stage_token_op(address, result)
        line = self.l1d.lookup(address)
        if line is None:
            line = self._fetch_into_l1(address, result)
        else:
            self.l1d.stats.hits += 1
        line.token_bits |= 1 << self.detector.slot_of(address)
        line.dirty = True
        return result

    def disarm(self, address: int, cycle: Optional[int] = None) -> AccessResult:
        """Remove the token at ``address``, zeroing the slot.

        Raises a REST exception if the location holds no token — the
        paper mandates precise disarm targets to stop attackers blindly
        sweeping memory with a disarm gadget (Section V-C).
        """
        token = self.detector.token
        if address % token.width != 0:
            raise InvalidRestInstructionError(address, token.width, "disarm")
        self.stats.disarms += 1
        result = AccessResult(latency=1 + self.config.disarm_extra_cycles)
        self._stage_token_op(address, result)
        line = self.l1d.lookup(address)
        if line is None:
            line = self._fetch_into_l1(address, result)
        else:
            self.l1d.stats.hits += 1
        slot_bit = 1 << self.detector.slot_of(address)
        if not line.token_bits & slot_bit:
            self.stats.token_faults += 1
            raise RestException(
                address,
                RestFaultKind.DISARM_UNARMED,
                precise=True,
                cycle=cycle,
            )
        line.token_bits &= ~slot_bit
        line.dirty = True
        self.backing.write(address, b"\x00" * token.width)
        return result

    def fetch_line(self, pc: int) -> int:
        """Instruction fetch through the L1-I; returns *stall* cycles.

        Hits are fully pipelined (zero stall); a miss stalls the fetch
        stage for the L2/memory portion of the fill.  A next-line
        prefetcher runs alongside, so straight-line code mostly streams
        without stalling — branch targets (calls into cold functions)
        take the misses, which is where real front-ends suffer.  The
        instruction side carries no REST machinery — the detector is
        L1-D only (paper §V-B, Detector Placement).
        """
        line_base = self.l1i.line_address(pc)
        line = self.l1i.lookup(line_base)
        if line is not None:
            self.l1i.stats.hits += 1
            self._prefetch_instruction_line(line_base + self.line_size)
            return 0
        self.l1i.stats.misses += 1
        stall = self.config.l2.hit_latency
        l2_line = self.l2.lookup(line_base)
        if l2_line is not None:
            self.l2.stats.hits += 1
        else:
            self.l2.stats.misses += 1
            stall += self.dram.access(line_base, is_write=False)
            self.l2.install(line_base)
        self.l1i.install(line_base)
        self._prefetch_instruction_line(line_base + self.line_size)
        return stall

    def _prefetch_instruction_line(self, line_base: int) -> None:
        """Background next-line prefetch: fills without stalling."""
        if self.l1i.lookup(line_base, touch=False) is not None:
            return
        if self.l2.lookup(line_base) is None:
            self.l2.stats.misses += 1
            self.dram.access(line_base, is_write=False)
            self.l2.install(line_base)
        else:
            self.l2.stats.hits += 1
        self.l1i.install(line_base)

    def is_armed(self, address: int) -> bool:
        """Test-visible predicate: does ``address`` hold a token?

        Checks the L1-D token bit if the line is resident, else scans the
        backing data the way a fill would.  Simulation-only: real
        programs have no way to probe for tokens (Section V-C).
        """
        token = self.detector.token
        base = address - (address % token.width)
        line = self.l1d.lookup(base, touch=False)
        if line is not None:
            return bool(line.token_bits & (1 << self.detector.slot_of(base)))
        return token.matches(self.backing.read(base, token.width))

    def writeback_all(self) -> None:
        """Drain all L1-D token/dirty state into the backing store."""
        for base, line in self.l1d.lines():
            if line.token_bits:
                self.materialise_tokens(base, line.token_bits)
        self.l1d.invalidate_all()
        self.l2.flush()

    def reset_stats(self) -> None:
        self.stats = HierarchyStats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.dram.reset_stats()
