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
from repro.cache.line import CacheLine
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
            write_buffer_entries=8,
        )
    )
    #: Extra cycles a debug-mode load is held while the delivered
    #: critical word partially matches the token value.
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
        #: Path of the latest access (see the public operations).
        self.went_to_memory = False
        self.l2_hit = False
        self.token_bit_seen = False
        self._line_size = self.config.l1d.line_size
        self._line_mask = -self._line_size
        # A line sits inside one backing page, so fills scan it in place.
        if self.backing.page_size < self._line_size:
            raise ValueError("backing pages must hold a whole L1-D line")
        self._page_mask = self.backing.page_size - 1

    # -- helpers ----------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self.token_config.mode

    @property
    def line_size(self) -> int:
        return self._line_size

    def _slot_mask(self, address: int, size: int) -> int:
        # Contiguous bit run covering slots [first, last]; equivalent to
        # OR-ing ``1 << slot`` over detector.slots_touched(address, size)
        # without materialising the slot list.
        width = self.detector.token.width
        offset = address % self._line_size
        first = offset // width
        last = (offset + size - 1) // width
        return (1 << (last + 1)) - (1 << first)

    def _split_lines(self, address: int, size: int):
        """(addr, size) pieces that each stay within one line."""
        line_size = self._line_size
        pieces = []
        while size > 0:
            line_base = address - (address % line_size)
            take = min(size, line_base + line_size - address)
            pieces.append((address, take))
            address += take
            size -= take
        return pieces

    # -- fill / evict paths -------------------------------------------------

    def _fetch_into_l1(self, address: int, latency: int) -> Tuple[CacheLine, int]:
        """Handle an L1-D miss: go to L2/DRAM, scan fill data, install.

        ``latency`` is the access's running total; returns the
        installed line and the total with the fill added.
        """
        l1d = self.l1d
        line_base = address & self._line_mask
        l1d.stats.misses += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("l1d_miss", tracer.now, address=line_base)
        latency += self.config.l2.hit_latency
        l2 = self.l2
        if l2.lookup(line_base) is not None:
            l2.stats.hits += 1
            self.l2_hit = True
        else:
            l2.stats.misses += 1
            self.went_to_memory = True
            latency += self.dram.access(line_base, is_write=False)
            _, l2_victim = l2.install(line_base)
            if l2_victim is not None and l2_victim.dirty:
                self._account_line_to_memory(
                    l2.victim_address(line_base, l2_victim)
                )
        # The fill passes through the L1-D token detector, which scans
        # the backing page in place.
        token_bits = self.detector.scan_at(
            self.backing.page_of(line_base), line_base & self._page_mask
        )
        if token_bits and self.went_to_memory:
            self.stats.tokens_filled_from_memory += 1
        line, victim = l1d.install(line_base, token_bits=token_bits)
        if tracer.enabled:
            tracer.emit(
                "l1d_fill",
                tracer.now,
                address=line_base,
                l2_hit=self.l2_hit,
                memory=self.went_to_memory,
                tokens=token_bits,
                latency=latency,
            )
        if victim is not None:
            self._handle_l1_eviction(line_base, victim)
        return line, latency

    def _handle_l1_eviction(self, probe_address: int, victim) -> None:
        """Table I eviction: fill token value into the outgoing packet.

        The victim's writeback bypasses the L1 write buffer, so an
        eviction never stalls the fill that caused it.
        """
        victim_base = self.l1d.victim_address(probe_address, victim)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "l1d_writeback",
                tracer.now,
                address=victim_base,
                dirty=victim.dirty,
                tokens=victim.token_bits,
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
        tokened = bool(
            self.detector.scan_at(
                self.backing.page_of(line_base), line_base & self._page_mask
            )
        )
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
    #
    # The core calls the ``*_latency`` methods: each returns the access's
    # latency in cycles and leaves its path in ``went_to_memory``,
    # ``l2_hit`` and ``token_bit_seen``, so an access allocates nothing.
    # ``read``/``write``/``arm``/``disarm`` are the functional interface:
    # the same bodies, plus the data and an :class:`AccessResult`.

    def _result(self, latency: int) -> AccessResult:
        """The latest access's path, packed for the functional API."""
        return AccessResult(
            latency=latency,
            # Every L1-D miss is served by exactly one of L2 or memory.
            l1_hit=not (self.l2_hit or self.went_to_memory),
            l2_hit=self.l2_hit,
            went_to_memory=self.went_to_memory,
            token_bit_seen=self.token_bit_seen,
        )

    def load_latency(
        self,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> int:
        """A regular load; returns its latency.  Raises RestException
        on token access."""
        self.went_to_memory = self.l2_hit = self.token_bit_seen = False
        if self._staging:
            del self._staging[0]
        latency = self.config.l1d.hit_latency
        l1d = self.l1d
        # Single-line fast path: the overwhelming majority of accesses
        # stay within one line, so skip the split loop, and a hit on a
        # line without token bits needs no check.
        line_size = self._line_size
        if 0 < size <= line_size - address % line_size:
            line = l1d.lookup(address)
            if line is not None and not line.token_bits:
                l1d.stats.hits += 1
                return latency
            return self._checked_access(
                line, address, size, latency, privilege, cycle, False
            )
        for piece_addr, piece_size in self._split_lines(address, size):
            latency = self._checked_access(
                l1d.lookup(piece_addr),
                piece_addr,
                piece_size,
                latency,
                privilege,
                cycle,
                False,
            )
        return latency

    def read(
        self,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> Tuple[bytes, AccessResult]:
        """A regular load.  Raises RestException on token access."""
        latency = self.load_latency(address, size, privilege, cycle)
        data = self.backing.read(address, size) if size > 0 else b""
        return data, self._result(latency)

    def _checked_access(
        self,
        line: Optional[CacheLine],
        piece_addr: int,
        piece_size: int,
        latency: int,
        privilege: PrivilegeLevel,
        cycle: Optional[int],
        is_store: bool,
    ) -> int:
        """Token-checked L1-D access of one within-line piece, whose
        L1-D lookup gave ``line``.

        Shared body of loads and stores: fetch on miss (with the
        debug-mode no-critical-word-first penalty for loads), then raise
        per Table I if the access touches an armed slot.  Returns the
        running ``latency`` with this piece's share added.
        """
        if line is None:
            line, latency = self._fetch_into_l1(piece_addr, latency)
            if not is_store and self.token_config.mode is Mode.DEBUG:
                # Precise exceptions: no critical-word-first, the
                # load waits for the whole line.
                latency += self.config.debug_no_cwf_extra_cycles
                if line.token_bits:
                    # Word partially matched; the load is held while
                    # the rest of the line is checked.
                    latency += self.config.debug_token_hold_cycles
        else:
            self.l1d.stats.hits += 1
        # Compute the slot mask only when the line carries token bits at
        # all (almost never), not on every access.
        if line.token_bits and line.token_bits & self._slot_mask(
            piece_addr, piece_size
        ):
            self.token_bit_seen = True
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
        return latency

    def store_latency(
        self,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
        data: Optional[bytes] = None,
    ) -> int:
        """A regular store (write-allocate) of ``data``, or of ``size``
        zero bytes when ``data`` is None; returns its latency.  Raises
        on token access."""
        self.went_to_memory = self.l2_hit = self.token_bit_seen = False
        if self._staging:
            del self._staging[0]
        latency = self.config.l1d.hit_latency
        l1d = self.l1d
        line_size = self._line_size
        if 0 < size <= line_size - address % line_size:
            line = l1d.lookup(address)
            if line is not None and not line.token_bits:
                l1d.stats.hits += 1
                line.dirty = True
            else:
                latency = self._checked_access(
                    line, address, size, latency, privilege, cycle, True
                )
            return self._store_data(address, size, latency, data)
        offset = 0
        for piece_addr, piece_size in self._split_lines(address, size):
            latency = self._checked_access(
                l1d.lookup(piece_addr),
                piece_addr,
                piece_size,
                latency,
                privilege,
                cycle,
                True,
            )
            latency = self._store_data(
                piece_addr,
                piece_size,
                latency,
                None if data is None else data[offset : offset + piece_size],
            )
            offset += piece_size
        return latency

    def _store_data(
        self, address: int, size: int, latency: int, data: Optional[bytes]
    ) -> int:
        """The checked store of one within-line piece: write the backing
        store, then take a write-buffer slot."""
        if data is None:
            self.backing.fill(address, size)
        else:
            self.backing.write(address, data)
        wb_stall = self.l1d.write_buffer.insert()
        if wb_stall:
            latency += wb_stall
            if self.tracer.enabled:
                self.tracer.emit(
                    "wb_stall",
                    self.tracer.now,
                    address=address,
                    cycles=wb_stall,
                )
        return latency

    def write(
        self,
        address: int,
        data: bytes,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> AccessResult:
        """A regular store (write-allocate).  Raises on token access."""
        latency = self.store_latency(address, len(data), privilege, cycle, data)
        return self._result(latency)

    def _stage_token_op(self, address: int, latency: int) -> int:
        """Route a token op through the §VIII staging buffer (if any).

        The buffer acks immediately while it has room; a full buffer
        costs one drain cycle.  One pending entry drains per regular
        data access (see load_latency/store_latency).  Returns
        ``latency`` with any stall added.
        """
        entries = self.config.token_staging_entries
        if not entries:
            return latency
        self.stats.staged_token_ops += 1
        if len(self._staging) >= entries:
            self.stats.staging_full_stalls += 1
            latency += 1
            self._staging.pop(0)
        self._staging.append(address)
        return latency

    def arm_latency(self, address: int, cycle: Optional[int] = None) -> int:
        """Place a token at ``address`` (must be token-width aligned);
        returns the latency.

        Sets the token bit only; the token value is written out when the
        line is evicted, so an arm that hits completes in one cycle.
        """
        self.went_to_memory = self.l2_hit = self.token_bit_seen = False
        token = self.detector.token
        if address % token.width != 0:
            raise InvalidRestInstructionError(address, token.width, "arm")
        self.stats.arms += 1
        latency = self._stage_token_op(address, 1)
        line = self.l1d.lookup(address)
        if line is None:
            line, latency = self._fetch_into_l1(address, latency)
        else:
            self.l1d.stats.hits += 1
        line.token_bits |= 1 << self.detector.slot_of(address)
        line.dirty = True
        return latency

    def arm(self, address: int, cycle: Optional[int] = None) -> AccessResult:
        """:meth:`arm_latency` with its path as an :class:`AccessResult`."""
        return self._result(self.arm_latency(address, cycle))

    def disarm_latency(self, address: int, cycle: Optional[int] = None) -> int:
        """Remove the token at ``address``, zeroing the slot; returns the
        latency.

        Raises a REST exception if the location holds no token — the
        paper mandates precise disarm targets to stop attackers blindly
        sweeping memory with a disarm gadget (Section V-C).
        """
        self.went_to_memory = self.l2_hit = self.token_bit_seen = False
        token = self.detector.token
        if address % token.width != 0:
            raise InvalidRestInstructionError(address, token.width, "disarm")
        self.stats.disarms += 1
        latency = self._stage_token_op(
            address, 1 + self.config.disarm_extra_cycles
        )
        line = self.l1d.lookup(address)
        if line is None:
            line, latency = self._fetch_into_l1(address, latency)
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
        self.backing.fill(address, token.width)
        return latency

    def disarm(self, address: int, cycle: Optional[int] = None) -> AccessResult:
        """:meth:`disarm_latency` with its path as an :class:`AccessResult`."""
        return self._result(self.disarm_latency(address, cycle))

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
        l1i = self.l1i
        line_base = l1i.line_address(pc)
        prefetch_base = line_base + self._line_size
        if l1i.lookup(line_base) is not None:
            l1i.stats.hits += 1
            # On a hit (nearly every call) the prefetch target is
            # almost always resident already.
            if l1i.lookup(prefetch_base, touch=False) is None:
                self._prefetch_instruction_line(prefetch_base)
            return 0
        l1i.stats.misses += 1
        stall = self.config.l2.hit_latency
        l2_line = self.l2.lookup(line_base)
        if l2_line is not None:
            self.l2.stats.hits += 1
        else:
            self.l2.stats.misses += 1
            stall += self.dram.access(line_base, is_write=False)
            self.l2.install(line_base)
        l1i.install(line_base)
        self._prefetch_instruction_line(prefetch_base)
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
