"""Multicore hierarchy: private L1-Ds under an MSI snooping protocol.

The paper's claim (Sections I and V-B): REST requires *no modifications
to the coherence and consistency implementations*, even for multicore
out-of-order processors, and "adversaries cannot exploit inter-process,
inter-core, or inter-cache interactions to bypass token semantics".

The reason is structural, and this module demonstrates it executably:
the token travels as *data*.  When a remote L1 must surrender a line
(invalidation or downgrade), its token bits are materialised into the
outgoing data exactly as on eviction (Table I), so the requesting L1's
fill passes through its own detector and re-derives the token bit from
the bytes.  No coherence message carries token metadata; the protocol
is an unmodified MSI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.hierarchy import AccessResult, HierarchyConfig, MemoryHierarchy
from repro.core.modes import PrivilegeLevel
from repro.core.token import TokenConfigRegister
from repro.mem.backing import BackingStore
from repro.mem.dram import DramModel


@dataclass
class CoherenceStats:
    invalidations: int = 0
    downgrades: int = 0
    remote_writebacks: int = 0
    token_line_transfers: int = 0


class MulticoreHierarchy:
    """N private L1-D caches over one shared L2/backing store.

    Each core owns a full :class:`MemoryHierarchy` (its private L1-D +
    the shared lower levels), and a snoop filter keeps the L1 copies
    single-writer/multi-reader.  The shared state — backing store, DRAM
    model, token configuration register — is common to all cores, so
    the token secret is system-wide (the paper's default single-token
    design, Section IV-B).
    """

    def __init__(
        self,
        cores: int = 2,
        config: Optional[HierarchyConfig] = None,
        token_config: Optional[TokenConfigRegister] = None,
    ) -> None:
        if cores <= 0:
            raise ValueError("need at least one core")
        self.token_config = token_config or TokenConfigRegister()
        self.backing = BackingStore()
        self.dram = DramModel()
        shared_config = config or HierarchyConfig()
        self.hierarchies: List[MemoryHierarchy] = []
        for _ in range(cores):
            h = MemoryHierarchy(
                config=shared_config,
                token_config=self.token_config,
                backing=self.backing,
                dram=self.dram,
            )
            self.hierarchies.append(h)
        # All cores share one L2 (point of coherence is above it).
        shared_l2 = self.hierarchies[0].l2
        for h in self.hierarchies[1:]:
            h.l2 = shared_l2
        self.stats = CoherenceStats()

    @property
    def cores(self) -> int:
        return len(self.hierarchies)

    def core(self, index: int) -> MemoryHierarchy:
        return self.hierarchies[index]

    # -- snooping ----------------------------------------------------------

    def _surrender_line(self, owner: int, line_base: int, invalidate: bool) -> None:
        """Remote L1 gives up (or downgrades) its copy of a line.

        Dirty data and token bits are materialised into the backing
        store the same way an eviction would materialise them — the
        token crosses the interconnect as plain data bytes.
        """
        hierarchy = self.hierarchies[owner]
        line = hierarchy.l1d.lookup(line_base, touch=False)
        if line is None:
            return
        if line.token_bits:
            hierarchy.materialise_tokens(line_base, line.token_bits)
            self.stats.token_line_transfers += 1
            self.stats.remote_writebacks += 1
        elif line.dirty:
            # Data stores already write through to the backing store
            # functionally; account the coherence traffic.
            self.stats.remote_writebacks += 1
        if invalidate:
            hierarchy.l1d.invalidate(line_base)
            self.stats.invalidations += 1
        else:
            # Downgrade to shared: the line's data now *is* the token
            # value wherever a token bit is set (that is what went out
            # in the response packet), so the token bits stay — exactly
            # as they would be re-derived by refilling the same bytes.
            line.dirty = False
            self.stats.downgrades += 1

    def _snoop(self, requester: int, address: int, size: int, exclusive: bool) -> None:
        """Make the other cores surrender (``exclusive``: invalidate;
        else downgrade) their copies of the lines an access touches."""
        line_size = self.hierarchies[0].line_size
        start = address - (address % line_size)
        end = address + max(1, size)
        line_base = start
        while line_base < end:
            for other in range(self.cores):
                if other != requester:
                    self._surrender_line(other, line_base, invalidate=exclusive)
            line_base += line_size
        if exclusive:
            # The requester must also refetch if it held a stale copy…
            # it cannot (single-writer), so nothing more to do.
            pass

    # -- the coherence policy, one claim per access kind ----------------------
    #
    # Each claim snoops the other cores for an access from ``core`` and
    # returns that core's hierarchy to perform it.  Both the functional
    # and the latency form of an access take the same claim.

    def _claim_for_load(self, core: int, address: int, size: int) -> MemoryHierarchy:
        """BusRd: remote M copies downgrade."""
        self._snoop(core, address, size, exclusive=False)
        return self.hierarchies[core]

    def _claim_for_store(self, core: int, address: int, size: int) -> MemoryHierarchy:
        """BusRdX: remote copies invalidate."""
        self._snoop(core, address, size, exclusive=True)
        return self.hierarchies[core]

    def _claim_for_token_op(self, core: int, address: int) -> MemoryHierarchy:
        """Arm and disarm are stores for coherence purposes: exclusive
        ownership of the token's bytes."""
        hierarchy = self.hierarchies[core]
        self._snoop(core, address, hierarchy.detector.token.width, exclusive=True)
        return hierarchy

    # -- the per-core public operations ---------------------------------------

    def read(
        self,
        core: int,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
    ) -> Tuple[bytes, AccessResult]:
        """A load from ``core``."""
        hierarchy = self._claim_for_load(core, address, size)
        return hierarchy.read(address, size, privilege=privilege)

    def load_latency(
        self,
        core: int,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> int:
        """:meth:`read` as the core executes it: the latency only."""
        hierarchy = self._claim_for_load(core, address, size)
        return hierarchy.load_latency(address, size, privilege, cycle)

    def write(
        self,
        core: int,
        address: int,
        data: bytes,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
    ) -> AccessResult:
        """A store from ``core``."""
        hierarchy = self._claim_for_store(core, address, len(data))
        return hierarchy.write(address, data, privilege=privilege)

    def store_latency(
        self,
        core: int,
        address: int,
        size: int,
        privilege: PrivilegeLevel = PrivilegeLevel.USER,
        cycle: Optional[int] = None,
    ) -> int:
        """A store of ``size`` zero bytes from ``core``; the latency only."""
        hierarchy = self._claim_for_store(core, address, size)
        return hierarchy.store_latency(address, size, privilege, cycle)

    def arm(self, core: int, address: int) -> AccessResult:
        return self._claim_for_token_op(core, address).arm(address)

    def arm_latency(self, core: int, address: int, cycle: Optional[int] = None) -> int:
        return self._claim_for_token_op(core, address).arm_latency(address, cycle)

    def disarm(self, core: int, address: int) -> AccessResult:
        return self._claim_for_token_op(core, address).disarm(address)

    def disarm_latency(
        self, core: int, address: int, cycle: Optional[int] = None
    ) -> int:
        return self._claim_for_token_op(core, address).disarm_latency(
            address, cycle
        )

    def is_armed(self, address: int) -> bool:
        """System-wide token probe (simulation-only)."""
        return any(h.is_armed(address) for h in self.hierarchies)

    def writeback_all(self) -> None:
        for h in self.hierarchies:
            h.writeback_all()
