"""Load/store queue with the REST forwarding modification (Figure 5).

The LSQ supports store-to-load forwarding.  Arm and disarm are
functionally stores, but they must never forward their value to younger
loads — the token is a secret.  The paper's design splits the CAM match
into a cache-line-address match plus a remainder match and adds a few
gates so that:

* a load that would forward from an in-flight **arm** raises a
  privileged REST exception instead of forwarding;
* a store whose line address matches an in-flight **arm** raises;
* a disarm whose location matches an in-flight **disarm** raises
  (double disarm of the same location in flight);
* arm/disarm entries carry **no value** in the store queue — their write
  data is implicit and known by the cache, so SQ data width is unchanged
  despite the logically 64-byte-wide writes.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Optional

from repro.core.exceptions import RestException, RestFaultKind


def _touches(table: Dict[int, int], address: int, size: int, line_size: int) -> bool:
    """Whether ``table`` counts a live entry on a line the access
    touches (an empty access touches its first line)."""
    if not table:
        return False
    line = address // line_size
    last = (address + size - 1) // line_size
    while line not in table:
        if line >= last:
            return False
        line += 1
    return True


def _count(table: Dict[int, int], entry: "SqEntry", line_size: int, delta: int) -> None:
    """Add ``delta`` to the live count of every line ``entry`` touches."""
    line = entry.address // line_size
    last = (entry.address + entry.size - 1) // line_size
    while True:
        count = table.get(line, 0) + delta
        if count:
            table[line] = count
        else:
            del table[line]
        if line >= last:
            return
        line += 1


class SqEntryKind(enum.Enum):
    STORE = "store"
    ARM = "arm"
    DISARM = "disarm"


class SqEntry:
    __slots__ = ("seq", "kind", "address", "size", "has_value")

    def __init__(self, seq: int, kind: SqEntryKind, address: int, size: int) -> None:
        self.seq = seq
        self.kind = kind
        self.address = address
        self.size = size
        #: Arm/disarm entries never carry a value (paper Figure 5).
        self.has_value = kind is SqEntryKind.STORE


class LoadStoreQueue:
    """Split 32-entry load queue and 32-entry store queue (Table II)."""

    def __init__(
        self, lq_entries: int = 32, sq_entries: int = 32, line_size: int = 64
    ) -> None:
        if lq_entries <= 0 or sq_entries <= 0:
            raise ValueError("LSQ queues must have positive capacity")
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self.line_size = line_size
        self._lq: Deque[int] = deque()  # just seq numbers; loads hold no data
        self._sq: Deque[SqEntry] = deque()
        #: Line number -> SQ entries touching that line, of any kind
        #: and of ARM kind.  An entry that overlaps an access
        #: shares a line with it, so the CAM scans below are skipped
        #: when the access's lines hold no live entry (nearly always
        #: for loads; always for stores under defenses that never arm).
        self._lines_live: Dict[int, int] = {}
        self._arm_lines: Dict[int, int] = {}
        self.forwards = 0
        self.forward_blocked = 0
        self.lq_full_cycles = 0
        self.sq_full_cycles = 0
        self.rest_violations = 0

    # -- occupancy --------------------------------------------------------

    @property
    def lq_full(self) -> bool:
        return len(self._lq) >= self.lq_entries

    @property
    def sq_full(self) -> bool:
        return len(self._sq) >= self.sq_entries

    @property
    def lq_occupancy(self) -> int:
        return len(self._lq)

    @property
    def sq_occupancy(self) -> int:
        return len(self._sq)

    # -- dispatch ----------------------------------------------------------

    def dispatch_load(self, seq: int) -> None:
        if self.lq_full:
            raise RuntimeError("LQ overflow: caller must check lq_full")
        self._lq.append(seq)

    def dispatch_store_like(
        self, seq: int, kind: SqEntryKind, address: int, size: int
    ) -> SqEntry:
        """Insert a store/arm/disarm into the SQ (Table I, LSQ column)."""
        if len(self._sq) >= self.sq_entries:
            raise RuntimeError("SQ overflow: caller must check sq_full")
        if kind is SqEntryKind.DISARM and _touches(
            self._lines_live, address, 1, self.line_size
        ):
            # Find the youngest in-flight entry for this location: two
            # disarms with no intervening arm is the double-free
            # signature Table I flags; disarm-arm-disarm (frame reuse)
            # is legal.
            youngest = None
            for entry in self._sq:
                if entry.address == address:
                    youngest = entry
            if youngest is not None and youngest.kind is SqEntryKind.DISARM:
                self.rest_violations += 1
                raise RestException(
                    address,
                    RestFaultKind.LSQ_DOUBLE_DISARM,
                    precise=True,
                )
        entry = SqEntry(seq, kind, address, size)
        self._sq.append(entry)
        _count(self._lines_live, entry, self.line_size, 1)
        if kind is SqEntryKind.ARM:
            _count(self._arm_lines, entry, self.line_size, 1)
        return entry

    # -- the Figure 5 matching logic ---------------------------------------

    @staticmethod
    def _overlaps(entry: SqEntry, address: int, size: int) -> bool:
        return (
            address < entry.address + entry.size
            and entry.address < address + size
        )

    def search_for_load(self, seq: int, address: int, size: int) -> Optional[SqEntry]:
        """CAM search of older SQ entries for a load.

        Returns the youngest older STORE entry that fully covers the load
        (forwarding source), or None if the load must go to the cache.
        Raises a REST exception if the match is an arm entry: bit-for-bit
        this is the "line-address match AND entry-is-arm" gate the paper
        adds to the existing matching logic.
        """
        # Figure 5: the CAM match is a line-address match plus a
        # remainder match.  Age matters: the *youngest* older entry
        # overlapping the load decides the outcome — an intervening
        # disarm makes a load after an arm legal again.
        # (_overlaps is inlined: this scan runs for every load issued.)
        if not _touches(self._lines_live, address, size, self.line_size):
            return None
        youngest: Optional[SqEntry] = None
        end = address + size
        for entry in self._sq:
            if entry.seq >= seq:
                continue
            if address < entry.address + entry.size and entry.address < end:
                youngest = entry
        if youngest is None:
            return None
        if youngest.kind is SqEntryKind.ARM:
            self.rest_violations += 1
            raise RestException(
                address,
                RestFaultKind.LSQ_FORWARD_FROM_ARM,
                precise=True,
            )
        if youngest.kind is SqEntryKind.DISARM:
            # Disarm carries no value; the load waits for the cache.
            return None
        if (
            youngest.address <= address
            and address + size <= youngest.address + youngest.size
        ):
            self.forwards += 1
            return youngest
        self.forward_blocked += 1
        return None

    def check_store(self, seq: int, address: int, size: int) -> None:
        """Table I: raise if the SQ holds an older arm for this location."""
        if not _touches(self._arm_lines, address, size, self.line_size):
            # No in-flight arm can match; the gate cannot fire.  The
            # exception below is the scan's only observable effect.
            return
        youngest: Optional[SqEntry] = None
        end = address + size
        for entry in self._sq:
            if entry.seq >= seq:
                continue
            if address < entry.address + entry.size and entry.address < end:
                youngest = entry
        if youngest is not None and youngest.kind is SqEntryKind.ARM:
            self.rest_violations += 1
            raise RestException(
                address,
                RestFaultKind.LSQ_STORE_OVER_ARM,
                precise=True,
            )

    # -- retirement ---------------------------------------------------------

    def retire_load(self, seq: int) -> None:
        if self._lq and self._lq[0] == seq:
            self._lq.popleft()
        else:
            try:
                self._lq.remove(seq)
            except ValueError:
                pass

    def retire_store_like(self, seq: int) -> None:
        """Retire the SQ head: store-likes retire in program order and
        enter the SQ in dispatch order, so the retiring entry is it."""
        sq = self._sq
        if not sq or sq[0].seq != seq:
            raise RuntimeError(f"store-like {seq} retired out of program order")
        entry = sq.popleft()
        _count(self._lines_live, entry, self.line_size, -1)
        if entry.kind is SqEntryKind.ARM:
            _count(self._arm_lines, entry, self.line_size, -1)

    def flush(self) -> None:
        self._lq.clear()
        self._sq.clear()
        self._lines_live.clear()
        self._arm_lines.clear()

    def reset_stats(self) -> None:
        self.forwards = 0
        self.forward_blocked = 0
        self.lq_full_cycles = 0
        self.sq_full_cycles = 0
        self.rest_violations = 0
