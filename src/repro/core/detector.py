"""The L1-D fill-path token detector (paper Figure 4).

When a cache line is installed in the L1 data cache, its bytes are
compared against the token value held in the token configuration
register.  Because fills arrive over multiple beats, the comparator is
decomposed into small per-beat compares (e.g. 32 bits per fill stage),
which keeps the added energy negligible.  On a full match, the line's
token bit(s) are set; subsequent regular accesses to a marked line raise
a privileged REST exception.

For token widths narrower than a line, a 64-byte line holds 2 (32-byte)
or 4 (16-byte) token slots, and the line carries one token bit per slot
(paper Section III-B, "Modifying Token Width").

The detector also serves the eviction path: when a line whose token bit
is set is evicted, the token value is filled into the outgoing packet
(Table I, "Eviction"), because arm only sets the bit and defers the wide
write until eviction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.token import Token, TokenConfigRegister
from repro.obs.tracer import NULL_TRACER


class TokenDetector:
    """Compares fill data against the token and computes slot bitmaps.

    One detector instance sits at the L1-D fill port.  It owns no state
    beyond a reference to the token configuration register; all per-line
    state (the token bits) lives in the cache line metadata.
    """

    #: Bytes compared per fill beat (a 32-bit compare per stage).
    BEAT_BYTES = 4

    def __init__(self, config: TokenConfigRegister, line_size: int = 64) -> None:
        if line_size % config.token_for_hardware().width != 0:
            raise ValueError(
                "line size must be a multiple of the token width"
            )
        self._config = config
        self._line_size = line_size
        self.fills_checked = 0
        self.beat_compares = 0
        self.matches_found = 0
        #: Observability hook; emits one ``token_scan`` per checked fill.
        self.tracer = NULL_TRACER
        # Per-token memo, keyed on token identity so a rotation
        # invalidates it (see _load_token).
        self._chunk_token: Token = None
        self._chunks: List[bytes] = []
        self._slots_cached = 0
        self._width_cached = 0
        self._zero_scan: Tuple[int, int, int] = (0, 0, 0)

    @property
    def line_size(self) -> int:
        return self._line_size

    @property
    def token(self) -> Token:
        """The current token value, via the register's hardware port."""
        return self._config.token_for_hardware()

    @property
    def slots_per_line(self) -> int:
        """How many token slots (and token bits) one line carries."""
        return self._line_size // self.token.width

    def scan_line(self, data: bytes) -> int:
        """Scan a full line of fill data; return the token-bit bitmap.

        Bit *i* of the result is set iff slot *i* of the line (bytes
        ``[i*width, (i+1)*width)``) equals the token value.  The scan is
        accounted beat-by-beat the way the hardware would perform it,
        with early-out per slot on the first mismatching beat.
        """
        if len(data) != self._line_size:
            raise ValueError(
                f"fill data must be one line ({self._line_size}B), "
                f"got {len(data)}B"
            )
        return self.scan_at(data, 0)

    def scan_at(self, buffer: Optional[bytes], offset: int) -> int:
        """:meth:`scan_line` on the line at ``buffer[offset:]``, in place.

        The fill path passes the backing store's page, so no line is
        copied.  ``buffer`` None stands for a never-written page, an
        all-zero line: its result is the same for every fill under one
        token, so it is computed once per token, and the counters and
        the ``token_scan`` event still record every scan.
        """
        self.fills_checked += 1
        token = self._config.token_for_hardware()
        if token is not self._chunk_token:
            self._load_token(token)
        if buffer is None:
            bitmap, beats, matches = self._zero_scan
        else:
            bitmap, beats, matches = self._compare(buffer, offset)
        self.beat_compares += beats
        if matches:
            self.matches_found += matches
        if self.tracer.enabled:
            self.tracer.emit(
                "token_scan",
                self.tracer.now,
                hit=bool(bitmap),
                bits=bitmap,
                beats=beats,
            )
        return bitmap

    def _load_token(self, token: Token) -> None:
        """Memoize the per-beat slices and the zero-line scan of
        ``token``; keyed on token identity, so a rotation refreshes."""
        width = token.width
        beat_bytes = self.BEAT_BYTES
        self._chunks = [
            token.chunk(beat, beat_bytes) for beat in range(width // beat_bytes)
        ]
        self._chunk_token = token
        self._width_cached = width
        self._slots_cached = self._line_size // width
        self._zero_scan = self._compare(bytes(self._line_size), 0)

    def _compare(self, buffer: bytes, offset: int) -> Tuple[int, int, int]:
        """(bitmap, beats compared, slots matched) for one line."""
        chunks = self._chunks
        width = self._width_cached
        beat_bytes = self.BEAT_BYTES
        bitmap = 0
        beats = 0
        matches = 0
        base = offset
        for slot in range(self._slots_cached):
            lo = base
            matched = True
            for chunk in chunks:
                beats += 1
                if not buffer.startswith(chunk, lo):
                    matched = False
                    break
                lo += beat_bytes
            if matched:
                bitmap |= 1 << slot
                matches += 1
            base += width
        return bitmap, beats, matches

    def slot_of(self, address: int) -> int:
        """Which token slot within its line an address falls into."""
        return (address % self._line_size) // self.token.width

    def slots_touched(self, address: int, size: int) -> List[int]:
        """Token slots within one line overlapped by an access.

        The access must not cross a line boundary (the cache splits
        line-crossing accesses before they reach the detector logic).
        """
        if size <= 0:
            raise ValueError("access size must be positive")
        first = self.slot_of(address)
        last = self.slot_of(address + size - 1)
        return list(range(first, last + 1))

    def token_line_image(self) -> bytes:
        """A full line filled with token values (the eviction payload).

        Used when a line with all token bits set is evicted; for lines
        with a partial bitmap the cache composes data and token slots.
        """
        token = self.token
        return token.value * self.slots_per_line

    def critical_word_partial_match(self, data: bytes, offset_in_line: int) -> bool:
        """Whether a delivered critical word partially matches the token.

        Debug mode holds a load in the MSHRs while the delivered word
        partially matches the token value (paper, "Exception Reporting");
        this predicate drives that decision.
        """
        token = self.token
        slot_base = (offset_in_line // token.width) * token.width
        token_off = offset_in_line - slot_base
        expected = token.value[token_off : token_off + len(data)]
        return data == expected[: len(data)]
