"""Sparse byte-addressable backing store for a 64-bit address space.

The store is organised as a dictionary of fixed-size pages allocated on
first touch, so that programs (and ASan's shadow region, which maps the
whole address space) can live anywhere in a 64-bit space without
committing real host memory.  Unwritten bytes read as zero, matching
fresh anonymous mappings.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

PAGE_SIZE = 4096
ADDRESS_MASK = (1 << 64) - 1


class BackingStore:
    """Sparse page-backed memory with zero-fill-on-demand semantics."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        self._page_size = page_size
        self._pages: Dict[int, bytearray] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def resident_pages(self) -> int:
        """Number of pages materialised so far."""
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        """Host-visible footprint of the simulated memory."""
        return len(self._pages) * self._page_size

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``address``."""
        self._check(address, size)
        self.bytes_read += size
        page_size = self._page_size
        page, offset = divmod(address, page_size)
        # Single-page fast path (cache-line and smaller accesses).
        if offset + size <= page_size:
            stored = self._pages.get(page)
            if stored is None:
                return bytes(size)
            return bytes(stored[offset : offset + size])
        out = bytearray()
        remaining = size
        addr = address
        while remaining:
            page, offset = divmod(addr, page_size)
            take = min(remaining, page_size - offset)
            stored = self._pages.get(page)
            if stored is None:
                out += b"\x00" * take
            else:
                out += stored[offset : offset + take]
            addr += take
            remaining -= take
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        size = len(data)
        self._check(address, size)
        self.bytes_written += size
        page_size = self._page_size
        page, offset = divmod(address, page_size)
        if offset + size <= page_size:
            stored = self._pages.get(page)
            if stored is None:
                stored = bytearray(page_size)
                self._pages[page] = stored
            stored[offset : offset + size] = data
            return
        addr = address
        view = memoryview(data)
        while view:
            page, offset = divmod(addr, page_size)
            take = min(len(view), page_size - offset)
            stored = self._pages.get(page)
            if stored is None:
                stored = bytearray(page_size)
                self._pages[page] = stored
            stored[offset : offset + take] = view[:take]
            addr += take
            view = view[take:]

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        """Fill a range with a repeated byte (used for zeroing regions).

        Zeroing leaves never-written pages absent: they already read
        as zero, so only resident pages are written.
        """
        if byte:
            self.write(address, bytes([byte]) * size)
            return
        self._check(address, size)
        self.bytes_written += size
        page_size = self._page_size
        pages = self._pages
        while size > 0:
            page, offset = divmod(address, page_size)
            take = min(size, page_size - offset)
            stored = pages.get(page)
            if stored is not None:
                stored[offset : offset + take] = bytes(take)
            address += take
            size -= take

    def page_of(self, address: int) -> Optional[bytearray]:
        """The stored page holding ``address``, or None if the page was
        never written (it reads as zeros).

        This is the live page, for scanning in place without a copy;
        callers must not resize it.
        """
        if not 0 <= address <= ADDRESS_MASK:
            self._check(address, 1)  # raises
        return self._pages.get(address // self._page_size)

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, (value & ADDRESS_MASK).to_bytes(8, "little"))

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFF_FFFF).to_bytes(4, "little"))

    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, bytes([value & 0xFF]))

    def pages(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate (page_base_address, page_bytes) over resident pages."""
        for page, data in sorted(self._pages.items()):
            yield page * self._page_size, bytes(data)

    def release(self, address: int, size: int) -> None:
        """Drop whole pages in the range (an munmap analogue).

        Partial pages at the edges are zeroed rather than dropped.
        """
        self._check(address, size)
        end = address + size
        first_full = -(-address // self._page_size)  # ceil div
        last_full = end // self._page_size
        for page in range(first_full, last_full):
            self._pages.pop(page, None)
        head = first_full * self._page_size - address
        if 0 < head <= size:
            self.fill(address, head)
        tail = end - last_full * self._page_size
        if 0 < tail < self._page_size and last_full >= first_full:
            self.fill(last_full * self._page_size, tail)

    def _check(self, address: int, size: int) -> None:
        if address < 0 or size < 0 or address + size > ADDRESS_MASK + 1:
            raise ValueError(
                f"access [0x{address:x}, +{size}) outside 64-bit space"
            )
