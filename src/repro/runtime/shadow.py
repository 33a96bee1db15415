"""ASan shadow memory (paper Figure 2).

One shadow byte encodes the state of 8 application bytes:

* ``0`` — all 8 bytes addressable;
* ``1..7`` — only the first k bytes addressable (partial granule);
* negative (here: values >= 0x80) — entirely poisoned, with distinct
  poison codes for heap redzones, freed memory, and stack redzones, so
  error reports can say *what* was violated, exactly as ASan does.

Every shadow read/write issued here goes through the machine as a
regular load/store: that is ASan's defining cost, the behind-the-scenes
metadata traffic that REST eliminates by putting the metadata (the
token) in place of the data itself.
"""

from __future__ import annotations

import enum

from repro.runtime.machine import Machine


class ShadowState(enum.IntEnum):
    """Poison codes, mirroring ASan's shadow encoding."""

    ADDRESSABLE = 0x00
    HEAP_REDZONE = 0xFA
    FREED = 0xFD
    STACK_REDZONE = 0xF1
    GLOBAL_REDZONE = 0xF9


class AsanViolation(Exception):
    """Software-detected memory error (ASan's report path)."""

    def __init__(self, address: int, state: int, access: str) -> None:
        self.address = address
        self.state = state
        self.access = access
        try:
            name = ShadowState(state).name
        except ValueError:
            name = f"partial({state})"
        super().__init__(
            f"ASan: invalid {access} of 0x{address:x} (shadow={name})"
        )


class ShadowMemory:
    """Shadow-byte bookkeeping over a Machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.layout = machine.layout
        self.granule = 1 << self.layout.shadow_scale
        #: Python-side mirror used in trace mode (no real memory there)
        #: and for O(1) functional checks without re-reading memory.
        self._mirror = {}
        self.poison_ops = 0
        self.check_ops = 0

    # -- poisoning (metadata writes) ----------------------------------------

    def poison(self, address: int, size: int, state: ShadowState) -> None:
        """Mark [address, address+size) with ``state``.

        Issues one shadow-byte store per granule through the machine,
        which is exactly the work ASan's runtime performs.
        """
        self._set_range(address, size, int(state))

    def unpoison(self, address: int, size: int) -> None:
        self._set_range(address, size, int(ShadowState.ADDRESSABLE))

    def _set_range(self, address: int, size: int, value: int) -> None:
        if size <= 0:
            return
        start = address >> self.layout.shadow_scale
        end = (address + size - 1) >> self.layout.shadow_scale
        machine = self.machine
        payload = bytes([value])
        for granule_index in range(start, end + 1):
            shadow_addr = granule_index + self.layout.shadow_offset
            machine.store(shadow_addr, payload)
            self.poison_ops += 1
            if value == 0:
                self._mirror.pop(granule_index, None)
            else:
                self._mirror[granule_index] = value

    # -- checking (the instrumented fast path) --------------------------------

    def state_of(self, address: int) -> int:
        """Shadow byte covering ``address`` (0 = addressable)."""
        return self._mirror.get(address >> self.layout.shadow_scale, 0)

    def check_access(self, address: int, size: int, access: str = "read") -> None:
        """The inlined ASan check: load shadow, compare, branch.

        Emits the shadow load + compare + branch micro-ops in trace mode;
        in functional mode raises :class:`AsanViolation` when any granule
        covering the access is poisoned.
        """
        machine = self.machine
        start = address >> self.layout.shadow_scale
        end = (address + size - 1) >> self.layout.shadow_scale
        # The common case (small access within one granule) is a single
        # shadow load; wide accesses check each granule.
        for granule_index in range(start, end + 1):
            shadow_addr = granule_index + self.layout.shadow_offset
            machine.load(shadow_addr, 1)
            machine.compare_and_branch(taken=False)
            self.check_ops += 1
            state = self._mirror.get(granule_index, 0)
            if state != 0 and not machine.is_trace:
                raise AsanViolation(address, state, access)

    def is_poisoned(self, address: int, size: int = 1) -> bool:
        """Metadata-only query (no machine ops) used by the allocator."""
        start = address >> self.layout.shadow_scale
        end = (address + size - 1) >> self.layout.shadow_scale
        return any(
            self._mirror.get(index, 0) != 0 for index in range(start, end + 1)
        )
