"""Software-emulated REST: content-based checks with no hardware.

The inverse limit study to PerfectHW.  The paper's thesis is that
content-based checks belong in hardware, where the L1 fill-path
comparator makes them free.  This defense runs the *same* protection
scheme (token redzones, token-filled quarantine) entirely in software
on stock hardware:

* every application load/store is preceded by an inlined check that
  reads the covering token-width-aligned slot and compares it against
  the token value — width/8 loads + compares + a branch per access;
* ``arm`` degrades to a full token-value write (width/8 stores) and
  ``disarm`` to a verify-and-zero sequence (see ``Machine.arm`` with
  ``software_rest=True``).

The measured gap between this and hardware REST (secure mode) is the
value of the primitive itself — and it lands far above even ASan,
whose shadow encoding compresses the check to a single byte load.
"""

from __future__ import annotations

from typing import Optional

from repro.defenses.rest import RestDefense
from repro.runtime.machine import Machine


class SoftRestDefense(RestDefense):
    """Token redzones checked by instrumented software, not hardware."""

    #: "software-tokens" asks ``make_trace_machine`` for a
    #: ``Machine(software_rest=True)``.
    capabilities = RestDefense.capabilities | {"software-tokens"}

    def __init__(
        self,
        machine: Machine,
        protect_stack: bool = True,
        quarantine_bytes: Optional[int] = None,
    ) -> None:
        if machine.is_trace and not machine.software_rest:
            raise ValueError(
                "SoftRestDefense needs a Machine(software_rest=True) "
                "so arm/disarm lower to plain store sequences"
            )
        super().__init__(
            machine,
            protect_stack=protect_stack,
            quarantine_bytes=quarantine_bytes,
        )
        self.checks_emitted = 0

    def _software_check(self, address: int) -> None:
        """The inlined content check a compiler would emit per access.

        Loads the token-width-aligned slot covering ``address`` and
        compares it beat-by-beat against the (software-held) token
        value, branching to the report path on a full match.
        """
        machine = self.machine
        if not machine.is_trace:
            return  # functional mode: the hierarchy checks for real
        self.checks_emitted += 1
        width = self.token_width
        slot = address - (address % width)
        for beat in range(0, width, 8):
            machine.load(slot + beat, 8)
            machine.compute(1, dependent=True)
        machine.branch(taken=False)

    def load(self, address: int, size: int = 8) -> bytes:
        self._software_check(address)
        return self.machine.load(address, size)

    def store(self, address: int, data: bytes = b"", size: int = 0) -> None:
        self._software_check(address)
        self.machine.store(address, data, size)
