"""Cycle-interleaved multicore execution over coherent REST hardware.

The paper's hardware claim covers "multicore, out-of-order processors"
(§I): the REST modifications are local to the L1-D and the LSQ, so
several cores with private L1s just work over an unmodified coherence
protocol.  This module runs N out-of-order cores cycle-by-cycle over a
:class:`~repro.cache.coherence.MulticoreHierarchy`, each consuming its
own trace, with every memory operation routed through the snoop layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.coherence import MulticoreHierarchy
from repro.cache.hierarchy import HierarchyConfig
from repro.core.modes import PrivilegeLevel
from repro.core.token import TokenConfigRegister
from repro.cpu.isa import MicroOp
from repro.cpu.pipeline import CoreConfig, OutOfOrderCore
from repro.cpu.stats import CoreStats


class _SnoopedHierarchy:
    """Per-core facade: the single-core hierarchy interface, with every
    access routed through the multicore snoop layer first.

    Everything a core reads structurally (config, detector, caches,
    mode, line size) and the latest access's path (``went_to_memory``)
    delegate to the core's private hierarchy; only the access
    operations change behaviour.  The core uses the ``*_latency``
    forms; the functional forms serve library callers.
    """

    def __init__(self, smp: MulticoreHierarchy, core_index: int) -> None:
        self._smp = smp
        self._core_index = core_index
        self._local = smp.core(core_index)

    def __getattr__(self, name):
        return getattr(self._local, name)

    def load_latency(self, address, size, privilege=PrivilegeLevel.USER, cycle=None):
        return self._smp.load_latency(
            self._core_index, address, size, privilege, cycle
        )

    def store_latency(self, address, size, privilege=PrivilegeLevel.USER, cycle=None):
        return self._smp.store_latency(
            self._core_index, address, size, privilege, cycle
        )

    def arm_latency(self, address, cycle=None):
        return self._smp.arm_latency(self._core_index, address, cycle)

    def disarm_latency(self, address, cycle=None):
        return self._smp.disarm_latency(self._core_index, address, cycle)

    def read(self, address, size, privilege=None, cycle=None):
        del cycle
        if privilege is None:
            return self._smp.read(self._core_index, address, size)
        return self._smp.read(
            self._core_index, address, size, privilege=privilege
        )

    def write(self, address, data, privilege=None, cycle=None):
        del cycle
        if privilege is None:
            return self._smp.write(self._core_index, address, data)
        return self._smp.write(
            self._core_index, address, data, privilege=privilege
        )

    def arm(self, address, cycle=None):
        del cycle
        return self._smp.arm(self._core_index, address)

    def disarm(self, address, cycle=None):
        del cycle
        return self._smp.disarm(self._core_index, address)


class SmpSystem:
    """N cores, private L1-Ds, shared L2/memory, one token register."""

    def __init__(
        self,
        cores: int = 2,
        hierarchy_config: Optional[HierarchyConfig] = None,
        token_config: Optional[TokenConfigRegister] = None,
        core_config: Optional[CoreConfig] = None,
    ) -> None:
        self.memory = MulticoreHierarchy(
            cores=cores,
            config=hierarchy_config,
            token_config=token_config,
        )
        self.cores: List[OutOfOrderCore] = [
            OutOfOrderCore(
                _SnoopedHierarchy(self.memory, index), config=core_config
            )
            for index in range(cores)
        ]

    def run(
        self,
        traces: Sequence[Sequence[MicroOp]],
        max_cycles: Optional[int] = None,
    ) -> List[CoreStats]:
        """Run one trace per core, interleaved cycle-by-cycle.

        Returns each core's stats.  A REST exception on any core
        propagates (with that core's cycle stamped); the other cores'
        stats reflect their progress at that point.
        """
        if len(traces) != len(self.cores):
            raise ValueError(
                f"need {len(self.cores)} traces, got {len(traces)}"
            )
        steppers = [
            core.run_stepwise(trace, max_cycles=max_cycles)
            for core, trace in zip(self.cores, traces)
        ]
        active = list(range(len(steppers)))
        while active:
            for index in list(active):
                try:
                    next(steppers[index])
                except StopIteration:
                    active.remove(index)
        return [core.stats for core in self.cores]
