"""Cycle-level measurement of Mini-C programs.

Runs a program under a defense in trace mode (with the caveat that
loaded values read as zero there — control flow must not depend on
memory contents), then replays the trace on the out-of-order core with
the matching REST hardware configuration.  This is the full
paper-methodology pipeline for user-written programs: write the C-ish
source once, measure it as a plain, ASan, or REST "binary".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.modes import Mode
from repro.core.token import Token, TokenConfigRegister
from repro.cpu.pipeline import CoreConfig, OutOfOrderCore
from repro.harness.configs import DefenseSpec
from repro.harness.experiment import build_defense, make_trace_machine
from repro.lang.ast import Program
from repro.lang.interp import Interpreter


@dataclass
class ProgramMeasurement:
    spec_name: str
    cycles: int
    instructions: int
    arms: int
    disarms: int
    #: Set when the program's own memory bug fired during the timed
    #: replay (a correct outcome for a buggy program under REST).
    faulted: Optional[str] = None

    def overhead_vs(self, baseline: "ProgramMeasurement") -> float:
        """Overhead in percent relative to another measurement.

        Raises ``ValueError`` rather than ``ZeroDivisionError`` when the
        baseline recorded no cycles (e.g. it faulted before replay), so
        callers get a diagnosis instead of an arithmetic traceback.
        """
        if baseline.cycles <= 0:
            raise ValueError(
                f"baseline {baseline.spec_name!r} has no cycles "
                f"({baseline.cycles}); cannot compute overhead"
                + (
                    f" (baseline faulted: {baseline.faulted})"
                    if baseline.faulted
                    else ""
                )
            )
        return (self.cycles / baseline.cycles - 1.0) * 100.0


def measure_program(
    program: Program,
    spec: DefenseSpec,
    args: Sequence[int] = (),
    core_config: Optional[CoreConfig] = None,
    token_seed: int = 7,
) -> ProgramMeasurement:
    """Trace one program under one defense spec and time the replay."""
    machine = make_trace_machine(spec)
    defense = build_defense(machine, spec)
    Interpreter(program, defense).run(*args)
    trace = machine.take_trace()

    register = TokenConfigRegister(
        Token.random(spec.token_width, seed=token_seed), mode=spec.mode
    )
    hierarchy = MemoryHierarchy(token_config=register)
    core = OutOfOrderCore(hierarchy, config=core_config)
    faulted: Optional[str] = None
    try:
        stats = core.run(trace)
    except Exception as error:  # the program's own bug fired in replay
        from repro.core import RestException

        if not isinstance(error, RestException):
            raise
        faulted = str(error)
        stats = core.stats
    return ProgramMeasurement(
        spec_name=spec.name,
        cycles=stats.cycles,
        instructions=stats.committed,
        arms=hierarchy.stats.arms,
        disarms=hierarchy.stats.disarms,
        faulted=faulted,
    )


def compare_program(
    program: Program,
    specs: Sequence[DefenseSpec],
    args: Sequence[int] = (),
) -> Dict[str, ProgramMeasurement]:
    """Measure one program under several specs (plus a Plain baseline)."""
    all_specs = list(specs)
    if not any(s.defense == "plain" for s in all_specs):
        all_specs.insert(0, DefenseSpec.plain())
    return {
        spec.name: measure_program(program, spec, args=args)
        for spec in all_specs
    }
