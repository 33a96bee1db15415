"""Foundry datatypes: attack cases, oracles and outcome vocabulary.

An :class:`AttackCase` is a fully-specified program: the generator
decides every size, offset and ordering, and the executor replays it
mechanically.  The attached :class:`Oracle` is the ground truth — which
bytes are illegally touched (relative to the victim allocation) and
what each defense mode is expected to do about it.  Oracles make the
coverage matrix *checkable*: any divergence between a defense's actual
outcome and the oracle's expectation is surfaced as a misprediction
instead of silently shifting a count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Defense modes a corpus is scored against, in report order — the
#: plugin registry's canonical mode tuple, re-exported so foundry
#: callers never drift from the defenses package.
from repro.defenses.plugin import DEFENSE_MODES  # noqa: F401


class Family(enum.Enum):
    """Primitive families the generator composes."""

    LINEAR_OVERFLOW = "linear_overflow"
    TARGETED_JUMP = "targeted_jump"
    PAD_LANDING = "pad_landing"
    SUBTOKEN = "subtoken"
    UAF_WINDOW = "uaf_window"
    DOUBLE_FREE = "double_free"
    STACK_REUSE = "stack_reuse"
    LIBRARY_BOUNDARY = "library_boundary"
    PARSER = "parser"


FAMILIES = tuple(f.value for f in Family)


class CaseOutcome(enum.Enum):
    """What one defense did with one case.

    Extends the hand-written suite's vocabulary with the two states a
    generated corpus needs: FALSE_POSITIVE (a benign case faulted) and
    CLEAN (a benign case ran to completion).
    """

    DETECTED = "detected"
    MISSED = "missed"
    #: The defense's structure made the attack impossible (e.g. the
    #: quarantine never recycled the victim within the case's budget).
    PREVENTED = "prevented"
    FALSE_POSITIVE = "false_positive"
    CLEAN = "clean"


@dataclass(frozen=True)
class Oracle:
    """Ground truth for one case.

    ``kind`` is "spatial" (illegal bytes outside a live allocation),
    "temporal" (operation on freed memory / invalid free) or "benign"
    (no illegal operation at all — false-positive probe).

    ``illegal_start``/``illegal_end`` is the half-open hull of
    illegally-touched bytes, relative to the start of the allocation
    named by ``illegal_ref`` ("victim" payload base, "neighbor" payload
    base, or "none" when the illegal operation is not an access, e.g. a
    double free).  For spatial oracles the hull lies entirely outside
    ``[0, alloc_size)``; for temporal access oracles it lies inside the
    freed allocation's bounds.

    ``expected`` maps every defense mode to the :class:`CaseOutcome`
    value (as a string) the geometry model predicts.  ``sound_detects``
    says whether an idealized byte-granular defense would flag the
    case — the yardstick REST's and ASan's misses are measured against.
    """

    kind: str
    sound_detects: bool
    alloc_size: Optional[int]
    illegal_start: Optional[int]
    illegal_end: Optional[int]
    illegal_ref: str
    expected: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sound_detects": self.sound_detects,
            "alloc_size": self.alloc_size,
            "illegal_start": self.illegal_start,
            "illegal_end": self.illegal_end,
            "illegal_ref": self.illegal_ref,
            "expected": dict(self.expected),
        }


@dataclass(frozen=True)
class AttackCase:
    """One generated attack program."""

    case_id: str
    family: str
    params: Dict[str, Any]
    oracle: Oracle

    def to_json(self) -> Dict[str, Any]:
        return {
            "case_id": self.case_id,
            "family": self.family,
            "params": dict(self.params),
            "oracle": self.oracle.to_json(),
        }


class OracleViolation(Exception):
    """A generated case failed its internal-consistency checks."""

    def __init__(self, case_id: str, message: str) -> None:
        self.case_id = case_id
        super().__init__(f"case {case_id}: {message}")
