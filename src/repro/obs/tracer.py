"""Structured pipeline/cache event tracing.

Two tracers share one interface:

* :class:`Tracer` — the **null object** every instrumented component
  holds by default.  Its ``enabled`` flag is False and ``emit`` is a
  no-op; hot paths hoist ``tracer.enabled`` into a local boolean once
  and guard each emit site with it, so a run with tracing disabled pays
  only a local truthiness test per event site (most sites are per-miss
  or per-uop, never per-cycle-per-structure).
* :class:`RingTracer` — the recording tracer.  Events land in a bounded
  ring buffer (oldest events are overwritten once ``capacity`` is
  reached, with ``dropped`` counting the overwrites), so tracing a long
  run has a fixed memory ceiling and always retains the *newest* window
  of activity.

An **event** is a flat dict with two mandatory keys — ``kind`` (a short
dotted string, e.g. ``"commit"``, ``"l1d_fill"``, ``"alloc.arm"``) and
``cycle`` (the simulated cycle, or the trace position for software-side
events emitted while generating a trace) — plus kind-specific fields.
The schema is documented in ``docs/INTERNALS.md`` §8.  ``run_all``
stores the sweep engine's ``fault.*`` events (``fault.retry`` /
``fault.timeout`` / ``fault.crash`` / ``fault.quarantine``) in the
same line format as ``events-engine.jsonl``, all with ``cycle=0`` and
a ``uid`` field — wall-clock machinery has no simulated cycle; see
INTERNALS.md §9.

Events serialise to JSONL (one JSON object per line) via
:func:`write_jsonl`/:func:`read_jsonl`, which is what ``repro run
--trace-out`` stores and ``repro report`` consumes.

Identity fields (INTERNALS §13): per-uop events carry ``seq`` (the
dynamic sequence number — previewed at fetch, assigned at dispatch,
dense over commits) and ``sid`` (the static statement id the trace
generator stamped per code address), so ``repro diff`` can align two
modes' streams and attribute cycles per PC.  The core also emits
compact end-of-run ``pcstall`` events — one per ``(cause, pc)`` with
the exact cycles that cause's raw counter charged to that pc — at the
*end* of the run so they survive ring wraparound of the per-uop
stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union


class Tracer:
    """Null-object tracer: records nothing, costs (almost) nothing."""

    #: Hot paths read this once and skip every emit when False.
    enabled = False
    #: Cycle stamp for components that have no cycle argument of their
    #: own (cache installs, detector scans).  The core updates it once
    #: per traced cycle; it stays 0 while tracing is disabled.
    now = 0

    def emit(self, kind: str, cycle: int, **fields) -> None:
        """Record one event (no-op on the null tracer)."""

    def events(self) -> List[Dict]:
        return []


#: Shared default instance — all instrumented components point here
#: until :func:`attach_tracer` rewires them.
NULL_TRACER = Tracer()


class RingTracer(Tracer):
    """Bounded recording tracer with JSONL export.

    Keeps the newest ``capacity`` events; the ring never grows past
    that, making it safe to leave attached for arbitrarily long runs.
    """

    enabled = True

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: List[Dict] = []
        self._head = 0  # index of the oldest retained event once wrapped
        self.emitted = 0
        self.dropped = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._ring)

    def emit(self, kind: str, cycle: int, **fields) -> None:
        event = {"cycle": cycle, "kind": kind}
        if fields:
            event.update(fields)
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            ring[self._head] = event
            self._head += 1
            if self._head == self.capacity:
                self._head = 0
            self.dropped += 1
        self.emitted += 1

    def events(self) -> List[Dict]:
        """Retained events, oldest first."""
        return self._ring[self._head :] + self._ring[: self._head]

    def counts(self) -> Dict[str, int]:
        """Retained-event histogram by kind (sorted by kind)."""
        out: Dict[str, int] = {}
        for event in self._ring:
            kind = event["kind"]
            out[kind] = out.get(kind, 0) + 1
        return dict(sorted(out.items()))

    def clear(self) -> None:
        self._ring.clear()
        self._head = 0
        self.emitted = 0
        self.dropped = 0


def write_jsonl(events: Iterable[Dict], path: Union[str, Path]) -> int:
    """Write events one-JSON-object-per-line; returns the line count."""
    count = 0
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Load a JSONL event file (blank lines ignored)."""
    events: List[Dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def attach_tracer(core, tracer: Tracer) -> Tracer:
    """Wire one tracer through a core and every hook point below it.

    Sets the tracer on the core, its memory hierarchy, all three
    caches, and the L1-D token detector, so a single attach call makes
    the whole machine observable.  Returns the tracer for chaining.
    """
    core.tracer = tracer
    hierarchy = core.hierarchy
    if hierarchy is not None:
        attach_hierarchy_tracer(hierarchy, tracer)
    return tracer


def attach_hierarchy_tracer(hierarchy, tracer: Tracer) -> Tracer:
    """Wire a tracer through a hierarchy's caches and detector."""
    hierarchy.tracer = tracer
    hierarchy.l1d.tracer = tracer
    hierarchy.l1i.tracer = tracer
    hierarchy.l2.tracer = tracer
    hierarchy.detector.tracer = tracer
    return tracer
