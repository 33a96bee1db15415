"""Cycle-level out-of-order core (Table II configuration).

Trace-driven: the core consumes a stream of ``MicroOp``s (from the
workload generator or the runtime lowering), models fetch/dispatch/
issue/execute/commit with the Table II structure sizes, performs memory
accesses against the REST-extended hierarchy at execute, and enforces
the two commit policies:

* **secure mode** — stores (and arm/disarm) commit eagerly as soon as
  they are the oldest instruction; a REST violation detected after that
  point is reported imprecisely (the hierarchy already tags it so);
* **debug mode** — a store-like op at the ROB head may not commit until
  its cache write has completed, which is precisely the mechanism the
  paper identifies as the source of the debug-mode slowdown (ROB blocked
  by stores ~10x more, IQ-full cycles up to 100x for xalanc).

Memory operations execute in program order with respect to each other
(a conservative memory unit): this keeps the architectural token state
exactly sequential, which Table I semantics rely on, while still letting
compute ops reorder freely around them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.modes import Mode
from repro.cpu.bpred import BranchPredictor
from repro.cpu.iq import IssueQueue
from repro.cpu.isa import MicroOp, OpType
from repro.cpu.lsq import LoadStoreQueue, SqEntryKind
from repro.cpu.rob import ReorderBuffer, RobEntry
from repro.cpu.stats import CoreStats
from repro.obs.tracer import NULL_TRACER

@dataclass(frozen=True)
class CoreConfig:
    """Core structure sizes and widths (defaults: Table II)."""

    fetch_width: int = 8
    dispatch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    iq_entries: int = 64
    lq_entries: int = 32
    sq_entries: int = 32
    fetch_buffer_entries: int = 16
    mispredict_penalty: int = 12
    #: Ablation: the paper's rejected simple design that serialises
    #: arm/disarm execution (each must be the only in-flight
    #: instruction) instead of modifying the LSQ matching logic.
    serialize_rest_ops: bool = False

    @classmethod
    def in_order(cls) -> "CoreConfig":
        """A 1-wide, tiny-window configuration approximating an in-order
        core (the paper ran the Figure 3 breakdown on an in-order core).
        """
        return cls(
            fetch_width=1,
            dispatch_width=1,
            issue_width=1,
            commit_width=1,
            rob_entries=8,
            iq_entries=2,
            lq_entries=4,
            sq_entries=4,
            fetch_buffer_entries=4,
            mispredict_penalty=6,
        )


class OutOfOrderCore:
    """Trace-driven cycle-level OoO core bound to a memory hierarchy."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        config: Optional[CoreConfig] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config or CoreConfig()
        self.rob = ReorderBuffer(self.config.rob_entries)
        self.iq = IssueQueue(self.config.iq_entries)
        self.lsq = LoadStoreQueue(
            self.config.lq_entries,
            self.config.sq_entries,
            line_size=hierarchy.line_size,
        )
        self.bpred = BranchPredictor()
        self.stats = CoreStats()
        #: Observability hook (see :mod:`repro.obs.tracer`); the null
        #: tracer costs one hoisted-bool test per emit site.
        self.tracer = NULL_TRACER
        self._cycle = 0

    @property
    def mode(self) -> Mode:
        return self.hierarchy.mode

    def run(
        self, uops: Iterable[MicroOp], max_cycles: Optional[int] = None
    ) -> CoreStats:
        """Run the trace to completion; returns the collected stats.

        REST exceptions raised at execute propagate to the caller with
        the faulting cycle stamped on them; the stats object reflects
        progress up to the fault.  Uses the event-driven fast-forward
        (see :meth:`run_stepwise`) — the stats are identical to a
        cycle-by-cycle run, only wall-clock time differs.
        """
        for _ in self.run_stepwise(
            uops, max_cycles=max_cycles, fast_forward=True
        ):
            pass
        return self.stats

    def run_stepwise(
        self,
        uops: Iterable[MicroOp],
        max_cycles: Optional[int] = None,
        fast_forward: bool = False,
    ):
        """Generator variant of :meth:`run`: yields after every cycle.

        Lets an SMP executor interleave several cores cycle-by-cycle
        over a coherent memory system (see :mod:`repro.cpu.smp`).

        With ``fast_forward=True`` the loop skips cycles in which no
        stage can make progress (nothing commits, issues, dispatches, or
        fetches), jumping directly to the earliest cycle at which a
        completion/write/fetch-stall timer fires and bulk-charging the
        per-cycle stall counters for the skipped span.  All stats are
        byte-identical to the cycle-by-cycle walk; only the *yield*
        cadence changes (skipped cycles are not yielded), which is why
        it is opt-in and off for SMP interleaving.
        """
        config = self.config
        stats = self.stats
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        hierarchy = self.hierarchy
        mode_debug = self.mode is Mode.DEBUG

        # The per-cycle loop dominates simulation wall-clock, so the
        # structure sizes, queue internals, and bound methods used every
        # cycle are hoisted into locals here (a local load is several
        # times cheaper than attribute traversal in CPython).
        commit_width = config.commit_width
        issue_width = config.issue_width
        dispatch_width = config.dispatch_width
        fetch_width = config.fetch_width
        fetch_buffer_entries = config.fetch_buffer_entries
        mispredict_penalty = config.mispredict_penalty
        serialize_rest = config.serialize_rest_ops
        rob_capacity = rob.capacity
        iq_capacity = iq.capacity
        lq_cap = lsq.lq_entries
        sq_cap = lsq.sq_entries
        rob_entries = rob._entries
        lq = lsq._lq
        sq = lsq._sq
        op_counts = stats.op_counts
        op_counts_get = op_counts.get
        fetch_line_fn = hierarchy.fetch_line
        predict_and_update = self.bpred.predict_and_update
        token_width = hierarchy.detector.token.width
        execute = self._execute
        retire_load = lsq.retire_load
        lq_popleft = lq.popleft
        retire_store_like = lsq.retire_store_like
        dispatch_store_like = lsq.dispatch_store_like
        ot_load = OpType.LOAD
        ot_store = OpType.STORE
        ot_arm = OpType.ARM
        ot_disarm = OpType.DISARM
        # Identity tests pick the store-queue kind: an enum-keyed dict
        # lookup calls the Python-level ``Enum.__hash__`` per op.
        sq_store = SqEntryKind.STORE
        sq_arm = SqEntryKind.ARM
        sq_disarm = SqEntryKind.DISARM
        tracer = self.tracer
        trace_on = tracer.enabled
        emit = tracer.emit
        #: (cause, pc) -> cycles, mirroring every aggregate stall
        #: counter charge exactly (including fast-forwarded spans); the
        #: ``finally`` block emits it as compact ``pcstall`` summary
        #: events so per-PC attribution survives ring wraparound of the
        #: per-uop stream.  Only touched when tracing is on.
        pc_stalls: Dict[Tuple[str, int], int] = {}
        pc_stalls_get = pc_stalls.get
        #: Fetch-order sequence stamp for traced fetch/squash events.
        #: The fetch buffer is a FIFO and there is no wrong-path fetch,
        #: so fetch order equals dispatch order: this counter previews
        #: the ``seq`` dispatch will assign the same uop.
        fetch_seq = 0

        trace = iter(uops)
        trace_next = trace.__next__
        fetch_buffer: Deque[MicroOp] = deque()
        fb_append = fetch_buffer.append
        fb_popleft = fetch_buffer.popleft
        trace_done = False
        fetch_stall_until = 0
        seq = 0
        cycle = self._cycle
        start_cycle = cycle
        #: seq -> cycle its result is available; -1 while in flight.
        #: Dense list indexed by seq (seqs are assigned contiguously at
        #: dispatch), replacing the dict of the original implementation.
        completion: List[int] = []
        completion_append = completion.append
        #: seq -> entries waiting for that op to execute (None when
        #: nothing waits); dense like ``completion``.
        waiters: List[Optional[List[RobEntry]]] = []
        waiters_append = waiters.append
        #: Non-memory entries whose producers have all executed, as a
        #: heap of (ready cycle, seq, entry); they move to ``ready``
        #: when their cycle comes.
        wakeups: List[Tuple[int, int, RobEntry]] = []
        #: Entries free to issue this cycle, a heap of (seq, entry).
        ready: List[Tuple[int, RobEntry]] = []
        #: program-order queue of unexecuted memory ops.
        mem_order: Deque[RobEntry] = deque()
        mem_append = mem_order.append
        mem_popleft = mem_order.popleft
        #: serialize_rest_ops ablation: arm/disarm ops still in flight.
        rest_in_flight = 0
        #: IQ occupancy, published to ``iq`` at every yield, and the
        #: structure maxima, written back when the run ends.
        iq_len = 0
        iq_max = iq.max_occupancy
        rob_max = rob.max_occupancy
        #: instruction-fetch line tracking for the L1-I.
        last_fetch_line = -1
        line_mask = ~(hierarchy.line_size - 1)
        cycle_limit = (
            start_cycle + max_cycles if max_cycles is not None else None
        )

        try:
            while not trace_done or fetch_buffer or rob_entries:
                cycle += 1
                self._cycle = cycle
                if trace_on:
                    # Cycle stamp for components without a cycle arg of
                    # their own (cache installs, detector scans).
                    tracer.now = cycle
                if cycle_limit is not None and cycle > cycle_limit:
                    raise RuntimeError("simulation exceeded max_cycles")

                # ---- commit (in order, up to commit width) ----
                committed_now = 0
                head_store_blocked = False
                while committed_now < commit_width and rob_entries:
                    head = rob_entries[0]
                    head_uop = head.uop
                    head_seq = head.seq
                    op_type = head_uop.op
                    store_like = op_type.is_store_like
                    done_cycle = completion[head_seq]
                    blocked = done_cycle < 0 or done_cycle > cycle
                    if not blocked and mode_debug and store_like:
                        # Debug mode: the cache write starts when the
                        # store retires; hold the head until it is done.
                        if head.write_done_cycle < 0:
                            head.write_done_cycle = (
                                cycle + head.write_latency
                            )
                        blocked = head.write_done_cycle > cycle
                    if blocked:
                        if store_like:
                            head_store_blocked = True
                            stats.rob_blocked_by_store_cycles += 1
                            if trace_on:
                                key = ("rob_store", head_uop.pc)
                                pc_stalls[key] = (
                                    pc_stalls_get(key, 0) + 1
                                )
                        break
                    rob_entries.popleft()
                    if op_type is ot_load:
                        # Loads retire in order, so the LQ head is it.
                        if lq[0] == head_seq:
                            lq_popleft()
                        else:
                            retire_load(head_seq)
                    elif store_like:
                        retire_store_like(head_seq)
                        if serialize_rest and op_type is not ot_store:
                            rest_in_flight -= 1
                    # ``_value_`` is the plain instance attribute behind
                    # the (slow) ``Enum.value`` descriptor.
                    key = op_type._value_
                    op_counts[key] = op_counts_get(key, 0) + 1
                    committed_now += 1
                    if trace_on:
                        emit(
                            "commit",
                            cycle,
                            seq=head_seq,
                            pc=head_uop.pc,
                            sid=head_uop.sid,
                            op=key,
                            store_done=(
                                head.write_done_cycle
                                if head.write_done_cycle > 0
                                else 0
                            ),
                        )
                if committed_now:
                    stats.committed += committed_now
                    stats.commit_active_cycles += 1

                # ---- issue (up to issue width, oldest-first select) ----
                # Woken entries whose ready cycle has come join the
                # ready list; the memory queue offers only its head.
                # Every completion written below is later than
                # ``cycle``, so nothing woken now can issue this cycle.
                while wakeups and wakeups[0][0] <= cycle:
                    _, ready_seq, entry = heappop(wakeups)
                    heappush(ready, (ready_seq, entry))
                issued = 0
                if ready or mem_order:
                    mem_seq = -1  # seq of the memory head if it is ready
                    if mem_order:
                        entry = mem_order[0]
                        if not entry.pending and entry.ready_at <= cycle:
                            mem_seq = entry.seq
                    while issued < issue_width:
                        if ready and (mem_seq < 0 or ready[0][0] < mem_seq):
                            issue_seq, entry = heappop(ready)
                            uop = entry.uop
                            done = cycle + uop.op.base_latency
                        elif mem_seq >= 0:
                            issue_seq = mem_seq
                            entry = mem_order[0]
                            uop = entry.uop
                            if trace_on:
                                dram_before = stats.dram_stall_cycles
                            done = execute(uop, entry, cycle, lsq)
                            mem_popleft()
                        else:
                            break
                        completion[issue_seq] = done
                        issued += 1
                        consumers = waiters[issue_seq]
                        if consumers is not None:
                            waiters[issue_seq] = None
                            for consumer in consumers:
                                consumer.pending -= 1
                                if done > consumer.ready_at:
                                    consumer.ready_at = done
                                if not (
                                    consumer.pending or consumer.is_memory
                                ):
                                    heappush(
                                        wakeups,
                                        (
                                            consumer.ready_at,
                                            consumer.seq,
                                            consumer,
                                        ),
                                    )
                        if trace_on:
                            emit("issue", cycle, seq=issue_seq, pc=uop.pc)
                            emit("complete", done, seq=issue_seq, pc=uop.pc)
                        if issue_seq == mem_seq:
                            # The new head sees the wakeups just made.
                            mem_seq = -1
                            if mem_order:
                                entry = mem_order[0]
                                if (
                                    not entry.pending
                                    and entry.ready_at <= cycle
                                ):
                                    mem_seq = entry.seq
                            if trace_on:
                                dram_added = (
                                    stats.dram_stall_cycles - dram_before
                                )
                                if dram_added:
                                    key = ("dram", uop.pc)
                                    pc_stalls[key] = (
                                        pc_stalls_get(key, 0) + dram_added
                                    )
                    # After the loop, so a fault in execute leaves the
                    # occupancy where the cycle began.
                    iq_len -= issued

                # ---- dispatch (fetch buffer -> ROB/IQ/LSQ) ----
                dispatched = 0
                blocked_reason = None
                while dispatched < dispatch_width and fetch_buffer:
                    uop = fetch_buffer[0]
                    if serialize_rest and rest_in_flight:
                        break  # machine drains before anything follows
                    if len(rob_entries) >= rob_capacity:
                        blocked_reason = "rob"
                        break
                    if iq_len >= iq_capacity:
                        blocked_reason = "iq"
                        break
                    op_type = uop.op
                    # Rejected design (paper §III-B): under the
                    # serialize ablation an arm/disarm must be the only
                    # in-flight instruction.
                    rest_op = serialize_rest and (
                        op_type is ot_arm or op_type is ot_disarm
                    )
                    if rest_op and rob_entries:
                        break
                    if op_type is ot_load:
                        if len(lq) >= lq_cap:
                            blocked_reason = "lq"
                            break
                        store_like = False
                    else:
                        store_like = op_type.is_store_like
                        if store_like and len(sq) >= sq_cap:
                            blocked_reason = "sq"
                            break
                    fb_popleft()
                    uop.seq = seq
                    entry = RobEntry(uop, seq, op_type.is_memory)
                    completion_append(-1)
                    waiters_append(None)
                    rob_entries.append(entry)
                    iq_len += 1
                    # Count the producers still to execute and wait on
                    # each; the executed ones bound the ready cycle.
                    pending = 0
                    ready_at = 0
                    for distance in uop.deps:
                        producer_seq = seq - distance
                        if producer_seq >= 0:
                            done = completion[producer_seq]
                            if done < 0:
                                pending += 1
                                consumers = waiters[producer_seq]
                                if consumers is None:
                                    waiters[producer_seq] = [entry]
                                else:
                                    consumers.append(entry)
                            elif done > ready_at:
                                ready_at = done
                    entry.pending = pending
                    entry.ready_at = ready_at
                    if trace_on:
                        emit(
                            "dispatch",
                            cycle,
                            seq=seq,
                            pc=uop.pc,
                            sid=uop.sid,
                            op=op_type._value_,
                        )
                    if op_type is ot_load:
                        lq.append(seq)
                        mem_append(entry)
                    elif store_like:
                        if op_type is ot_store:
                            sq_kind = sq_store
                            entry_size = uop.size or 8
                        else:
                            sq_kind = sq_arm if op_type is ot_arm else sq_disarm
                            # Arm/disarm cover a whole token slot.
                            entry_size = token_width
                        dispatch_store_like(
                            seq, sq_kind, uop.address, entry_size
                        )
                        mem_append(entry)
                    elif not pending:
                        heappush(wakeups, (ready_at, seq, entry))
                    seq += 1
                    dispatched += 1
                    if rest_op:
                        rest_in_flight += 1
                        break  # nothing may follow it this cycle
                if dispatched:
                    if len(rob_entries) > rob_max:
                        rob_max = len(rob_entries)
                    if iq_len > iq_max:
                        iq_max = iq_len
                if blocked_reason is not None:
                    if blocked_reason == "rob":
                        stats.rob_full_cycles += 1
                    elif blocked_reason == "iq":
                        stats.iq_full_cycles += 1
                    elif blocked_reason == "lq":
                        stats.lq_full_cycles += 1
                    else:
                        stats.sq_full_cycles += 1
                    if trace_on:
                        # A structure-full stall is blamed on the ROB
                        # head: that is the instruction the backend is
                        # waiting on, not the one that failed to enter.
                        key = (
                            blocked_reason,
                            rob_entries[0].uop.pc
                            if rob_entries
                            else fetch_buffer[0].pc,
                        )
                        pc_stalls[key] = pc_stalls_get(key, 0) + 1

                # ---- fetch (trace -> fetch buffer) ----
                fetch_attempted = False
                if cycle >= fetch_stall_until and not trace_done:
                    fetched = 0
                    fb_len = len(fetch_buffer)
                    while (
                        fetched < fetch_width
                        and fb_len < fetch_buffer_entries
                    ):
                        fetch_attempted = True
                        try:
                            uop = trace_next()
                        except StopIteration:
                            trace_done = True
                            break
                        fetch_line = uop.pc & line_mask
                        if fetch_line != last_fetch_line:
                            last_fetch_line = fetch_line
                            stall = fetch_line_fn(uop.pc)
                            if stall:
                                stats.icache_stall_cycles += stall
                                fetch_stall_until = cycle + stall
                                fb_append(uop)
                                fetched += 1
                                if trace_on:
                                    emit(
                                        "fetch",
                                        cycle,
                                        seq=fetch_seq,
                                        pc=uop.pc,
                                        sid=uop.sid,
                                        op=uop.op._value_,
                                        icache_stall=stall,
                                    )
                                    fetch_seq += 1
                                    key = ("icache", uop.pc)
                                    pc_stalls[key] = (
                                        pc_stalls_get(key, 0) + stall
                                    )
                                break
                        fb_append(uop)
                        fetched += 1
                        fb_len += 1
                        if trace_on:
                            emit(
                                "fetch",
                                cycle,
                                seq=fetch_seq,
                                pc=uop.pc,
                                sid=uop.sid,
                                op=uop.op._value_,
                            )
                            fetch_seq += 1
                        uop_op = uop.op
                        if uop_op.is_control and uop.taken is not None:
                            if not predict_and_update(uop.pc, uop.taken):
                                stats.branch_mispredicts += 1
                                stats.mispredict_stall_cycles += (
                                    mispredict_penalty
                                )
                                fetch_stall_until = (
                                    cycle + mispredict_penalty
                                )
                                if trace_on:
                                    emit(
                                        "squash",
                                        cycle,
                                        seq=fetch_seq - 1,
                                        pc=uop.pc,
                                        penalty=mispredict_penalty,
                                    )
                                    key = ("mispredict", uop.pc)
                                    pc_stalls[key] = (
                                        pc_stalls_get(key, 0)
                                        + mispredict_penalty
                                    )
                                break
                    if fetched:
                        stats.fetched += fetched

                # ---- event-driven fast-forward ----
                if fast_forward and not (
                    committed_now or issued or dispatched or fetch_attempted
                ):
                    # No stage made progress, so the machine state is
                    # frozen except for timers keyed on ``cycle``: every
                    # intervening cycle would repeat this one exactly.
                    # Jump to the earliest cycle a timer fires, charging
                    # the skipped span to the same stall counters this
                    # cycle charged.  The hierarchy holds no cycle-
                    # decaying state (DRAM row and write-buffer effects
                    # are modelled at access time), so these timers are
                    # the only wake-up sources.
                    target = None
                    if rob_entries:
                        head = rob_entries[0]
                        done_cycle = completion[head.seq]
                        if done_cycle > cycle:
                            target = done_cycle
                        elif done_cycle >= 0:
                            # Executed but held by the debug-mode write
                            # gate (the only other way commit blocks).
                            if head.write_done_cycle > cycle:
                                target = head.write_done_cycle
                    # Nothing issued or dispatched, so the wakeup heap
                    # holds only ops maturing after this cycle.
                    if wakeups and (target is None or wakeups[0][0] < target):
                        target = wakeups[0][0]
                    if mem_order:
                        entry = mem_order[0]
                        if (
                            not entry.pending
                            and entry.ready_at > cycle
                            and (target is None or entry.ready_at < target)
                        ):
                            target = entry.ready_at
                    if (
                        not trace_done
                        and fetch_stall_until > cycle
                        and len(fetch_buffer) < fetch_buffer_entries
                        and (target is None or fetch_stall_until < target)
                    ):
                        target = fetch_stall_until
                    if target is not None and target > cycle + 1:
                        if (
                            cycle_limit is not None
                            and target > cycle_limit + 1
                        ):
                            target = cycle_limit + 1
                        skipped = target - cycle - 1
                        if skipped > 0:
                            # The frozen machine repeats this cycle's
                            # stall causes verbatim, so the per-PC blame
                            # below matches what the per-cycle sites
                            # charged: the ROB head cannot have moved
                            # (nothing committed this cycle).
                            if head_store_blocked:
                                stats.rob_blocked_by_store_cycles += skipped
                                if trace_on:
                                    key = (
                                        "rob_store",
                                        rob_entries[0].uop.pc,
                                    )
                                    pc_stalls[key] = (
                                        pc_stalls_get(key, 0) + skipped
                                    )
                            if blocked_reason is not None:
                                if blocked_reason == "rob":
                                    stats.rob_full_cycles += skipped
                                elif blocked_reason == "iq":
                                    stats.iq_full_cycles += skipped
                                elif blocked_reason == "lq":
                                    stats.lq_full_cycles += skipped
                                else:
                                    stats.sq_full_cycles += skipped
                                if trace_on:
                                    key = (
                                        blocked_reason,
                                        rob_entries[0].uop.pc
                                        if rob_entries
                                        else fetch_buffer[0].pc,
                                    )
                                    pc_stalls[key] = (
                                        pc_stalls_get(key, 0) + skipped
                                    )
                            cycle = target - 1

                iq.occupancy = iq_len
                yield cycle
        finally:
            iq.occupancy = iq_len
            # A fault mid-dispatch leaves its entry counted, as a
            # per-dispatch maximum would have.
            iq.max_occupancy = max(iq_max, iq_len)
            rob.max_occupancy = max(rob_max, len(rob_entries))
            stats.cycles = cycle
            stats.lsq_forwards = lsq.forwards
            if trace_on and pc_stalls:
                # Compact per-(cause, pc) stall summaries.  Emitted at
                # the end of the run so they survive ring wraparound of
                # the per-uop stream; per-cause sums equal the raw
                # aggregate counters exactly, which the trace-diff
                # profiler's apportionment relies on (INTERNALS §13).
                for cause, pc in sorted(pc_stalls):
                    emit(
                        "pcstall",
                        cycle,
                        cause=cause,
                        pc=pc,
                        cycles=pc_stalls[(cause, pc)],
                    )

    def run_attributed(
        self,
        uops: Sequence[MicroOp],
        boundaries: Sequence[int],
        max_cycles: Optional[int] = None,
    ):
        """Run the trace, attributing cycles to committed-uop spans.

        ``boundaries`` is an ascending list of cumulative committed-uop
        counts (block ends, see :func:`repro.cpu.blocks.block_boundaries`).
        Returns ``(stats, costs)`` where ``costs[i]`` is the number of
        cycles between the commit of boundary ``i-1`` and boundary
        ``i``.  Commits happen only on stepped cycles (fast-forwarded
        spans by definition make no progress), so watching
        ``stats.committed`` cross each boundary is exact.  Several
        boundaries crossed in one cycle leave the later spans at zero
        cost — the shared cycle is charged to the first span — so the
        costs always sum to the total cycles consumed.

        This is the fast tier's characterization hook: the simulated
        state (caches, predictor, stats) is identical to a plain
        :meth:`run` of the same uops.
        """
        stats = self.stats
        costs = [0] * len(boundaries)
        index = 0
        last_cycle = self._cycle
        n_bounds = len(boundaries)
        for _ in self.run_stepwise(
            uops, max_cycles=max_cycles, fast_forward=True
        ):
            committed = stats.committed
            while index < n_bounds and committed >= boundaries[index]:
                cycle = self._cycle
                costs[index] = cycle - last_cycle
                last_cycle = cycle
                index += 1
        while index < n_bounds:
            costs[index] = self._cycle - last_cycle
            last_cycle = self._cycle
            index += 1
        return stats, costs

    def _execute(
        self,
        uop: MicroOp,
        entry: RobEntry,
        cycle: int,
        lsq: LoadStoreQueue,
    ) -> int:
        """Execute one memory op against the hierarchy; returns the
        cycle its result is available (always later than ``cycle``)."""
        op_type = uop.op
        hierarchy = self.hierarchy
        try:
            if op_type is OpType.LOAD:
                size = uop.size or 8
                if lsq.search_for_load(uop.seq, uop.address, size) is not None:
                    return cycle + 1  # forwarded from the store queue
                latency = hierarchy.load_latency(uop.address, size, cycle=cycle)
                if hierarchy.went_to_memory:
                    self.stats.dram_stall_cycles += latency
                return cycle + latency if latency > 1 else cycle + 1
            config = hierarchy.config
            if op_type is OpType.STORE:
                size = uop.size or 8
                lsq.check_store(uop.seq, uop.address, size)
                latency = hierarchy.store_latency(
                    uop.address, size, cycle=cycle
                )
                if hierarchy.went_to_memory:
                    self.stats.dram_stall_cycles += latency
                # The execute-time access brought the line into L1
                # (write-allocate), so the retirement-time write that
                # debug mode waits on is an L1 hit: the request/ack
                # round trip costs two traversals of the hit path.
                entry.write_latency = 2 * config.l1d.hit_latency
                return cycle + 1
            if op_type is OpType.ARM:
                latency = hierarchy.arm_latency(uop.address, cycle)
                if hierarchy.went_to_memory:
                    self.stats.dram_stall_cycles += latency
                if config.token_staging_entries:
                    # §VIII extension: the dedicated REST-line staging
                    # structure acks token writes immediately.
                    entry.write_latency = 1
                else:
                    # Arm hits complete in 1 cycle; the commit-time ack
                    # still takes the L1 round trip.
                    entry.write_latency = 1 + config.l1d.hit_latency
                return cycle + 1
            latency = hierarchy.disarm_latency(uop.address, cycle)
            if hierarchy.went_to_memory:
                self.stats.dram_stall_cycles += latency
            if config.token_staging_entries:
                entry.write_latency = 1
            else:
                entry.write_latency = (
                    1 + config.disarm_extra_cycles + config.l1d.hit_latency
                )
            return cycle + 1
        except Exception as error:
            if getattr(error, "cycle", False) is None:
                error.cycle = cycle
            raise
