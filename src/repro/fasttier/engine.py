"""The analytical fast-tier engine.

Strategy (SMARTS-flavoured characterize-then-extrapolate):

1. **Decompose** the committed uop trace into basic blocks
   (:mod:`repro.cpu.blocks`), each with a coarse structural *shape*
   key, and run one lean functional pass
   (:mod:`repro.fasttier.lean`) over the whole trace to give every
   block its *cache-state class* — which hierarchy level serves its
   accesses, whether its terminator mispredicts.  That class is the
   half of the memo key that drifts over a run (cold-start misses,
   working-set growth) and is exactly what makes naive prefix
   extrapolation wrong.
2. **Characterize** a calibration slice (the first
   ``calib_fraction`` of the trace, block-aligned) against the real
   cycle-accurate pipeline using
   :meth:`repro.cpu.pipeline.OutOfOrderCore.run_attributed`, which
   attributes every simulated cycle to the block that was committing.
   Per-block costs are memoized under ``(shape, cache-state-class)``.
   Blocks whose exact key was never characterized are priced by a
   linear throughput model whose weights are *fitted to this run's
   slice* by exact rational least squares — no hand-tuned constants
   have to hold across defense modes.
3. **Correct**: the slice is split in half; tables and weights trained
   on the first half predict the second, and the measured/predicted
   ratios become correction factors.  The exact-path ratio mostly
   measures *warmup drift* (the train half sits at the cold end of the
   run), which decays over the extrapolated region — so it is applied
   damped to its geometric mean with 1, while the model-path ratio
   measures genuine fit bias on unseen keys and is applied in full.
4. **Extrapolate** the remainder: charge each post-slice block its
   memoized (or fitted) corrected cost.  The accumulated totals are
   stored in the memo entry, so a memo-warm run skips every per-uop
   loop and just re-assembles the result — that O(1) replay is where
   the steady-state bench speedup comes from.

All replay arithmetic is integer fixed-point (``Q`` units) and the
characterization solves its least squares in exact rationals, so
results are bit-deterministic: a warm memo replay reproduces the cold
run's stats byte-for-byte, which ``tests/test_fast_tier.py`` locks.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field, fields as dc_fields
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import HierarchyStats
from repro.cpu.blocks import DEFAULT_BLOCK_CAP, block_boundaries, split_blocks
from repro.cpu.bpred import BranchPredictor
from repro.cpu.isa import MicroOp, OpType
from repro.cpu.stats import CoreStats
from repro.fasttier.lean import LeanHierarchy
from repro.mem.dram import DramConfig

#: Fixed-point scale for all analytical cycle arithmetic.
Q = 1024

#: Declared divergence tolerance of the fast tier: |fast - accurate| /
#: accurate on total cycles, per workload x defense cell.
#: ``tests/test_fast_tier.py`` asserts every bench mode at the bench
#: scale stays within this bound.
DECLARED_TOLERANCE = 0.10

#: Default fraction of the trace characterized cycle-accurately.
DEFAULT_CALIB_FRACTION = 0.25

#: Below this many remaining uops the fast tier degenerates to the
#: accurate tier (the whole trace becomes the calibration slice) —
#: there is nothing to extrapolate and no speedup to be had.
MIN_REMAINDER_UOPS = 4096

#: Calibration-slice floor: enough blocks to populate the memo and
#: warm the predictors before extrapolation starts.
MIN_SLICE_UOPS = 8192

#: Correction-factor clamp (Q units): a pathological check half cannot
#: push the extrapolation beyond ~2.5x in either direction.
_CORR_MIN = (2 * Q) // 5
_CORR_MAX = (5 * Q) // 2

#: Number of features in the fitted linear block-cost model:
#: (intercept, n, loads, stores, rest, heavy, ctrl, l2 lines, mem
#: lines, store misses, icache class, mispredict, dram row misses).
_N_FEATURES = 13

#: CoreStats counters extrapolated proportionally to *cycles*.
_CYCLE_RATE_FIELDS = (
    "commit_active_cycles",
    "rob_blocked_by_store_cycles",
    "rob_full_cycles",
    "iq_full_cycles",
    "lq_full_cycles",
    "sq_full_cycles",
)


@dataclass
class FastTierResult:
    """What one fast-tier run produced."""

    stats: CoreStats
    hierarchy_stats: HierarchyStats
    l1d_miss_rate: float
    l2_miss_rate: float
    memo_hit: bool
    divergence: Dict = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)


class BlockMemo:
    """In-process store of per-trace characterizations.

    Keyed by a fingerprint of (trace content sample, defense spec,
    simulation config): a bench replaying the same trace hits the memo
    and skips both the cycle-accurate calibration and the lean replay
    entirely, so a warm run is a pure lookup.  Entries are
    pure data (ints, tuples and dicts), so a warm replay is
    bit-identical to the cold run that created the entry.
    """

    def __init__(self) -> None:
        self.entries: Dict[int, Dict] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: int) -> Optional[Dict]:
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: int, entry: Dict) -> None:
        self.entries[key] = entry

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0


def trace_fingerprint(trace: Sequence[MicroOp]) -> int:
    """Cheap content fingerprint: every 13th uop plus both ends.

    Only used to validate in-process memo reuse, where traces come
    from the same deterministic generator — sampling is plenty to tell
    two configurations apart and keeps the warm path fast.
    """
    crc = zlib.crc32(b"%d" % len(trace))
    n = len(trace)
    for index in range(0, n, 13):
        uop = trace[index]
        crc = zlib.crc32(
            b"%s:%d:%d:%d"
            % (uop.op._value_.encode(), uop.pc,
               uop.address if uop.address is not None else -1,
               uop.size if uop.size is not None else -1),
            crc,
        )
    if n:
        last = trace[-1]
        crc = zlib.crc32(
            b"%s:%d" % (last.op._value_.encode(), last.pc), crc
        )
    return crc


def _features(shape, sig) -> Tuple[int, ...]:
    """Feature vector of one block instance for the linear model."""
    return (
        1,  # intercept, in Q units directly (1/Q-cycle resolution)
        shape[0],
        shape[1],
        shape[2],
        shape[3],
        shape[4],
        1 if shape[5] else 0,
        sig[0],
        sig[1],
        sig[2],
        sig[3],
        sig[4],
        sig[5],
    )


def _fit_weights(samples: List[Tuple[Tuple[int, ...], int]]) -> List[int]:
    """Ridge least squares over (features, cost_q) in exact rationals.

    Returns integer weights ``w`` such that ``sum(w[i] * x[i])``
    approximates the block cost in Q units.  Exact ``Fraction``
    elimination keeps the result bit-identical across hosts; the mild
    relative ridge keeps degenerate feature columns solvable.
    """
    k = _N_FEATURES
    if len(samples) < 2 * k:
        return []
    xtx = [[0] * k for _ in range(k)]
    xty = [0] * k
    for x, y in samples:
        for i in range(k):
            xi = x[i]
            if not xi:
                continue
            xty[i] += xi * y
            row = xtx[i]
            for j in range(i, k):
                row[j] += xi * x[j]
    for i in range(k):
        for j in range(i):
            xtx[i][j] = xtx[j][i]
        xtx[i][i] += xtx[i][i] // 256 + 1  # relative ridge

    # Gaussian elimination with partial pivoting, exact arithmetic.
    a = [[Fraction(v) for v in row] + [Fraction(xty[i])]
         for i, row in enumerate(xtx)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        if not a[pivot][col]:
            return []
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for row in range(k):
            if row != col and a[row][col]:
                factor = a[row][col]
                a[row] = [
                    v - factor * p for v, p in zip(a[row], a[col])
                ]
    weights = []
    for i in range(k):
        w = a[i][k]
        weights.append((2 * w.numerator + w.denominator)
                       // (2 * w.denominator))  # round half up
    return weights


#: Last-resort static weights (Q units per feature), used only when
#: the per-run least-squares fit is degenerate (e.g. a near-empty
#: calibration slice).  Same feature order as :func:`_features`.
_STATIC_WEIGHTS = (
    Q // 4,        # intercept
    Q // 6,        # per uop
    Q // 4,        # per load
    Q // 8,        # per store
    Q // 4,        # per arm/disarm
    Q,             # per heavy op
    Q // 4,        # terminator present
    4 * Q,         # per L2-hit line
    18 * Q,        # per memory line
    Q,             # per store-side miss
    12 * Q,        # icache class
    12 * Q,        # mispredict
    80 * Q,        # per DRAM row miss
)


def _model_cost(weights, shape, sig) -> int:
    """Fitted linear block cost (Q units), floored at commit width."""
    if not weights:
        weights = _STATIC_WEIGHTS
    cost = (
        weights[0]
        + weights[1] * shape[0]
        + weights[2] * shape[1]
        + weights[3] * shape[2]
        + weights[4] * shape[3]
        + weights[5] * shape[4]
        + (weights[6] if shape[5] else 0)
        + weights[7] * sig[0]
        + weights[8] * sig[1]
        + weights[9] * sig[2]
        + weights[10] * sig[3]
        + weights[11] * sig[4]
        + weights[12] * sig[5]
    )
    floor = shape[0] * Q // 8
    return cost if cost > floor else floor


class FastTierEngine:
    """Characterize-once / replay-from-memo analytical simulator."""

    def __init__(
        self,
        memo: Optional[BlockMemo] = None,
        calib_fraction: float = DEFAULT_CALIB_FRACTION,
        block_cap: int = DEFAULT_BLOCK_CAP,
    ) -> None:
        if not (0.0 < calib_fraction <= 1.0):
            raise ValueError("calib_fraction must be in (0, 1]")
        self.memo = memo if memo is not None else BlockMemo()
        self.calib_fraction = calib_fraction
        self.block_cap = block_cap

    # -- public API ------------------------------------------------------

    def run(self, trace, spec, config) -> FastTierResult:
        """Fast-tier simulation of one (trace, spec, config) run.

        ``config.core`` is the core the calibration slice runs on.
        """
        trace = trace if isinstance(trace, list) else list(trace)
        key = self._memo_key(trace, spec, config)
        entry = self.memo.get(key)
        memo_hit = entry is not None
        if entry is None:
            entry = self._characterize(trace, spec, config)
            self.memo.put(key, entry)
        return self._assemble(entry, memo_hit)

    # -- memo key --------------------------------------------------------

    def _memo_key(self, trace, spec, config) -> int:
        payload = repr(
            (
                spec.key_payload() if hasattr(spec, "key_payload")
                else spec.name,
                config.key_payload() if hasattr(config, "key_payload")
                else (config.scale, config.seed),
                self.calib_fraction,
                self.block_cap,
            )
        ).encode()
        return zlib.crc32(payload, trace_fingerprint(trace))

    # -- characterization (cold path) ------------------------------------

    def _slice_block_count(self, blocks, total_uops: int) -> int:
        if total_uops < MIN_SLICE_UOPS + MIN_REMAINDER_UOPS:
            return len(blocks)
        target = max(
            MIN_SLICE_UOPS, int(total_uops * self.calib_fraction)
        )
        for index, block in enumerate(blocks):
            if block.end >= target:
                if total_uops - block.end < MIN_REMAINDER_UOPS:
                    return len(blocks)
                return index + 1
        return len(blocks)

    def _characterize(self, trace, spec, config) -> Dict:
        from repro.cpu.pipeline import OutOfOrderCore
        from repro.harness.experiment import _make_hierarchy

        total = len(trace)
        blocks = split_blocks(trace, cap=self.block_cap)
        n_slice = self._slice_block_count(blocks, total)

        # One lean functional pass over the whole trace: every block's
        # cache-state class, plus the lean miss rates the result
        # reports.
        sigs, lean = self._scan_signatures(trace, blocks, config)

        # Cycle-accurate characterization of the calibration slice.
        slice_blocks = blocks[:n_slice]
        slice_uops = slice_blocks[-1].end if slice_blocks else 0
        hierarchy = _make_hierarchy(spec, config)
        core = OutOfOrderCore(hierarchy, config=config.core)
        boundaries = block_boundaries(slice_blocks)
        stats, costs = core.run_attributed(trace[:slice_uops], boundaries)

        # Train the (shape, cache-state-class) memo and the fitted
        # linear model.  The half split gives out-of-sample per-path
        # correction factors; the final tables train on the whole
        # slice for coverage.
        half = n_slice // 2
        key_train: Dict = {}
        key_full: Dict = {}
        fit_train: List = []
        fit_full: List = []
        for index in range(n_slice):
            shape = slice_blocks[index].shape
            sig = sigs[index]
            cost_q = costs[index] * Q
            self._train(key_full, shape, sig, cost_q)
            fit_full.append((_features(shape, sig), cost_q))
            if index < half:
                self._train(key_train, shape, sig, cost_q)
                fit_train.append((_features(shape, sig), cost_q))

        key_means = self._to_means(key_full)
        weights = _fit_weights(fit_full)
        corr_exact, corr_model, check, rows = self._calibrate(
            slice_blocks,
            sigs,
            costs,
            half,
            self._to_means(key_train),
            _fit_weights(fit_train),
        )

        # Extrapolate the remainder now, so memo-warm replays are pure
        # result assembly with no per-block work.
        acc = self._accumulate_remainder(
            blocks, sigs, n_slice, key_means, weights, config
        )
        return {
            "slice_uops": slice_uops,
            "total_uops": total,
            "n_blocks": len(blocks),
            "n_slice_blocks": n_slice,
            "mispredict_penalty": (
                config.core.mispredict_penalty if config.core else 12
            ),
            "slice_cycles": stats.cycles,
            "slice_stats": asdict(stats),
            "hier_stats": asdict(hierarchy.stats),
            "corr_exact_q": corr_exact,
            "corr_model_q": corr_model,
            "check": check,
            "divergence_rows": rows,
            "remainder": acc,
            "remainder_op_counts": self._count_ops(trace, slice_uops),
            "l1d_miss_rate": lean.l1d.miss_rate,
            "l2_miss_rate": lean.l2.miss_rate,
        }

    @staticmethod
    def _count_ops(trace, start: int) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        get = counts.get
        for index in range(start, len(trace)):
            name = trace[index].op._value_
            counts[name] = get(name, 0) + 1
        return counts

    @staticmethod
    def _train(key_table, shape, sig, cost_q) -> None:
        entry = key_table.get((shape, sig))
        if entry is None:
            key_table[(shape, sig)] = [1, cost_q]
        else:
            entry[0] += 1
            entry[1] += cost_q

    @staticmethod
    def _to_means(table: Dict) -> Dict:
        return {
            key: entry[1] // entry[0] for key, entry in table.items()
        }

    def _calibrate(
        self, slice_blocks, sigs, costs, half, key_means, weights
    ):
        """Per-path corrections from the out-of-sample check half."""
        n_slice = len(slice_blocks)
        measured = [0, 0]  # exact path, model path (Q units)
        predicted = [0, 0]
        per_shape: Dict = {}
        for index in range(half, n_slice):
            shape = slice_blocks[index].shape
            sig = sigs[index]
            mean = key_means.get((shape, sig))
            if mean is not None:
                path, pred = 0, mean
            else:
                path, pred = 1, _model_cost(weights, shape, sig)
            measured[path] += costs[index] * Q
            predicted[path] += pred
            row = per_shape.setdefault(shape, [0, 0, 0])
            row[0] += 1
            row[1] += costs[index] * Q
            row[2] += pred

        def ratio(m, p):
            if m <= 0 or p <= 0:
                return Q
            return max(_CORR_MIN, min(_CORR_MAX, (m * Q) // p))

        check = {
            "blocks": n_slice - half,
            "measured_cycles": sum(measured) // Q,
            "predicted_cycles": sum(predicted) // Q,
            "exact_blocks_cycles": measured[0] // Q,
            "model_blocks_cycles": measured[1] // Q,
        }
        # The exact path goes uncorrected: the replay prices it from
        # full-slice means, and with the DRAM-row-aware signature
        # those transfer with small bias — while the train-half/check
        # -half ratio mostly measures within-slice warmup, which does
        # NOT extend into the (post-warmup) remainder and overcorrects
        # when applied.  The model-path ratio does measure genuine fit
        # bias on keys outside the table, but the check half's unseen
        # keys only partially resemble the remainder's, so it is
        # damped to its geometric mean with 1 (sqrt in Q fixed point).
        return (
            Q,
            isqrt(ratio(measured[1], predicted[1]) * Q),
            check,
            self._divergence_rows(per_shape),
        )

    @staticmethod
    def _divergence_rows(per_shape: Dict) -> List[Dict]:
        rows = []
        for shape, (count, measured_q, predicted_q) in per_shape.items():
            measured = measured_q / Q
            predicted = predicted_q / Q
            rows.append(
                {
                    "shape": list(shape),
                    "blocks": count,
                    "measured_cycles": round(measured, 1),
                    "predicted_cycles": round(predicted, 1),
                    "divergence_pct": round(
                        100.0 * (predicted - measured) / measured, 2
                    )
                    if measured
                    else 0.0,
                }
            )
        rows.sort(key=lambda r: -r["measured_cycles"])
        return rows[:12]

    # -- lean scan --------------------------------------------------------

    def _scan_signatures(self, trace, blocks, config):
        """Lean functional pass over the whole trace.

        Returns ``(sigs, lean)``: one cache-state signature
        ``(l2 lines, mem lines, store misses, icache class,
        mispredict, dram row misses)`` per block, and the lean
        hierarchy with its final hit counters.
        """
        lean = LeanHierarchy(config.hierarchy)
        bpred = BranchPredictor()
        sigs: List = [None] * len(blocks)
        shift = lean.line_shift
        data_line = lean.data_line
        inst_line = lean.inst_line
        predict_and_update = bpred.predict_and_update
        ot_load = OpType.LOAD
        last_inst = -1
        for index, block in enumerate(blocks):
            nl2 = nmem = smiss = icls = 0
            row_start = lean.row_misses
            for pos in range(block.start, block.end):
                uop = trace[pos]
                line = uop.pc >> shift
                if line != last_inst:
                    last_inst = line
                    cls = inst_line(line)
                    if cls > icls:
                        icls = cls
                op = uop.op
                if op.is_memory:
                    address = uop.address
                    size = uop.size or 8
                    first = address >> shift
                    last = (address + size - 1) >> shift
                    if op is ot_load:
                        while first <= last:
                            cls = data_line(first)
                            if cls == 1:
                                nl2 += 1
                            elif cls == 2:
                                nmem += 1
                            first += 1
                    else:
                        while first <= last:
                            if data_line(first):
                                smiss += 1
                            first += 1
            mispred = 0
            if block.ctrl_taken is not None:
                if not predict_and_update(block.ctrl_pc, block.ctrl_taken):
                    mispred = 1
            sigs[index] = (
                nl2,
                nmem,
                smiss,
                icls,
                mispred,
                lean.row_misses - row_start,
            )
        return sigs, lean

    def _accumulate_remainder(
        self, blocks, sigs, n_slice, key_means, weights, config
    ) -> Dict:
        """Charge every post-slice block; return the totals."""
        l2_hit = config.hierarchy.l2.hit_latency
        dram_cfg = DramConfig()
        row_hit = dram_cfg.row_hit_cycles
        row_extra = dram_cfg.row_miss_cycles - row_hit
        exact_q = model_q = 0
        mispredicts = icache_stall = mem_stall = unseen = 0
        table_get = key_means.get
        for index in range(n_slice, len(blocks)):
            sig = sigs[index]
            shape = blocks[index].shape
            mean = table_get((shape, sig))
            if mean is not None:
                exact_q += mean
            else:
                model_q += _model_cost(weights, shape, sig)
                unseen += 1
            if sig[4]:
                mispredicts += 1
            if sig[3] == 1:
                icache_stall += l2_hit
            elif sig[3] == 2:
                icache_stall += l2_hit + row_hit
            mem_stall += sig[1] * (l2_hit + row_hit) + sig[5] * row_extra
        return {
            "exact_q": exact_q,
            "model_q": model_q,
            "mispredicts": mispredicts,
            "icache_stall": icache_stall,
            "mem_line_stall": mem_stall,
            "unseen_blocks": unseen,
        }

    # -- result assembly (warm path: no per-uop work) ---------------------

    def _assemble(self, entry, memo_hit) -> FastTierResult:
        slice_uops = entry["slice_uops"]
        total = entry["total_uops"]
        remainder_uops = total - slice_uops
        acc = entry["remainder"]
        corr_exact = entry["corr_exact_q"]
        corr_model = entry["corr_model_q"]

        stats = CoreStats(**entry["slice_stats"])
        stats.op_counts = dict(stats.op_counts)
        slice_cycles = entry["slice_cycles"]
        remainder_cycles = (
            acc["exact_q"] * corr_exact + acc["model_q"] * corr_model
        ) // (Q * Q)
        stats.cycles = slice_cycles + remainder_cycles
        stats.committed += remainder_uops
        stats.fetched += remainder_uops
        for name, count in entry["remainder_op_counts"].items():
            stats.op_counts[name] = stats.op_counts.get(name, 0) + count
        stats.branch_mispredicts += acc["mispredicts"]
        stats.mispredict_stall_cycles += (
            acc["mispredicts"] * entry["mispredict_penalty"]
        )
        stats.icache_stall_cycles += acc["icache_stall"]
        stats.dram_stall_cycles += acc["mem_line_stall"]
        slice_stats = entry["slice_stats"]
        if slice_cycles > 0:
            for name in _CYCLE_RATE_FIELDS:
                extrapolated = (
                    slice_stats[name] * remainder_cycles // slice_cycles
                )
                setattr(stats, name, slice_stats[name] + extrapolated)
            stats.lsq_forwards = (
                slice_stats["lsq_forwards"]
                + slice_stats["lsq_forwards"]
                * remainder_uops
                // max(1, slice_uops)
            )
        if stats.commit_active_cycles > stats.cycles:
            stats.commit_active_cycles = stats.cycles

        hier = self._scaled_hierarchy_stats(
            entry["hier_stats"], total, max(1, slice_uops)
        )
        meta = {
            "tier": "fast",
            "memo_hit": memo_hit,
            "slice_uops": slice_uops,
            "slice_cycles": slice_cycles,
            "remainder_uops": remainder_uops,
            "predicted_remainder_cycles": remainder_cycles,
            "correction_exact": round(corr_exact / Q, 4),
            "correction_model": round(corr_model / Q, 4),
            "unseen_blocks": acc["unseen_blocks"],
            "extrapolated_blocks": entry["n_blocks"] - entry["n_slice_blocks"],
            "declared_tolerance": DECLARED_TOLERANCE,
        }
        divergence = {
            "check": dict(entry["check"]),
            "per_block_class": [dict(r) for r in entry["divergence_rows"]],
            "declared_tolerance_pct": DECLARED_TOLERANCE * 100.0,
        }
        return FastTierResult(
            stats=stats,
            hierarchy_stats=hier,
            l1d_miss_rate=entry["l1d_miss_rate"],
            l2_miss_rate=entry["l2_miss_rate"],
            memo_hit=memo_hit,
            divergence=divergence,
            meta=meta,
        )

    @staticmethod
    def _scaled_hierarchy_stats(
        snapshot: Dict, total_uops: int, slice_uops: int
    ) -> HierarchyStats:
        """Slice hierarchy counters scaled to full-trace volume."""
        scaled = {}
        for f in dc_fields(HierarchyStats):
            value = snapshot.get(f.name, 0)
            scaled[f.name] = value * total_uops // slice_uops
        return HierarchyStats(**scaled)
