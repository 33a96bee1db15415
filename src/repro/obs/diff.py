"""Differential trace profiler: per-PC stall attribution and diffs.

``repro diff`` lands here.  Two capabilities built on the event
identity model (INTERNALS §13):

**Per-PC stall attribution.**  The core's compact ``pcstall`` events
record, per ``(cause, pc)``, exactly the cycles every raw stall
counter charged — including fast-forwarded spans — so their per-cause
sums equal the raw aggregate counters.  The aggregate ``stalls.json``
buckets, however, are *priority-clamped* (see
:mod:`repro.obs.stalls`): a clamped bucket holds fewer cycles than
its raw counter.  :func:`per_pc_attribution` therefore apportions
each **clamped** bucket over its raw per-PC carrier with
:func:`repro.obs.stalls.largest_remainder`, which makes every per-PC
column sum *exactly* to the aggregate bucket by construction — the
invariant the tests property-check.  When a bucket has cycles but no
carrier (possible only for ``base``/``other``, whose carriers are
derived, never for the mirrored stall causes), the mass lands on a
synthetic ``pc == -1`` "(unattributed)" row rather than vanishing.

**Defense-vs-defense alignment.**  Committed instructions from two
modes of the same seeded workload share their application PCs (the
workload pc model is defense-independent); defense-inserted work
(arm/disarm, instrumentation) appears in one stream only.  The
aligner is anchor-and-resync: advance both streams while ``(pc, op)``
keys match; on mismatch, search outward over increasing skip radius
for the smallest skip pair after which ``anchor`` consecutive keys
match again, and classify the skipped entries as one-sided
insertions.  Greedy and deterministic; squash-tolerant because only
committed instructions are aligned.

Both the mode diff and the fast-tier validation diff are emitted as a
canonical ``trace-diff/v1`` JSON artifact: pure-integer content,
sorted keys, deterministic tie-breaks — byte-identical across
repeated runs of the same configuration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.stalls import (
    BUCKET_LABELS,
    STALL_BUCKETS,
    largest_remainder,
)
from repro.obs.tracer import read_jsonl

#: Artifact format tag (and the only format this module reads back).
TRACE_DIFF_FORMAT = "trace-diff/v1"

#: ``pcstall`` cause -> aggregate stall bucket.  ``lq``/``sq`` merge
#: into ``lsq_full`` exactly like the bucket decomposition merges the
#: two counters; raw ``rob`` (window-full) cycles carry the ``other``
#: residual because ROB-full is its dominant constituent.
CAUSE_BUCKET = {
    "rob_store": "rob_store_blocked",
    "iq": "iq_full",
    "lq": "lsq_full",
    "sq": "lsq_full",
    "icache": "icache",
    "mispredict": "mispredict",
    "dram": "dram",
    "rob": "other",
}

#: Synthetic pc for bucket mass with no per-PC carrier.
UNATTRIBUTED_PC = -1

#: Default skip-search radius of the aligner.  Insertions bigger than
#: this (per resync point) end the alignment; the tails are reported
#: one-sided rather than mis-paired.
DEFAULT_WINDOW = 96

#: Consecutive key matches required to accept a resync point.
DEFAULT_ANCHOR = 3


# -- committed stream ------------------------------------------------------


def committed_stream(events: Iterable[Dict]) -> List[Dict]:
    """The commit events of a stream, in emission order."""
    return [e for e in events if e.get("kind") == "commit"]


def check_commit_invariants(
    commits: Sequence[Dict], dropped: int = 0
) -> None:
    """Validate the identity invariants of a committed stream.

    Sequence numbers must be strictly increasing, and — when the ring
    dropped nothing — dense (every dispatched instruction commits; the
    core never dispatches wrong-path work).  Raises ``ValueError`` so
    a truncated or corrupt capture fails loudly instead of producing a
    silently skewed diff.
    """
    prev = None
    for event in commits:
        seq = event.get("seq")
        if seq is None:
            raise ValueError("commit event without seq — stale trace?")
        if prev is not None:
            if seq <= prev:
                raise ValueError(
                    f"commit seqs not strictly increasing: "
                    f"{seq} after {prev}"
                )
            if not dropped and seq != prev + 1:
                raise ValueError(
                    f"commit seqs not dense: {seq} after {prev} "
                    "with zero ring drops"
                )
        prev = seq


# -- per-PC attribution ----------------------------------------------------


def per_pc_attribution(
    events: Iterable[Dict], buckets: Dict[str, int]
) -> Tuple[Dict[int, Dict[str, int]], Dict[int, Dict]]:
    """Apportion the clamped aggregate ``buckets`` over per-PC rows.

    Returns ``(rows, meta)``: ``rows[pc][bucket]`` integer cycles with
    every bucket column summing exactly to ``buckets[bucket]`` (the
    synthetic :data:`UNATTRIBUTED_PC` row included), and per-pc
    ``meta`` (``sid``, committed count, op kinds) for display.

    Carriers: ``base`` is carried by the first committer of each
    distinct commit cycle (their count *is*
    ``commit_active_cycles``); every stall bucket is carried by the
    core's ``pcstall`` raw per-(cause, pc) cycles, mapped through
    :data:`CAUSE_BUCKET`.  When a bucket is unclamped its raw shares
    come back verbatim; when clamped they shrink proportionally
    (largest-remainder, deterministic ties).
    """
    carriers: Dict[str, Dict[int, int]] = {
        name: {} for name in STALL_BUCKETS
    }
    meta: Dict[int, Dict] = {}
    base = carriers["base"]
    last_commit_cycle = None
    for event in events:
        kind = event.get("kind")
        if kind == "pcstall":
            bucket = CAUSE_BUCKET.get(event["cause"])
            if bucket is None:
                continue
            carrier = carriers[bucket]
            pc = event["pc"]
            carrier[pc] = carrier.get(pc, 0) + event["cycles"]
        elif kind == "commit":
            pc = event["pc"]
            info = meta.get(pc)
            if info is None:
                info = meta[pc] = {
                    "sid": event.get("sid", -1),
                    "committed": 0,
                    "ops": set(),
                }
            info["committed"] += 1
            info["ops"].add(event.get("op", "?"))
            cycle = event["cycle"]
            if cycle != last_commit_cycle:
                last_commit_cycle = cycle
                base[pc] = base.get(pc, 0) + 1

    pcs = sorted(
        set(meta).union(*(carrier for carrier in carriers.values()))
    )
    rows: Dict[int, Dict[str, int]] = {
        pc: dict.fromkeys(STALL_BUCKETS, 0) for pc in pcs
    }
    unattributed = dict.fromkeys(STALL_BUCKETS, 0)
    for bucket in STALL_BUCKETS:
        total = buckets.get(bucket, 0)
        if not total:
            continue
        carrier = carriers[bucket]
        weights = [carrier.get(pc, 0) for pc in pcs]
        if not any(weights):
            unattributed[bucket] = total
            continue
        for pc, share in zip(pcs, largest_remainder(weights, total)):
            rows[pc][bucket] = share
    if any(unattributed.values()):
        rows[UNATTRIBUTED_PC] = unattributed

    # The invariant the whole module exists to provide; cheap, so it
    # is always on rather than test-only.
    for bucket in STALL_BUCKETS:
        total = sum(row[bucket] for row in rows.values())
        if total != buckets.get(bucket, 0):
            raise AssertionError(
                f"per-PC {bucket} sums to {total}, aggregate says "
                f"{buckets.get(bucket, 0)}"
            )
    return rows, meta


# -- alignment -------------------------------------------------------------


def align_streams(
    a: Sequence[Tuple],
    b: Sequence[Tuple],
    anchor: int = DEFAULT_ANCHOR,
    window: int = DEFAULT_WINDOW,
) -> Dict:
    """Anchor-and-resync alignment of two committed key streams.

    ``a`` and ``b`` are sequences of hashable keys (``(pc, op)``
    tuples).  Returns ``{"pairs": [(ia, ib), ...], "a_only": [...],
    "b_only": [...], "resyncs": n}`` with indices into the inputs.
    Greedy: on a mismatch, the smallest total skip ``(da, db)`` (ties:
    smaller ``da``) after which ``anchor`` keys match is taken; if no
    resync exists within ``window``, both tails go one-sided.
    """
    na, nb = len(a), len(b)
    ia = ib = 0
    pairs: List[Tuple[int, int]] = []
    a_only: List[int] = []
    b_only: List[int] = []
    resyncs = 0

    def anchored(i: int, j: int) -> bool:
        # Anchor match, truncated at stream tails so resyncing just
        # before the end is still possible.
        span = min(anchor, na - i, nb - j)
        if span <= 0:
            return False
        for k in range(span):
            if a[i + k] != b[j + k]:
                return False
        return True

    while ia < na and ib < nb:
        if a[ia] == b[ib]:
            pairs.append((ia, ib))
            ia += 1
            ib += 1
            continue
        found = None
        for radius in range(1, window + 1):
            for da in range(radius + 1):
                db = radius - da
                if ia + da <= na and ib + db <= nb and anchored(
                    ia + da, ib + db
                ):
                    found = (da, db)
                    break
            if found is not None:
                break
        if found is None:
            break
        da, db = found
        a_only.extend(range(ia, ia + da))
        b_only.extend(range(ib, ib + db))
        ia += da
        ib += db
        resyncs += 1
    a_only.extend(range(ia, na))
    b_only.extend(range(ib, nb))
    return {
        "pairs": pairs,
        "a_only": a_only,
        "b_only": b_only,
        "resyncs": resyncs,
    }


def _delta_timeline(
    commits_a: Sequence[Dict],
    commits_b: Sequence[Dict],
    pairs: Sequence[Tuple[int, int]],
    width: int = 60,
) -> List[int]:
    """Cycle-delta over aligned commits, downsampled to ``width``.

    Point ``k`` is the mean (integer) of ``(cycle_b - cycle_b0) -
    (cycle_a - cycle_a0)`` over its chunk of aligned pairs: how far
    mode B has fallen behind mode A by that point of the program.
    """
    if not pairs:
        return []
    a0 = commits_a[pairs[0][0]]["cycle"]
    b0 = commits_b[pairs[0][1]]["cycle"]
    deltas = [
        (commits_b[ib]["cycle"] - b0) - (commits_a[ia]["cycle"] - a0)
        for ia, ib in pairs
    ]
    if len(deltas) <= width:
        return deltas
    points = []
    n = len(deltas)
    for chunk in range(width):
        lo = chunk * n // width
        hi = (chunk + 1) * n // width
        points.append(sum(deltas[lo:hi]) // (hi - lo))
    return points


# -- mode-vs-mode diff -----------------------------------------------------


def _serialize_rows(
    rows: Dict[int, Dict[str, int]], meta: Dict[int, Dict]
) -> List[Dict]:
    out = []
    for pc in sorted(rows):
        row = rows[pc]
        info = meta.get(pc, {})
        out.append(
            {
                "pc": pc,
                "sid": info.get("sid", -1),
                "ops": sorted(info.get("ops", ())),
                "committed": info.get("committed", 0),
                "buckets": {name: row[name] for name in STALL_BUCKETS},
                "total": sum(row.values()),
            }
        )
    return out


def _mode_section(root: Path, name: str, entry: Dict) -> Dict:
    events_file = entry.get("events_file")
    if not events_file:
        raise ValueError(
            f"mode {name!r} has no events_file in run.json — rerun "
            "`repro run` with --trace-out (accurate tier)"
        )
    path = root / events_file
    if not path.exists():
        raise FileNotFoundError(f"{path} listed in run.json is missing")
    events = read_jsonl(path)
    commits = committed_stream(events)
    check_commit_invariants(commits, entry.get("events_dropped", 0))
    rows, meta = per_pc_attribution(events, entry["buckets"])
    return {
        "commits": commits,
        "section": {
            "defense": entry.get("defense", name),
            "cycles": entry["cycles"],
            "committed": entry["committed"],
            "buckets": {
                bucket: entry["buckets"].get(bucket, 0)
                for bucket in STALL_BUCKETS
            },
            "events_emitted": entry.get("events_emitted", 0),
            "events_dropped": entry.get("events_dropped", 0),
            "commits_seen": len(commits),
            "per_pc": _serialize_rows(rows, meta),
        },
    }


def _one_sided_ops(
    commits: Sequence[Dict], indices: Sequence[int]
) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for index in indices:
        op = commits[index].get("op", "?")
        counts[op] = counts.get(op, 0) + 1
    return dict(sorted(counts.items()))


def build_trace_diff(
    run_dir: Union[str, Path],
    mode_a: str = "plain",
    mode_b: str = "rest-debug",
    run: Optional[Dict] = None,
    top: int = 20,
) -> Dict:
    """Build the ``trace-diff/v1`` artifact for two observed modes.

    ``run`` may carry the already-loaded ``run.json`` payload (the
    runner passes it in-memory before the file exists); otherwise it
    is read from ``run_dir``.
    """
    root = Path(run_dir)
    if run is None:
        run_path = root / "run.json"
        if not run_path.exists():
            raise FileNotFoundError(f"{run_path} not found")
        run = json.loads(run_path.read_text())
    if run.get("tier", "accurate") != "accurate":
        raise ValueError(
            "trace diff needs per-uop events; the fast tier records "
            "none — rerun with --tier accurate"
        )
    modes = run.get("modes", {})
    for name in (mode_a, mode_b):
        if name not in modes:
            raise ValueError(
                f"mode {name!r} not in run.json (has: "
                f"{', '.join(sorted(modes))})"
            )

    sides = {
        name: _mode_section(root, name, modes[name])
        for name in (mode_a, mode_b)
    }
    commits_a = sides[mode_a]["commits"]
    commits_b = sides[mode_b]["commits"]
    key = lambda e: (e["pc"], e.get("op", "?"))  # noqa: E731
    alignment = align_streams(
        [key(e) for e in commits_a], [key(e) for e in commits_b]
    )

    # Per-PC delta table over the union of PCs.
    by_pc_a = {r["pc"]: r for r in sides[mode_a]["section"]["per_pc"]}
    by_pc_b = {r["pc"]: r for r in sides[mode_b]["section"]["per_pc"]}
    delta_rows = []
    for pc in sorted(set(by_pc_a) | set(by_pc_b)):
        zero = {"buckets": dict.fromkeys(STALL_BUCKETS, 0), "total": 0,
                "sid": -1, "ops": [], "committed": 0}
        ra = by_pc_a.get(pc, zero)
        rb = by_pc_b.get(pc, zero)
        delta_rows.append(
            {
                "pc": pc,
                "sid": max(ra["sid"], rb["sid"]),
                "ops": sorted(set(ra["ops"]) | set(rb["ops"])),
                "a_total": ra["total"],
                "b_total": rb["total"],
                "delta": rb["total"] - ra["total"],
                "buckets": {
                    name: rb["buckets"][name] - ra["buckets"][name]
                    for name in STALL_BUCKETS
                },
            }
        )
    delta_rows.sort(key=lambda r: (-abs(r["delta"]), r["pc"]))

    entry_a = modes[mode_a]
    entry_b = modes[mode_b]
    artifact = {
        "format": TRACE_DIFF_FORMAT,
        "kind": "modes",
        "benchmark": run.get("benchmark"),
        "scale": run.get("scale"),
        "seed": run.get("seed"),
        "a": mode_a,
        "b": mode_b,
        "modes": {
            mode_a: sides[mode_a]["section"],
            mode_b: sides[mode_b]["section"],
        },
        "alignment": {
            "pairs": len(alignment["pairs"]),
            "a_only": len(alignment["a_only"]),
            "b_only": len(alignment["b_only"]),
            "resyncs": alignment["resyncs"],
            "a_only_ops": _one_sided_ops(
                commits_a, alignment["a_only"]
            ),
            "b_only_ops": _one_sided_ops(
                commits_b, alignment["b_only"]
            ),
        },
        "delta": {
            "cycles": entry_b["cycles"] - entry_a["cycles"],
            "buckets": {
                name: entry_b["buckets"].get(name, 0)
                - entry_a["buckets"].get(name, 0)
                for name in STALL_BUCKETS
            },
            "top_pcs": delta_rows[:top],
        },
        "timeline": {
            "points": _delta_timeline(
                commits_a, commits_b, alignment["pairs"]
            ),
            "pairs": len(alignment["pairs"]),
        },
    }
    return artifact


# -- fast-tier validation diff ---------------------------------------------

#: Signed-error histogram band edges (percent).
_ERROR_BANDS = (-50, -20, -10, -5, 5, 10, 20, 50)


def _band_label(lo, hi) -> str:
    if lo is None:
        return f"< {hi}%"
    if hi is None:
        return f">= {lo}%"
    return f"[{lo}%, {hi}%)"


def _error_distribution(errors_bp: List[int]) -> Dict:
    """Distribution summary of signed errors in basis points."""
    if not errors_bp:
        return {"blocks": 0}
    ordered = sorted(errors_bp)
    n = len(ordered)
    pct = lambda bp: bp / 100.0  # noqa: E731
    percentiles = {
        f"p{q}": pct(ordered[q * (n - 1) // 100])
        for q in (5, 25, 50, 75, 95)
    }
    edges = (None,) + _ERROR_BANDS + (None,)
    histogram = {}
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        count = sum(
            1
            for bp in ordered
            if (lo is None or bp >= lo * 100)
            and (hi is None or bp < hi * 100)
        )
        histogram[_band_label(lo, hi)] = count
    return {
        "blocks": n,
        "mean_abs_pct": round(
            sum(abs(bp) for bp in ordered) / (100.0 * n), 2
        ),
        **{k: round(v, 2) for k, v in percentiles.items()},
        "histogram": histogram,
    }


def build_fast_tier_diff(
    benchmark: str = "xalancbmk",
    mode: str = "rest-debug",
    scale: float = 0.5,
    seed: int = 1234,
    top: int = 12,
) -> Dict:
    """Score the fast tier's per-block cost table cycle-accurately.

    Regenerates the (deterministic) trace for one benchmark/mode cell,
    asks :meth:`repro.fasttier.engine.FastTierEngine.score_blocks` for
    the corrected per-block predictions, measures every block with
    ``run_attributed`` over the *whole* trace, and reports the
    per-block prediction-error distribution plus the worst-predicted
    blocks — turning the fast tier's ±10% end-to-end bound into a
    distribution over blocks.  Only post-slice blocks are scored: the
    slice is measured, not predicted.
    """
    from repro.fasttier.engine import Q, DECLARED_TOLERANCE, FastTierEngine
    from repro.harness.bench import bench_specs
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import build_defense, make_trace_machine
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.spec import profile_by_name

    specs = bench_specs()
    if mode not in specs:
        raise ValueError(
            f"unknown mode {mode!r}; known: {', '.join(specs)}"
        )
    spec = specs[mode]
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)
    machine = make_trace_machine(spec)
    defense = build_defense(machine, spec)
    SyntheticWorkload(
        profile,
        defense,
        seed=config.seed,
        scale=config.scale,
        alloc_intensity=config.alloc_intensity,
    ).run()
    trace = machine.take_trace()

    engine = FastTierEngine()  # private memo; scoring is a pure pass
    score = engine.score_blocks(trace, spec, config)

    scored = [r for r in score["rows"] if not r["in_slice"]]
    errors_bp: List[int] = []
    worst: List[Dict] = []
    measured_post = predicted_post_q = 0
    for row in scored:
        measured = row["measured"]
        predicted_q = row["predicted_q"]
        measured_post += measured
        predicted_post_q += predicted_q
        if measured <= 0:
            continue
        bp = (predicted_q - measured * Q) * 10000 // (measured * Q)
        errors_bp.append(bp)
        worst.append(
            {
                "index": row["index"],
                "start": row["start"],
                "end": row["end"],
                "shape": row["shape"],
                "path": row["path"],
                "measured_cycles": measured,
                "predicted_cycles": round(predicted_q / Q, 2),
                "error_pct": round(bp / 100.0, 2),
            }
        )
    worst.sort(
        key=lambda r: (
            -abs(r["predicted_cycles"] - r["measured_cycles"]),
            r["index"],
        )
    )
    predicted_post = predicted_post_q // Q
    divergence_pct = (
        round(
            100.0 * (predicted_post - measured_post) / measured_post, 2
        )
        if measured_post
        else 0.0
    )
    return {
        "format": TRACE_DIFF_FORMAT,
        "kind": "fast-tier",
        "benchmark": benchmark,
        "mode": mode,
        "scale": scale,
        "seed": seed,
        "blocks": {
            "total": score["n_blocks"],
            "slice": score["n_slice_blocks"],
            "scored": len(scored),
            "model_path": sum(
                1 for r in scored if r["path"] == "model"
            ),
        },
        "end_to_end": {
            "measured_post_slice_cycles": measured_post,
            "predicted_post_slice_cycles": predicted_post,
            "divergence_pct": divergence_pct,
            "measured_total_cycles": score["measured_cycles"],
            "declared_tolerance_pct": DECLARED_TOLERANCE * 100.0,
        },
        "error_pct": _error_distribution(errors_bp),
        "worst_blocks": worst[:top],
    }


# -- artifact IO and rendering ---------------------------------------------


def write_trace_diff(artifact: Dict, path: Union[str, Path]) -> None:
    """Write the artifact canonically (sorted keys, trailing newline)."""
    Path(path).write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def _signed(value: Union[int, float]) -> str:
    return f"+{value:,}" if value > 0 else f"{value:,}"


def _pc_label(pc: int) -> str:
    return "(unattributed)" if pc == UNATTRIBUTED_PC else f"0x{pc:08x}"


def _delta_bar(value: int, peak: int, width: int = 20) -> str:
    if peak <= 0 or not value:
        return ""
    cells = max(1, abs(value) * width // peak)
    return ("+" if value > 0 else "-") * cells


def render_diff_text(artifact: Dict) -> List[str]:
    """Render a ``kind == "modes"`` artifact as report/CLI lines."""
    a, b = artifact["a"], artifact["b"]
    ea = artifact["modes"][a]
    eb = artifact["modes"][b]
    lines = [
        f"trace diff — {a} vs {b} ({artifact['format']})",
        f"  cycles: {a} {ea['cycles']:,}  {b} {eb['cycles']:,}  "
        f"delta {_signed(artifact['delta']['cycles'])}",
    ]
    al = artifact["alignment"]
    inserted = ", ".join(
        f"{op} x{count}" for op, count in al["b_only_ops"].items()
    )
    lines.append(
        f"  alignment: {al['pairs']:,} paired, {al['a_only']:,} "
        f"{a}-only, {al['b_only']:,} {b}-only"
        + (f" ({inserted})" if inserted else "")
        + f", {al['resyncs']:,} resyncs"
    )
    deltas = artifact["delta"]["buckets"]
    peak = max((abs(v) for v in deltas.values()), default=0)
    lines.append("  delta by stall bucket:")
    for name in STALL_BUCKETS:
        value = deltas[name]
        if not value:
            continue
        lines.append(
            f"    {BUCKET_LABELS[name]:<10} {_signed(value):>12}  "
            f"{_delta_bar(value, peak)}"
        )
    top = artifact["delta"]["top_pcs"]
    if top:
        lines.append("  top delta PCs:")
        lines.append(
            f"    {'pc':<14} {'sid':>5} {'ops':<14} "
            f"{a:>12} {b:>12} {'delta':>12}  dominant"
        )
        for row in top:
            buckets = row["buckets"]
            dominant = max(
                STALL_BUCKETS,
                key=lambda name: (abs(buckets[name]), name),
            )
            lines.append(
                f"    {_pc_label(row['pc']):<14} {row['sid']:>5} "
                f"{','.join(row['ops'])[:14]:<14} "
                f"{row['a_total']:>12,} {row['b_total']:>12,} "
                f"{_signed(row['delta']):>12}  "
                f"{BUCKET_LABELS[dominant]} "
                f"{_signed(buckets[dominant])}"
            )
    points = artifact["timeline"]["points"]
    if points:
        from repro.obs.report import sparkline

        lines.append(
            f"  {b} falling behind over time "
            f"({artifact['timeline']['pairs']:,} aligned commits):"
        )
        lines.append(f"    {sparkline(points)}")
    return lines


def render_fast_tier_text(artifact: Dict) -> List[str]:
    """Render a ``kind == "fast-tier"`` artifact as report/CLI lines."""
    blocks = artifact["blocks"]
    e2e = artifact["end_to_end"]
    dist = artifact["error_pct"]
    lines = [
        f"fast-tier validation — {artifact['mode']} @ "
        f"{artifact['benchmark']} scale {artifact['scale']} "
        f"({artifact['format']})",
        f"  blocks: {blocks['total']:,} total, {blocks['slice']:,} "
        f"calibration slice, {blocks['scored']:,} scored "
        f"({blocks['model_path']:,} via fitted model)",
    ]
    if not dist.get("blocks"):
        lines.append(
            "  nothing to score: the whole trace fit in the "
            "calibration slice (increase --scale)"
        )
        return lines
    lines.append(
        f"  post-slice cycles: measured "
        f"{e2e['measured_post_slice_cycles']:,}, predicted "
        f"{e2e['predicted_post_slice_cycles']:,} "
        f"({_signed(e2e['divergence_pct'])}%, declared tolerance "
        f"±{e2e['declared_tolerance_pct']:.0f}%)"
    )
    lines.append(
        f"  per-block error: mean |e| {dist['mean_abs_pct']}%  "
        f"p5 {dist['p5']}%  p25 {dist['p25']}%  p50 {dist['p50']}%  "
        f"p75 {dist['p75']}%  p95 {dist['p95']}%"
    )
    lines.append("  error histogram:")
    peak = max(dist["histogram"].values(), default=0)
    for band, count in dist["histogram"].items():
        if not count:
            continue
        bar = "#" * max(1, count * 30 // peak) if peak else ""
        lines.append(f"    {band:<12} {count:>6,}  {bar}")
    worst = artifact["worst_blocks"]
    if worst:
        lines.append("  worst-predicted blocks (by absolute cycles):")
        lines.append(
            f"    {'block':>6} {'uops':>11} {'path':<6} "
            f"{'measured':>10} {'predicted':>11} {'error':>8}"
        )
        for row in worst:
            span = f"{row['start']}..{row['end']}"
            lines.append(
                f"    {row['index']:>6} {span:>11} {row['path']:<6} "
                f"{row['measured_cycles']:>10,} "
                f"{row['predicted_cycles']:>11,.1f} "
                f"{_signed(row['error_pct']):>7}%"
            )
    return lines
