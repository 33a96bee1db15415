"""Render an observability report from a run or sweep directory.

``python -m repro report <dir>`` lands here.  Two directory shapes are
understood:

* an **observed-run directory** written by ``repro run``
  (:mod:`repro.obs.runner`): ``run.json`` plus per-mode samples /
  events / stats artifacts — rendered with stall waterfalls, interval
  sparklines, and event summaries;
* a **sweep directory** written by ``run_all`` /
  ``repro.experiments.run_all``: ``manifest.json`` plus the
  ``stalls.json`` artifact its stalls work unit produces — rendered
  with the per-defense stall waterfall and the sweep summary.

Both render to plain text (terminal friendly) or a self-contained HTML
file (inline CSS, no external assets) for artifact upload from CI.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.sampler import series
from repro.obs.stalls import BUCKET_LABELS, STALL_BUCKETS
from repro.obs.tracer import read_jsonl

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"
_BAR_WIDTH = 36


def sparkline(values: List[float], width: int = 60) -> str:
    """Unicode sparkline of a series, downsampled to ``width`` points."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket-mean downsample keeps spikes visible enough for a
        # report; the JSONL keeps full resolution for real analysis.
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
            / max(1, len(values[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)]))
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(values)
    steps = len(_SPARK) - 1
    return "".join(
        _SPARK[int((value - low) / span * steps + 0.5)] for value in values
    )


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(fraction * width))
    return "█" * filled + "·" * (width - filled)


def load_report_source(path: Union[str, Path]) -> Dict:
    """Classify a directory and load the data a report needs.

    Returns ``{"kind": "run"|"sweep"|"foundry", "dir": Path, ...}``;
    raises ``ValueError`` when the directory contains neither a
    ``run.json``, a ``manifest.json``/``stalls.json`` pair, nor a
    ``foundry_matrix.json``.
    """
    root = Path(path)
    run_json = root / "run.json"
    if run_json.is_file():
        return {
            "kind": "run",
            "dir": root,
            "run": json.loads(run_json.read_text()),
        }
    foundry_json = root / "foundry_matrix.json"
    if foundry_json.is_file():
        return {
            "kind": "foundry",
            "dir": root,
            "matrix": json.loads(foundry_json.read_text()),
        }
    stalls_json = root / "stalls.json"
    manifest_json = root / "manifest.json"
    if stalls_json.is_file() or manifest_json.is_file():
        # A degraded sweep may have quarantined the stalls experiment;
        # the manifest alone is still reportable.
        source = {"kind": "sweep", "dir": root}
        if stalls_json.is_file():
            source["stalls"] = json.loads(stalls_json.read_text())
        if manifest_json.is_file():
            source["manifest"] = json.loads(manifest_json.read_text())
        return source
    raise ValueError(
        f"{root} is neither an observed-run directory (run.json), a "
        "sweep directory (stalls.json from run_all), nor a foundry "
        "directory (foundry_matrix.json)"
    )


def _waterfall_lines(mode_name: str, entry: Dict) -> List[str]:
    cycles = entry.get("cycles", 0) or 1
    buckets = entry.get("buckets", {})
    lines = [
        f"{mode_name} — {entry.get('defense', mode_name)}: "
        f"{entry.get('cycles', 0):,} cycles, CPI {entry.get('cpi', 0.0)}"
    ]
    for name in STALL_BUCKETS:
        value = buckets.get(name, 0)
        fraction = value / cycles
        lines.append(
            f"  {BUCKET_LABELS[name]:>10s} {_bar(fraction)} "
            f"{100.0 * fraction:5.1f}%  ({value:,})"
        )
    return lines


def _sample_section(root: Path, entry: Dict) -> List[str]:
    samples_file = entry.get("samples_file")
    if not samples_file:
        return []
    if not (root / samples_file).is_file():
        # A partially copied or pruned run dir should still render —
        # note what is gone instead of failing or silently omitting.
        return [f"  samples: {samples_file} missing — section skipped"]
    samples = read_jsonl(root / samples_file)
    if not samples:
        return []
    lines = []
    for field, label in (
        ("ipc", "IPC"),
        ("rob", "ROB occupancy"),
        ("l1d_miss_rate", "L1-D miss rate"),
        ("token_ops", "token ops"),
    ):
        values = series(samples, field)
        if any(values):
            lines.append(f"  {label:>14s} {sparkline(values)}")
    last = samples[-1]
    lines.append(
        f"  {len(samples)} samples to cycle {last['cycle']:,} "
        f"(see {samples_file})"
    )
    return lines


def _event_section(root: Path, entry: Dict) -> List[str]:
    lines: List[str] = []
    events_file = entry.get("events_file")
    if events_file and not (root / events_file).is_file():
        lines.append(
            f"  events: {events_file} missing — raw trace unavailable"
        )
    counts = entry.get("event_counts")
    if not counts:
        return lines
    total = entry.get("events_emitted", sum(counts.values()))
    dropped = entry.get("events_dropped", 0)
    top = sorted(counts.items(), key=lambda item: -item[1])[:8]
    summary = ", ".join(f"{kind} {count:,}" for kind, count in top)
    lines.append(f"  events: {total:,} emitted ({dropped:,} beyond ring)")
    lines.append(f"  top kinds: {summary}")
    return lines


def _diff_section(root: Path) -> List[str]:
    """Render any ``trace-diff/v1`` artifacts found in a run dir."""
    lines: List[str] = []
    for path in sorted(root.glob("trace-diff*.json")):
        try:
            artifact = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            lines.extend(["", f"{path.name}: unreadable — skipped"])
            continue
        # Earlier versions also wrote a "fast-tier" kind; skip it.
        if (
            artifact.get("format") != "trace-diff/v1"
            or artifact.get("kind") != "modes"
        ):
            continue
        from repro.obs.diff import render_diff_text

        lines.append("")
        lines.extend(render_diff_text(artifact))
    return lines


def _fault_section(manifest: Dict) -> List[str]:
    """Resilience accounting for a degraded sweep (empty when clean)."""
    summary = manifest.get("fault")
    quarantine = manifest.get("quarantine") or {}
    if not summary and not quarantine:
        return []
    lines = [""]
    if summary:
        lines.append(
            "fault recovery: "
            f"{summary.get('retries', 0)} retries, "
            f"{summary.get('timeouts', 0)} timeouts, "
            f"{summary.get('crashes', 0)} crashes, "
            f"{summary.get('quarantined', 0)} quarantined"
        )
    for uid, entry in sorted(quarantine.items()):
        error = entry.get("error") or {}
        lines.append(
            f"  QUARANTINED {uid}: {error.get('type', '?')} after "
            f"{entry.get('attempts', '?')} attempt(s)"
        )
    return lines


def _defensezoo_section(root: Path) -> List[str]:
    """Defense-zoo page for sweep directories with defensezoo.json."""
    zoo_json = root / "defensezoo.json"
    if not zoo_json.is_file():
        return []
    from repro.experiments.defensezoo import render_text as render_zoo

    try:
        payload = json.loads(zoo_json.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    return ["", ""] + render_zoo(payload).splitlines()


def _fabric_section(root: Path) -> List[str]:
    """Lease-journal summary for a sweep that ran on the worker fabric.

    Empty for single-process runs; a ``fabric-events.jsonl`` dropped
    next to the manifest (the coordinator writes one per state dir,
    ``repro loadgen`` copies it into the chaos output) turns it on.
    """
    events_file = root / "fabric-events.jsonl"
    if not events_file.is_file():
        return []
    kinds: Dict[str, int] = {}
    per_worker: Dict[str, Dict[str, int]] = {}
    try:
        raw = events_file.read_text()
    except OSError:
        return [f"  fabric: {events_file} unreadable — section skipped"]
    for line in raw.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        kind = event.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        worker = event.get("worker")
        if worker:
            stats = per_worker.setdefault(worker, {})
            stats[kind] = stats.get(kind, 0) + 1
    lines = [
        "",
        "fabric: "
        f"{kinds.get('worker.join', 0)} join(s), "
        f"{kinds.get('lease.grant', 0)} leases granted, "
        f"{kinds.get('lease.redeem', 0)} redeemed, "
        f"{kinds.get('lease.revoke', 0)} revoked, "
        f"{kinds.get('worker.lost', 0)} worker(s) lost, "
        f"{kinds.get('lease.late', 0)} late result(s)",
    ]
    for worker in sorted(per_worker):
        stats = per_worker[worker]
        lines.append(
            f"  {worker}: granted {stats.get('lease.grant', 0)}, "
            f"redeemed {stats.get('lease.redeem', 0)}, "
            f"revoked {stats.get('lease.revoke', 0)}, "
            f"lost {stats.get('worker.lost', 0)}"
        )
    return lines


def render_text(path: Union[str, Path]) -> str:
    """Render the report for a run/sweep/foundry directory as text."""
    source = load_report_source(path)
    root = source["dir"]
    out: List[str] = []
    if source["kind"] == "foundry":
        from repro.foundry.matrix import render_matrix_text

        return render_matrix_text(source["matrix"])
    if source["kind"] == "run":
        run = source["run"]
        out.append(
            f"REST observability report — {run['benchmark']} "
            f"(scale {run['scale']}, seed {run['seed']}, "
            f"interval {run['interval']} cycles)"
        )
        out.append("=" * 72)
        for mode_name, entry in run["modes"].items():
            out.append("")
            out.extend(_waterfall_lines(mode_name, entry))
            out.extend(_sample_section(root, entry))
            out.extend(_event_section(root, entry))
        out.extend(_diff_section(root))
    else:
        stalls = source.get("stalls")
        if stalls:
            out.append(
                f"REST sweep stall report — {stalls['benchmark']} "
                f"(scale {stalls['scale']}, seed {stalls['seed']})"
            )
            out.append("=" * 72)
            for mode_name, entry in stalls["modes"].items():
                out.append("")
                out.extend(_waterfall_lines(mode_name, entry))
        else:
            out.append(
                "REST sweep report (no stall profile — quarantined "
                "or not collected)"
            )
            out.append("=" * 72)
        manifest = source.get("manifest")
        if manifest:
            out.append("")
            out.append("sweep experiments:")
            for name, record in manifest.get("experiments", {}).items():
                status = record.get("status", "?")
                cached = " (cached)" if record.get("cached") else ""
                attempts = record.get("attempts", 1)
                retried = f" ({attempts} attempts)" if attempts > 1 else ""
                out.append(f"  {name:12s} {status}{cached}{retried}")
            out.extend(_fault_section(manifest))
        out.extend(_defensezoo_section(root))
        out.extend(_fabric_section(root))
    out.append("")
    return "\n".join(out)


# -- HTML ----------------------------------------------------------------

_BUCKET_COLORS = {
    "base": "#7a9e7e",
    "rob_store_blocked": "#c0504d",
    "iq_full": "#d78f4d",
    "lsq_full": "#d7c04d",
    "icache": "#6b8fc0",
    "mispredict": "#9b6bc0",
    "dram": "#5d5d7a",
    "other": "#a0a0a0",
}

_HTML_HEAD = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{title}</title><style>
body {{ font: 14px/1.5 -apple-system, "Segoe UI", sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #222; }}
h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 2rem; }}
.waterfall {{ display: flex; height: 1.6rem; border-radius: 4px;
             overflow: hidden; margin: .4rem 0; }}
.waterfall div {{ height: 100%; }}
.legend span {{ display: inline-block; margin-right: .9rem;
               font-size: .85rem; }}
.legend i {{ display: inline-block; width: .8rem; height: .8rem;
            border-radius: 2px; margin-right: .3rem;
            vertical-align: -1px; }}
table {{ border-collapse: collapse; font-size: .9rem; }}
td, th {{ padding: .15rem .7rem .15rem 0; text-align: right; }}
th {{ text-align: left; }}
.spark {{ font-family: monospace; white-space: pre; color: #456; }}
.muted {{ color: #888; font-size: .85rem; }}
</style></head><body>
"""


def _html_waterfall(entry: Dict) -> str:
    cycles = entry.get("cycles", 0) or 1
    buckets = entry.get("buckets", {})
    segments = []
    rows = []
    for name in STALL_BUCKETS:
        value = buckets.get(name, 0)
        percent = 100.0 * value / cycles
        if value:
            segments.append(
                f'<div style="width:{percent:.2f}%;background:'
                f'{_BUCKET_COLORS[name]}" title="{BUCKET_LABELS[name]} '
                f"{percent:.1f}%\"></div>"
            )
        rows.append(
            f"<tr><th>{BUCKET_LABELS[name]}</th>"
            f"<td>{value:,}</td><td>{percent:.1f}%</td></tr>"
        )
    return (
        f'<div class="waterfall">{"".join(segments)}</div>'
        f"<table><tr><th>bucket</th><td>cycles</td><td>share</td></tr>"
        f'{"".join(rows)}</table>'
    )


def _html_legend() -> str:
    items = "".join(
        f'<span><i style="background:{_BUCKET_COLORS[name]}"></i>'
        f"{BUCKET_LABELS[name]}</span>"
        for name in STALL_BUCKETS
    )
    return f'<p class="legend">{items}</p>'


def _html_foundry(matrix: Dict) -> List[str]:
    """Coverage-matrix page: family × defense grid with catch rates."""
    defenses = matrix["defenses"]
    parts = ["<h2>Detection coverage (per primitive family)</h2>"]
    header = "".join(f"<td><b>{_html.escape(d)}</b></td>" for d in defenses)
    rows = [f"<tr><th>family</th>{header}</tr>"]
    for family in matrix["families"]:
        cells = []
        for defense in defenses:
            cell = matrix["cells"][family][defense]
            total = cell["total"] or 1
            caught = cell["detected"]
            lethal = total - cell["clean"] - cell["false_positive"]
            if lethal:
                share = caught / lethal
                color = (
                    "#7a9e7e" if share >= 0.99
                    else "#d7c04d" if share > 0
                    else "#c0504d"
                )
                label = f"{caught}/{lethal}"
            else:  # benign family: green unless false positives
                color = "#c0504d" if cell["false_positive"] else "#7a9e7e"
                label = f"{cell['clean']} clean"
                if cell["false_positive"]:
                    label = f"{cell['false_positive']} false-pos"
            cells.append(
                f'<td style="background:{color};color:#fff;'
                f'text-align:center">{label}</td>'
            )
        rows.append(
            f"<tr><th>{_html.escape(family)}</th>{''.join(cells)}</tr>"
        )
    parts.append(f"<table>{''.join(rows)}</table>")
    parts.append(
        '<p class="muted">cells: detected / sound-oracle cases '
        "(benign families show clean runs; red = false positives)</p>"
    )
    parts.append("<h2>Detection latency (cycles of attack progress)</h2>")
    lat_rows = [
        "<tr><th>defense</th><td>n</td><td>min</td><td>p50</td>"
        "<td>p90</td><td>max</td></tr>"
    ]
    for defense in defenses:
        stats = matrix["latency"][defense]
        if stats["count"]:
            lat_rows.append(
                f"<tr><th>{_html.escape(defense)}</th>"
                f"<td>{stats['count']}</td><td>{stats['min']}</td>"
                f"<td>{stats['p50']}</td><td>{stats['p90']}</td>"
                f"<td>{stats['max']}</td></tr>"
            )
        else:
            lat_rows.append(
                f"<tr><th>{_html.escape(defense)}</th>"
                f'<td colspan="5" class="muted">no detections</td></tr>'
            )
    parts.append(f"<table>{''.join(lat_rows)}</table>")
    rest_fn = matrix["rest_false_negatives"]
    parts.append(
        f"<p>REST false negatives (sound-oracle cases missed): "
        f"<b>{rest_fn['total']}</b></p>"
    )
    if matrix["mispredictions"]:
        parts.append(
            f'<p style="color:#c0504d"><b>ORACLE MISPREDICTIONS: '
            f"{len(matrix['mispredictions'])}</b></p>"
        )
    else:
        parts.append('<p class="muted">oracle mispredictions: none</p>')
    return parts


def _html_diff(root: Path) -> List[str]:
    """HTML rendering of ``trace-diff/v1`` artifacts in a run dir.

    The mode diff gets a side-by-side bucket table and a top-delta-PC
    table.
    """
    parts: List[str] = []
    for path in sorted(root.glob("trace-diff*.json")):
        try:
            artifact = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            parts.append(
                f'<p class="muted">{_html.escape(path.name)}: '
                "unreadable — skipped</p>"
            )
            continue
        if (
            artifact.get("format") != "trace-diff/v1"
            or artifact.get("kind") != "modes"
        ):
            continue
        from repro.obs.diff import UNATTRIBUTED_PC

        a, b = artifact["a"], artifact["b"]
        ea, eb = artifact["modes"][a], artifact["modes"][b]
        parts.append(
            f"<h2>trace diff — {_html.escape(a)} vs {_html.escape(b)} "
            f'<span class="muted">delta '
            f"{artifact['delta']['cycles']:+,} cycles</span></h2>"
        )
        al = artifact["alignment"]
        parts.append(
            f'<p class="muted">alignment: {al["pairs"]:,} paired, '
            f"{al['a_only']:,} {_html.escape(a)}-only, "
            f"{al['b_only']:,} {_html.escape(b)}-only, "
            f"{al['resyncs']:,} resyncs</p>"
        )
        rows = [
            f"<tr><th>bucket</th><td>{_html.escape(a)}</td>"
            f"<td>{_html.escape(b)}</td><td>delta</td></tr>"
        ]
        for name in STALL_BUCKETS:
            va = ea["buckets"].get(name, 0)
            vb = eb["buckets"].get(name, 0)
            rows.append(
                f"<tr><th>{BUCKET_LABELS[name]}</th><td>{va:,}</td>"
                f"<td>{vb:,}</td><td>{vb - va:+,}</td></tr>"
            )
        parts.append(f"<table>{''.join(rows)}</table>")
        top = artifact["delta"]["top_pcs"]
        if top:
            rows = [
                f"<tr><th>pc</th><td>sid</td><td>ops</td>"
                f"<td>{_html.escape(a)}</td><td>{_html.escape(b)}</td>"
                f"<td>delta</td></tr>"
            ]
            for row in top:
                pc = row["pc"]
                label = (
                    "(unattributed)"
                    if pc == UNATTRIBUTED_PC
                    else f"0x{pc:08x}"
                )
                rows.append(
                    f"<tr><th>{label}</th><td>{row['sid']}</td>"
                    f"<td>{_html.escape(','.join(row['ops']))}</td>"
                    f"<td>{row['a_total']:,}</td>"
                    f"<td>{row['b_total']:,}</td>"
                    f"<td>{row['delta']:+,}</td></tr>"
                )
            parts.append("<h2>top delta PCs</h2>")
            parts.append(f"<table>{''.join(rows)}</table>")
        points = artifact["timeline"]["points"]
        if points:
            parts.append(
                f'<div class="spark">{_html.escape(sparkline(points))}'
                f'</div><p class="muted">{_html.escape(b)} cycle delta '
                f"over {artifact['timeline']['pairs']:,} aligned "
                "commits</p>"
            )
    return parts


def render_html(path: Union[str, Path]) -> str:
    """Render the report as one self-contained HTML page."""
    source = load_report_source(path)
    root = source["dir"]
    if source["kind"] == "foundry":
        matrix = source["matrix"]
        title = (
            f"REST foundry coverage matrix — seed {matrix['seed']}, "
            f"{matrix['cases']} cases"
        )
        parts = [_HTML_HEAD.format(title=_html.escape(title))]
        parts.append(f"<h1>{_html.escape(title)}</h1>")
        parts.append(
            f'<p class="muted">corpus digest '
            f"{_html.escape(matrix['corpus_digest'][:16])}, defenses: "
            f"{_html.escape(', '.join(matrix['defenses']))}</p>"
        )
        parts.extend(_html_foundry(matrix))
        parts.append("</body></html>\n")
        return "\n".join(parts)
    if source["kind"] == "run":
        data = source["run"]
        title = (
            f"REST observability report — {data['benchmark']} "
            f"(scale {data['scale']})"
        )
    else:
        data = source.get("stalls") or {"modes": {}}
        title = (
            f"REST sweep stall report — {data['benchmark']} "
            f"(scale {data['scale']})"
            if data.get("modes")
            else "REST sweep report (no stall profile)"
        )
    parts = [_HTML_HEAD.format(title=_html.escape(title))]
    parts.append(f"<h1>{_html.escape(title)}</h1>")
    parts.append(_html_legend())
    for mode_name, entry in data["modes"].items():
        parts.append(
            f"<h2>{_html.escape(mode_name)} — "
            f"{_html.escape(str(entry.get('defense', mode_name)))} "
            f'<span class="muted">{entry.get("cycles", 0):,} cycles, '
            f"CPI {entry.get('cpi', 0.0)}</span></h2>"
        )
        parts.append(_html_waterfall(entry))
        if source["kind"] == "run":
            for line in _sample_section(root, entry):
                parts.append(
                    f'<div class="spark">{_html.escape(line)}</div>'
                )
            for line in _event_section(root, entry):
                parts.append(
                    f'<div class="muted">{_html.escape(line)}</div>'
                )
    if source["kind"] == "run":
        parts.extend(_html_diff(root))
    if source["kind"] == "sweep" and source.get("manifest"):
        for line in _fault_section(source["manifest"]):
            if line:
                parts.append(f'<div class="muted">{_html.escape(line)}</div>')
    if source["kind"] == "sweep":
        zoo = _defensezoo_section(root)
        if zoo:
            parts.append("<h2>Defense zoo (REST vs MTE vs ASan)</h2>")
            parts.append(
                '<div class="spark">'
                + "\n".join(_html.escape(line) for line in zoo if line)
                + "</div>"
            )
        for line in _fabric_section(root):
            if line:
                parts.append(f'<div class="muted">{_html.escape(line)}</div>')
    parts.append("</body></html>\n")
    return "\n".join(parts)


def write_report(
    path: Union[str, Path],
    out: Optional[Union[str, Path]] = None,
    html: bool = False,
) -> str:
    """Render and optionally write the report; returns the text."""
    text = render_html(path) if html else render_text(path)
    if out is not None:
        Path(out).write_text(text)
    return text
