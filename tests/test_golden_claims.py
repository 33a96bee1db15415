"""The paper's claims, asserted on the committed sweep artifacts.

Each check reads a scale-0.5 table in ``results/`` (written by
``python -m repro.experiments.run_all --scale 0.5``), so a regenerated
golden cannot silently break a paper claim.  Values are parsed as
committed (Figure 7/8 means to one decimal, deltas to two).  The
claims that need a fresh simulation at other seeds or configurations
live in ``benchmarks/test_paper_claims.py``.
"""

import json
import re
from pathlib import Path
from typing import Dict, List

import pytest

RESULTS = Path(__file__).resolve().parent.parent / "results"


def text(name: str) -> str:
    return (RESULTS / f"{name}.txt").read_text()


def table(name: str, title: str) -> List[Dict[str, str]]:
    """Rows of the ``format_table`` in ``results/<name>.txt`` whose
    title line starts with ``title``, as ``{header: cell}``.

    Columns are located by the first dashed rule after the title, under
    the header; a row is every following line laid out on those
    columns, so notes printed right after a table are not rows.
    """
    lines = text(name).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    at = next(
        i for i in range(start + 1, len(lines))
        if re.fullmatch(r"-+( +-+)*", lines[i])
    )
    header, rule = lines[at - 1], lines[at]
    spans = [match.span() for match in re.finditer(r"-+", rule)]
    headers = [header[a:b].strip() for a, b in spans]
    rows = []
    for line in lines[at + 1:]:
        if len(line) != len(rule) or any(
            line[b:b + 2] != "  " for _, b in spans[:-1]
        ):
            break
        rows.append({h: line[a:b].strip() for h, (a, b) in zip(headers, spans)})
    assert rows, f"no rows under {title!r} in {name}.txt"
    return rows


def by_first_column(rows: List[Dict[str, str]]) -> Dict[str, Dict[str, str]]:
    return {next(iter(row.values())): row for row in rows}


def weighted_means(name: str, title: str) -> Dict[str, float]:
    """``{column: WtdAriMean}`` of a Figure 7/8 table."""
    row = by_first_column(table(name, title))["WtdAriMean"]
    return {
        column: float(cell)
        for column, cell in row.items()
        if column != "benchmark"
    }


def pp(cell: str) -> float:
    """``"0.11 pp"`` -> ``0.11``."""
    assert cell.endswith(" pp"), cell
    return float(cell[: -len(" pp")])


@pytest.fixture(scope="module")
def fig7():
    return weighted_means("fig7", "Figure 7:")


@pytest.fixture(scope="module")
def fig8():
    return weighted_means("fig8", "Figure 8:")


class TestFigure7:
    def test_secure_is_few_percent_far_below_asan(self, fig7):
        assert fig7["Secure Full"] < 8.0
        assert fig7["ASan"] > 5 * max(fig7["Secure Full"], 1.0)

    def test_secure_below_debug_below_asan(self, fig7):
        assert fig7["Secure Full"] < fig7["Debug Full"] < fig7["ASan"]

    def test_full_tracks_heap(self, fig7):
        assert abs(fig7["Secure Full"] - fig7["Secure Heap"]) < 1.5

    def test_primitive_is_nearly_free(self, fig7):
        assert abs(fig7["Secure Full"] - fig7["PerfectHW Full"]) < 1.0


class TestFigure8:
    @pytest.mark.parametrize("scope", ["Full", "Heap"])
    def test_width_barely_matters(self, fig8, scope):
        widths = [fig8[f"{width} {scope}"] for width in (16, 32, 64)]
        assert max(widths) - min(widths) < 5.0
        assert fig8[f"64 {scope}"] <= fig8[f"16 {scope}"]

    def test_every_width_is_low_overhead(self, fig8):
        assert len(fig8) == 6
        assert all(value < 12.0 for value in fig8.values())


class TestFigure3:
    """ASan's overhead breakdown on the in-order core."""

    COMPONENTS = (
        "Allocator",
        "Stack Frame Setup",
        "Memory Access Validation",
        "API Intercept",
    )

    @pytest.fixture(scope="class")
    def parts(self):
        rows = by_first_column(table("fig3", "Figure 3:"))
        return {
            benchmark: {c: float(row[c]) for c in self.COMPONENTS}
            for benchmark, row in rows.items()
        }

    def test_validation_is_the_largest_component_everywhere(self, parts):
        """"The most persistent and grievous source of overhead"."""
        assert len(parts) == 12
        for benchmark, components in parts.items():
            largest = max(components, key=components.get)
            assert largest == "Memory Access Validation", benchmark

    @pytest.mark.parametrize("heavy", ["gcc", "xalancbmk"])
    @pytest.mark.parametrize("light", ["lbm", "sjeng"])
    def test_allocator_weighs_on_allocation_heavy_benchmarks(
        self, parts, heavy, light
    ):
        assert parts[heavy]["Allocator"] >= parts[light]["Allocator"]

    def test_every_total_is_a_real_slowdown(self, parts):
        assert all(sum(c.values()) > 10.0 for c in parts.values())


class TestTable1:
    def test_every_action_conforms(self):
        rows = table("table1", "Table I conformance")
        assert len(rows) == 14
        assert all(row["Observed"].startswith("CONFORMS") for row in rows)
        assert "VIOLATION" not in text("table1")
        assert "ERROR" not in text("table1")


class TestTable2:
    @pytest.mark.parametrize(
        "fragment",
        [
            "2 GHz",
            "192-entry ROB",
            "64kB, 8-way, 2 cycles",
            "2MB, 16-way, 20 cycles",
            "DDR3, 800 MHz",
            "token detector",
        ],
    )
    def test_configuration_matches_the_paper(self, fragment):
        assert fragment in text("table2")


class TestTable3:
    def test_rest_row_matches_the_paper(self):
        rest = by_first_column(table("table3", "Table III:"))["REST"]
        assert rest["Spatial"] == "Linear"
        assert rest["Temporal"] == "Until realloc"
        assert rest["Shadow"] == "no"
        assert rest["Composable"] == "yes"

    def test_implemented_system_validates_the_rest_row(self):
        body = text("table3")
        assert "spatial protection:  Linear" in body
        assert "temporal protection: Until realloc" in body
        assert "composability:       yes" in body
        assert "INCONSISTENT" not in body

    def test_cited_prior_work_is_tabulated(self):
        rows = by_first_column(table("table3", "Table III:"))
        for scheme in ("Hardbound", "Watchdog", "CHERI", "SafeMem", "REST"):
            assert scheme in rows


class TestSecurity:
    def test_every_analysis_is_present(self):
        body = text("security")
        for title in (
            "Measured detection coverage",
            "Quarantine budget",
            "Token width tradeoffs",
        ):
            assert title in body

    def test_documented_misses_are_named(self):
        misses = next(
            line for line in text("security").splitlines()
            if line.startswith("REST's misses")
        )
        assert "targeted_corruption" in misses


class TestMemoryOverhead:
    def test_suite_total_and_no_shadow_space(self):
        rows = by_first_column(table("memoverhead", "Heap memory overhead"))
        assert "TOTAL" in rows
        # REST keeps metadata in place: zero shadow bytes.
        assert "0 shadow bytes" in text("memoverhead")


class TestInText:
    """Section VI-B's numbers, not only its row labels."""

    @pytest.fixture(scope="class")
    def xalanc(self):
        return by_first_column(table("intext", "Section VI-B"))

    @pytest.fixture(scope="class")
    def deltas(self):
        rows = by_first_column(table("intext", "Stack-protection cost"))
        return {name: pp(row["measured"]) for name, row in rows.items()}

    def test_debug_blocks_the_rob_an_order_of_magnitude_more(self, xalanc):
        row = xalanc["ROB blocked-by-store cycles"]
        assert float(row["ratio"].rstrip("x")) >= 10
        assert int(row["debug"]) >= 10 * int(row["secure"])

    def test_token_traffic_at_memory_is_negligible(self, xalanc):
        row = xalanc["tokens/kilo-instr at L2/mem interface"]
        assert float(row["secure"]) < 0.1
        assert float(row["debug"]) < 0.1

    def test_full_tracks_heap(self, deltas):
        assert abs(deltas["Secure Full - Secure Heap"]) < 1.5

    @pytest.mark.parametrize("scope", ["Full", "Heap"])
    def test_primitive_is_nearly_free(self, deltas, scope):
        assert abs(deltas[f"Secure {scope} - PerfectHW {scope}"]) < 1.0


class TestManifest:
    def test_manifest_lists_exactly_the_committed_sweep_artifacts(self):
        """Every ``.txt`` plus the two JSON sweep artifacts; the other
        JSON files in ``results/`` are goldens of other commands."""
        manifest = json.loads((RESULTS / "manifest.json").read_text())
        files = {
            record["file"] for record in manifest["experiments"].values()
        }
        committed = {path.name for path in RESULTS.glob("*.txt")}
        committed |= {"stalls.json", "defensezoo.json"}
        assert files == committed
        assert manifest["scale"] == 0.5
        assert all(
            record["status"] == "ok"
            for record in manifest["experiments"].values()
        )
