"""The paper's shape claims, asserted on the committed Figure 7/8 goldens.

``benchmarks/bench_fig7.py`` and ``bench_fig8.py`` assert these on a
fresh run; here they hold for the scale-0.5 tables in ``results/``, so
a regenerated golden cannot silently break a claim.  Each value is the
table's ``WtdAriMean`` row (one decimal, as committed).
"""

import re
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parent.parent / "results"


def weighted_means(name: str) -> dict:
    """``{column: WtdAriMean}`` parsed from ``results/<name>.txt``."""
    lines = (RESULTS / f"{name}.txt").read_text().splitlines()
    header = re.split(r"\s{2,}", lines[1].strip())
    row = next(line for line in lines if line.startswith("WtdAriMean"))
    cells = re.split(r"\s{2,}", row.strip())
    assert header[0] == "benchmark" and len(cells) == len(header)
    return {column: float(cell) for column, cell in zip(header[1:], cells[1:])}


@pytest.fixture(scope="module")
def fig7():
    return weighted_means("fig7")


@pytest.fixture(scope="module")
def fig8():
    return weighted_means("fig8")


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
