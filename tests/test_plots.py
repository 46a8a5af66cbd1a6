import math
import re

import numpy as np
import pytest

from ladderforge import plots
from ladderforge.errors import SchemaError


def fd_bin_count_oracle(values):
    """Straight reimplementation of the binning rule."""
    v = np.sort(np.asarray(values, dtype=float))
    iqr = np.percentile(v, 75) - np.percentile(v, 25)
    width = 2 * iqr / len(v) ** (1 / 3)
    if width <= 0:
        width = (v[-1] - v[0]) / max(1, math.isqrt(len(v)))
    return max(1, math.ceil((v[-1] - v[0]) / width))


def test_bin_count_matches_rule():
    rng = np.random.default_rng(0)
    for _ in range(10):
        values = rng.normal(0, 5, size=int(rng.integers(20, 200)))
        bins = plots.freedman_diaconis_bins(values)
        assert len(bins) == fd_bin_count_oracle(values)


def test_bins_cover_data_and_counts_sum():
    rng = np.random.default_rng(1)
    values = rng.normal(-12, 6, size=150)
    bins = plots.freedman_diaconis_bins(values)
    assert bins[0].lo == values.min()
    assert bins[-1].hi == pytest.approx(values.max(), abs=1e-9)
    assert sum(b.count for b in bins) == len(values)
    for a, b in zip(bins, bins[1:]):
        assert a.hi == pytest.approx(b.lo, abs=1e-12)


def test_constant_values_single_bin():
    bins = plots.freedman_diaconis_bins([3.0] * 17)
    assert len(bins) == 1
    assert bins[0].count == 17
    assert bins[0].lo < 3.0 < bins[0].hi


def test_zero_iqr_fallback():
    # three distinct values but a zero interquartile range
    values = [0.0] * 40 + [10.0, -10.0]
    bins = plots.freedman_diaconis_bins(values)
    assert len(bins) >= 1
    assert sum(b.count for b in bins) == 42


def test_empty_values_rejected():
    with pytest.raises(SchemaError, match="no values"):
        plots.freedman_diaconis_bins([])
    with pytest.raises(SchemaError, match="no curves"):
        plots.hull_svg_text([], "t")


def test_histogram_csv_twin_mirrors_bins():
    values = [1.0, 2.0, 2.5, 9.0, 9.5, 3.0, 4.0]
    bins = plots.freedman_diaconis_bins(values)
    text = plots.histogram_csv_text(bins)
    lines = text.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == len(bins) + 1
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == len(values)


def test_histogram_svg_deterministic_and_has_bars():
    rng = np.random.default_rng(5)
    values = list(rng.normal(0, 1, size=60))
    bins = plots.freedman_diaconis_bins(values)
    a = plots.histogram_svg_text(bins, "BD-rate distribution", "percent")
    b = plots.histogram_svg_text(bins, "BD-rate distribution", "percent")
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")
    n_bars = a.count("<rect ") - 1  # one background rect
    assert n_bars == len(plots.freedman_diaconis_bins(values))


def test_hull_svg_one_polyline_per_curve():
    curves = [
        ("predicted", [(1e6, 40.0), (2e6, 55.0), (4e6, 70.0)]),
        ("fixed", [(1e6, 35.0), (2e6, 50.0), (4e6, 66.0)]),
        ("reference", [(1e6, 42.0), (2e6, 57.0), (4e6, 71.0)]),
    ]
    svg = plots.hull_svg_text(curves, "hulls")
    assert svg.count("<polyline ") == 3
    for label in ("predicted", "fixed", "reference"):
        assert label in svg
    assert "Mbps" in svg


def test_hull_curves_past_the_palette_are_dashed():
    curves = [(f"ladder{k}", [(1e6, 40.0 + k), (2e6, 50.0 + k)]) for k in range(8)]
    svg = plots.hull_svg_text(curves, "hulls")
    styles = r'stroke="(#[0-9a-f]{6})" stroke-width="[0-9.]+"( stroke-dasharray="[0-9 ]+")?/>'
    polylines = re.findall("<polyline .*?" + styles, svg)
    swatches = re.findall("<line .*?" + styles, svg)  # the axes are black, not #rrggbb
    assert len(polylines) == len(swatches) == 8
    assert polylines == swatches
    assert len(set(polylines)) == 8
    assert [dash for _, dash in polylines] == [""] * 6 + [' stroke-dasharray="4 3"'] * 2
    # six curves or fewer draw solid lines only, as before dashes existed
    assert "stroke-dasharray" not in plots.hull_svg_text(curves[:6], "hulls")


def test_hull_csv_twin():
    curves = [("a", [(1e6, 40.0), (2e6, 50.0)]), ("b", [(1e6, 45.0)])]
    text = plots.hull_csv_text(curves)
    lines = text.splitlines()
    assert lines[0] == "label,bitrate_bps,quality"
    assert len(lines) == 4
    assert lines[1].startswith("a,")
    assert lines[3].startswith("b,")


def test_titles_escaped():
    svg = plots.histogram_svg_text(plots.freedman_diaconis_bins([1.0, 2.0]), "a < b & c", "x")
    assert "a &lt; b &amp; c" in svg
