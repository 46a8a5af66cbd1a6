import math

import numpy as np
import pytest

from ladderforge import bd_metrics, dataset, ladder
from ladderforge.bd_metrics import RqCurve
from ladderforge.errors import DegenerateCurve, SchemaError


def hermite_values(xs, ys, grid):
    """The interpolant at grid points inside the knots, from its knot slopes.

    The oracle for pchip_integrate: the cubic Hermite basis evaluated
    directly, a separate path from the package's closed-form antiderivatives.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    m = bd_metrics.pchip_slopes(xs, ys)
    i = np.clip(np.searchsorted(xs, grid, side="right") - 1, 0, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    t = (grid - xs[i]) / h
    return ((2 * t**3 - 3 * t**2 + 1) * ys[i] + (t**3 - 2 * t**2 + t) * h * m[i]
            + (-2 * t**3 + 3 * t**2) * ys[i + 1] + (t**3 - t**2) * h * m[i + 1])


def trapezoid_integral(xs, ys, lo, hi, n=100_001):
    """Dense-grid oracle for the interpolant's integral."""
    grid = np.linspace(lo, hi, n)
    vals = hermite_values(xs, ys, grid)
    dx = (hi - lo) / (n - 1)
    return dx * (vals[0] / 2 + vals[1:-1].sum() + vals[-1] / 2)


def monotone_curve(rng, n=8, q0=20.0):
    rates = np.cumsum(rng.uniform(0.3, 1.0, size=n)) + 19.0  # log2 bps
    quals = q0 + np.cumsum(rng.uniform(1.0, 8.0, size=n))
    return RqCurve(tuple(rates), tuple(quals))


def curve_from_bitrates(bitrates, qualities):
    return RqCurve.from_points(zip(bitrates, qualities))


# ---------------------------------------------------------------------------
# knot slopes
# ---------------------------------------------------------------------------

def test_linear_data_reproduced_everywhere():
    xs = np.array([0.0, 0.7, 1.1, 2.9, 4.0])
    ys = 3.25 * xs - 1.5
    assert np.allclose(bd_metrics.pchip_slopes(xs, ys), 3.25, atol=1e-12)
    for lo, hi in ((0.0, 4.0), (0.3, 0.9), (1.5, 3.7)):
        line = 3.25 * (hi * hi - lo * lo) / 2 - 1.5 * (hi - lo)
        assert bd_metrics.pchip_integrate(xs, ys, lo, hi) == pytest.approx(line, abs=1e-12)


def test_monotone_data_gives_monotone_interpolant():
    # Fritsch-Carlson: slopes of the data's sign within three times each
    # neighbouring secant keep every cubic piece monotone
    rng = np.random.default_rng(3)
    for _ in range(10):
        xs = np.cumsum(rng.uniform(0.2, 1.5, size=7))
        ys = np.cumsum(rng.uniform(0.0, 3.0, size=7))
        m = bd_metrics.pchip_slopes(xs, ys)
        secants = np.diff(ys) / np.diff(xs)
        assert np.all(m >= 0.0)
        assert np.all(m[:-1] <= 3 * secants + 1e-12) and np.all(m[1:] <= 3 * secants + 1e-12)
        vals = hermite_values(xs, ys, np.linspace(xs[0], xs[-1], 1000))
        assert np.all(np.diff(vals) >= -1e-12)


def test_interpolant_stays_between_knots_on_wiggly_data():
    xs = np.arange(6.0)
    ys = np.array([0.0, 5.0, 1.0, 1.0, 8.0, 2.0])
    m = bd_metrics.pchip_slopes(xs, ys)
    # one-sided secants at the ends, zero at the extrema and the flat step
    assert m.tolist() == [5.0, 0.0, 0.0, 0.0, 0.0, -6.0]
    for i in range(5):
        vals = hermite_values(xs, ys, np.linspace(xs[i], xs[i + 1], 200))
        mean = bd_metrics.pchip_integrate(xs, ys, xs[i], xs[i + 1]) / (xs[i + 1] - xs[i])
        lo, hi = min(ys[i], ys[i + 1]), max(ys[i], ys[i + 1])
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)
        assert lo - 1e-12 <= mean <= hi + 1e-12


def test_slopes_capped_at_three_times_the_smaller_secant():
    # secants 1 and 100: their mean 50.5 is capped at 3
    m = bd_metrics.pchip_slopes([0.0, 1.0, 2.0], [0.0, 1.0, 101.0])
    assert m.tolist() == [1.0, 3.0, 100.0]
    m = bd_metrics.pchip_slopes([0.0, 1.0, 2.0], [0.0, -1.0, -101.0])
    assert m.tolist() == [-1.0, -3.0, -100.0]


def test_unsorted_abscissa_rejected():
    with pytest.raises(SchemaError, match="strictly increasing"):
        bd_metrics.pchip_slopes([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(SchemaError, match="strictly increasing"):
        bd_metrics.pchip_integrate([0.0, 0.0, 1.0], [0.0, 1.0, 2.0], 0.0, 0.5)


def test_single_point_rejected():
    with pytest.raises(DegenerateCurve):
        bd_metrics.pchip_slopes([1.0], [1.0])
    with pytest.raises(DegenerateCurve):
        bd_metrics.pchip_integrate([1.0], [1.0], 1.0, 1.0)


def test_two_points_interpolate_linearly():
    assert bd_metrics.pchip_slopes([0.0, 2.0], [10.0, 20.0]).tolist() == [5.0, 5.0]
    # the line 10 + 5x over [0, 0.5]: 5 + 0.625
    assert bd_metrics.pchip_integrate([0.0, 2.0], [10.0, 20.0], 0.0, 0.5) == pytest.approx(
        5.625, abs=1e-12)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_linear_integral_closed_form():
    xs = [0.0, 1.0, 3.0]
    ys = [2.0, 4.0, 8.0]  # y = 2x + 2
    got = bd_metrics.pchip_integrate(xs, ys, 0.5, 2.5)
    # integral of 2x + 2 over [0.5, 2.5]: (x^2 + 2x) evaluates to 11.25 - 1.25
    assert got == pytest.approx(10.0, abs=1e-12)


def test_integral_matches_dense_trapezoid_oracle():
    rng = np.random.default_rng(17)
    for k in range(8):
        xs = np.cumsum(rng.uniform(0.3, 1.2, size=9))
        # monotone, then wiggly values with local extrema
        ys = np.cumsum(rng.uniform(0.5, 4.0, size=9)) if k < 5 else rng.normal(0.0, 5.0, size=9)
        span = xs[-1] - xs[0]
        # inside the knots, knot to knot, and within a single interval
        for lo, hi in ((xs[0] + 0.3 * span, xs[0] + 0.9 * span), (xs[2], xs[6]),
                       (xs[4] + 0.1 * (xs[5] - xs[4]), xs[4] + 0.8 * (xs[5] - xs[4]))):
            exact = bd_metrics.pchip_integrate(xs, ys, lo, hi)
            approx = trapezoid_integral(xs, ys, lo, hi)
            assert exact == pytest.approx(approx, abs=1e-6)


def test_integral_degenerate_and_bad_bounds():
    xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]
    assert bd_metrics.pchip_integrate(xs, ys, 1.3, 1.3) == 0.0
    # an empty interval is +0.0, not the -0.0 that falling negative values sum to
    assert math.copysign(1.0, bd_metrics.pchip_integrate([0.0, 1.0], [-1.0, -2.0], 0.5, 0.5)) == 1.0
    with pytest.raises(ValueError):
        bd_metrics.pchip_integrate(xs, ys, 1.5, 0.5)
    with pytest.raises(SchemaError, match="integration bounds"):
        bd_metrics.pchip_integrate(xs, ys, -0.5, 1.0)


def test_integral_spanning_many_knots_additive():
    rng = np.random.default_rng(21)
    xs = np.cumsum(rng.uniform(0.5, 1.0, size=6))
    ys = np.cumsum(rng.uniform(0.5, 2.0, size=6))
    whole = bd_metrics.pchip_integrate(xs, ys, xs[0], xs[-1])
    mid = float(xs[2] + 0.37)
    left = bd_metrics.pchip_integrate(xs, ys, xs[0], mid)
    right = bd_metrics.pchip_integrate(xs, ys, mid, xs[-1])
    assert whole == pytest.approx(left + right, abs=1e-10)


# ---------------------------------------------------------------------------
# RqCurve construction
# ---------------------------------------------------------------------------

def test_dominated_points_removed():
    curve = curve_from_bitrates(
        [1e6, 2e6, 3e6, 4e6],
        [50.0, 45.0, 60.0, 70.0],  # the 2 Mbps point is dominated
    )
    assert len(curve.log_rates) == 3
    assert curve.qualities == (50.0, 60.0, 70.0)


def test_equal_rate_keeps_higher_quality():
    curve = curve_from_bitrates([1e6, 1e6, 2e6], [40.0, 55.0, 60.0])
    assert curve.qualities == (55.0, 60.0)


def test_monotone_input_unchanged():
    bitrates = [1e6, 2e6, 4e6, 8e6]
    qualities = [40.0, 55.0, 70.0, 80.0]
    curve = curve_from_bitrates(bitrates, qualities)
    assert curve.qualities == tuple(qualities)
    assert curve.log_rates == tuple(math.log2(b) for b in bitrates)


def test_input_order_irrelevant():
    a = curve_from_bitrates([4e6, 1e6, 2e6], [70.0, 40.0, 55.0])
    b = curve_from_bitrates([1e6, 2e6, 4e6], [40.0, 55.0, 70.0])
    assert a == b


def test_all_dominated_is_degenerate():
    with pytest.raises(DegenerateCurve):
        curve_from_bitrates([1e6, 2e6, 3e6], [60.0, 50.0, 40.0])
    with pytest.raises(DegenerateCurve):
        curve_from_bitrates([1e6], [60.0])


def test_nonpositive_bitrate_rejected():
    with pytest.raises(DegenerateCurve):
        curve_from_bitrates([0.0, 1e6], [10.0, 20.0])


def test_curve_from_ladder():
    log = [
        dataset.EncodeRecord("v", 1280, 720, 32, 0.9e6, 55.0),
        dataset.EncodeRecord("v", 1920, 1080, 29, 2.1e6, 71.0),
    ]
    lad = ladder.realize_ladder(
        [(1280, 720), (1920, 1080)], [1e6, 2e6], log
    )
    curve = RqCurve.from_ladder(lad)
    assert curve.qualities == (55.0, 71.0)


# ---------------------------------------------------------------------------
# BD deltas
# ---------------------------------------------------------------------------

def test_identical_curves_zero_exactly():
    curve = monotone_curve(np.random.default_rng(5))
    assert bd_metrics.bd_rate(curve, curve) == 0.0
    assert bd_metrics.bd_quality(curve, curve) == 0.0


def test_double_rate_is_plus_hundred_percent():
    rng = np.random.default_rng(7)
    quals = 30.0 + np.cumsum(rng.uniform(2.0, 6.0, size=8))
    bitrates = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.0)
    anchor = curve_from_bitrates(bitrates, quals)
    test = curve_from_bitrates(2.0 * bitrates, quals)
    assert bd_metrics.bd_rate(test, anchor) == pytest.approx(100.0, abs=0.01)


def test_half_rate_is_minus_fifty_percent():
    rng = np.random.default_rng(9)
    quals = 30.0 + np.cumsum(rng.uniform(2.0, 6.0, size=8))
    bitrates = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.0)
    anchor = curve_from_bitrates(bitrates, quals)
    test = curve_from_bitrates(0.5 * bitrates, quals)
    assert bd_metrics.bd_rate(test, anchor) == pytest.approx(-50.0, abs=0.01)


def test_constant_quality_offset():
    rng = np.random.default_rng(11)
    quals = 30.0 + np.cumsum(rng.uniform(2.0, 6.0, size=8))
    bitrates = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.0)
    anchor = curve_from_bitrates(bitrates, quals)
    test = curve_from_bitrates(bitrates, quals + 5.0)
    assert bd_metrics.bd_quality(test, anchor) == pytest.approx(5.0, abs=1e-6)


def test_bd_quality_antisymmetric():
    rng = np.random.default_rng(13)
    a = monotone_curve(rng)
    b = monotone_curve(rng)
    assert bd_metrics.bd_quality(a, b) == pytest.approx(
        -bd_metrics.bd_quality(b, a), abs=1e-9
    )


def test_bd_rate_invariant_under_rate_scaling():
    rng = np.random.default_rng(15)
    quals_a = 30.0 + np.cumsum(rng.uniform(2.0, 5.0, size=8))
    quals_b = 28.0 + np.cumsum(rng.uniform(2.0, 5.0, size=8))
    rates_a = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.0)
    rates_b = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.3)
    base = bd_metrics.bd_rate(
        curve_from_bitrates(rates_a, quals_a), curve_from_bitrates(rates_b, quals_b)
    )
    for alpha in (0.125, 3.7, 1000.0):
        scaled = bd_metrics.bd_rate(
            curve_from_bitrates(alpha * rates_a, quals_a),
            curve_from_bitrates(alpha * rates_b, quals_b),
        )
        assert scaled == pytest.approx(base, abs=1e-9)


def test_bd_quality_matches_dense_numeric_oracle():
    # cubic-flavoured synthetic curves sampled on a ladder-like grid
    log_rates = np.linspace(18.0, 23.0, 11)
    u = (log_rates - 18.0) / 5.0
    qual_a = 30.0 + 55.0 * (3 * u**2 - 2 * u**3)
    qual_b = 25.0 + 60.0 * (3 * u**2 - 2 * u**3) * 0.9 + 4.0 * u
    test = RqCurve(tuple(log_rates), tuple(qual_a))
    anchor = RqCurve(tuple(log_rates), tuple(qual_b))
    got = bd_metrics.bd_quality(test, anchor)
    lo, hi = 18.0, 23.0
    oracle = (
        trapezoid_integral(log_rates, qual_a, lo, hi)
        - trapezoid_integral(log_rates, qual_b, lo, hi)
    ) / (hi - lo)
    assert got == pytest.approx(oracle, abs=1e-4)


def test_disjoint_quality_ranges_raise():
    a = curve_from_bitrates([1e6, 2e6], [10.0, 30.0])
    b = curve_from_bitrates([1e6, 2e6], [40.0, 80.0])
    with pytest.raises(DegenerateCurve, match="share no quality"):
        bd_metrics.bd_rate(a, b)
    with pytest.raises(DegenerateCurve, match="share no quality"):
        bd_metrics.compare_curves(a, b)


def test_compare_curves_bundles_both_metrics():
    rng = np.random.default_rng(19)
    quals = 30.0 + np.cumsum(rng.uniform(2.0, 6.0, size=8))
    bitrates = np.exp2(np.cumsum(rng.uniform(0.3, 0.8, size=8)) + 19.0)
    anchor = curve_from_bitrates(bitrates, quals)
    test = curve_from_bitrates(bitrates * 1.5, quals + 2.0)
    row = bd_metrics.compare_curves(test, anchor, "v", "test-vs-anchor")
    assert (row.video_id, row.pair) == ("v", "test-vs-anchor")
    assert row.bd_rate_percent == bd_metrics.bd_rate(test, anchor)
    assert row.bd_vmaf == bd_metrics.bd_quality(test, anchor)
    assert row.quality_lo < row.quality_hi
    assert row.log2_rate_lo < row.log2_rate_hi
    assert row.warnings == ""


def test_narrow_overlap_flagged():
    test = curve_from_bitrates([1e6, 2e6, 4e6, 8e6], [20.0, 45.0, 70.0, 88.0])
    anchor = curve_from_bitrates([6e6, 8e6], [85.0, 95.0])
    row = bd_metrics.compare_curves(test, anchor)
    assert any("test" in w and "quality" in w for w in row.warnings.split("; "))


# ---------------------------------------------------------------------------
# aggregation and report files
# ---------------------------------------------------------------------------

def result(rate, quality):
    return bd_metrics.ReportRow("v", "p", rate, quality, 0.0, 1.0, 0.0, 1.0)


def test_single_result_aggregate():
    stats = bd_metrics.aggregate([result(-12.5, 2.0)])
    assert stats["bd_rate_mean"] == -12.5 and stats["bd_rate_std"] == 0.0
    assert stats["bd_quality_mean"] == 2.0 and stats["bd_quality_std"] == 0.0


def test_two_point_aggregate_population_std():
    stats = bd_metrics.aggregate([result(-10.0, 1.0), result(-20.0, 3.0)])
    assert stats["bd_rate_mean"] == -15.0 and stats["bd_rate_std"] == 5.0
    assert stats["table_format"] == {"bd_rate": "-15/5", "bd_quality": "2/1"}
    assert stats["bd_quality_mean"] == 2.0 and stats["bd_quality_std"] == 1.0


def test_aggregate_matches_independent_recomputation():
    rng = np.random.default_rng(23)
    values = [result(float(r), float(q)) for r, q in rng.normal(0, 10, size=(40, 2))]
    stats = bd_metrics.aggregate(values)
    rates = np.array([v.bd_rate_percent for v in values])
    quals = np.array([v.bd_vmaf for v in values])
    assert stats["bd_rate_mean"] == pytest.approx(rates.mean(), abs=1e-12)
    assert stats["bd_rate_std"] == pytest.approx(rates.std(), abs=1e-12)
    assert stats["bd_quality_mean"] == pytest.approx(quals.mean(), abs=1e-12)
    assert stats["bd_quality_std"] == pytest.approx(quals.std(), abs=1e-12)


def test_empty_aggregate_rejected():
    with pytest.raises(SchemaError, match="no BD results"):
        bd_metrics.aggregate([])


def test_report_csv_round_trip(tmp_path):
    rows = [
        bd_metrics.ReportRow("vid-a", "predicted-vs-fixed", -12.0, 3.0, 40.0, 60.0, 19.0, 21.0,
                             "rate overlap covers 5.0% of the test curve"),
        bd_metrics.ReportRow("vid-b", "predicted-vs-fixed", warnings="curves share no quality interval"),
    ]
    path = tmp_path / "report.csv"
    path.write_text(bd_metrics.report_csv_text(rows))
    assert bd_metrics.parse_report_csv(path) == rows


def test_report_rejects_unknown_header(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(SchemaError):
        bd_metrics.parse_report_csv(path)
