"""Bjontegaard deltas between rate-quality curves.

BD-rate is the mean gap between the curves' log2 bitrate as a function of
quality over their shared quality interval; BD-quality is the mean gap
between their quality as a function of log2 rate over the shared log2-rate
interval. Both integrate a monotone piecewise-cubic Hermite interpolant in
closed form, so results are exact for the interpolant rather than
grid-approximated. Its knot slopes are the secant mean capped at three
times the smaller secant (the Fritsch-Carlson limit), zeroed at extrema,
with one-sided secants at the ends; this is not the Fritsch-Butland rule
of MATLAB's or scipy's pchip, so deltas can differ from those tools'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateCurve, SchemaError
from .ioutil import (
    csv_text,
    finite_float,
    read_csv,
)

# overlap shorter than this fraction of either curve's span is flagged
_NARROW_OVERLAP = 0.10


# ---------------------------------------------------------------------------
# monotone piecewise-cubic Hermite interpolation
# ---------------------------------------------------------------------------

def _check_abscissa(xs: np.ndarray) -> None:
    if xs.size < 2:
        raise DegenerateCurve(f"need at least 2 points, got {xs.size}")
    if not (xs[1:] > xs[:-1]).all():
        raise SchemaError("abscissa must be strictly increasing")


def pchip_slopes(xs, ys) -> np.ndarray:
    """Knot slopes that keep the Hermite cubic monotone between knots.

    Interior slopes are the secant average, zeroed at local extrema and
    limited to three times the smaller neighbouring secant; endpoints
    take their one-sided secant.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    _check_abscissa(xs)
    d = (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1])
    left, right = d[:-1], d[1:]
    avg = 0.5 * (left + right)
    cap = 3.0 * np.minimum(np.abs(left), np.abs(right))
    inner = np.where(left * right <= 0, 0.0, np.copysign(np.minimum(np.abs(avg), cap), avg))
    return np.concatenate((d[:1], inner, d[-1:]))


def _hermite_antiderivatives(t):
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return (
        t4 / 2 - t3 + t,            # integral of 2t^3 - 3t^2 + 1
        t4 / 4 - 2 * t3 / 3 + t2 / 2,  # integral of t^3 - 2t^2 + t
        -t4 / 2 + t3,               # integral of -2t^3 + 3t^2
        t4 / 4 - t3 / 3,            # integral of t^3 - t^2
    )


def pchip_integrate(xs, ys, lo: float, hi: float) -> float:
    """Exact integral of the interpolant over [lo, hi] inside the knots.

    Every interval's t range is clipped to [0, 1], so intervals outside
    [lo, hi] add exactly 0; the parts are summed in knot order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    m = pchip_slopes(xs, ys)
    if hi < lo:
        raise ValueError(f"integration bounds reversed: [{lo}, {hi}]")
    if lo < xs[0] or hi > xs[-1]:
        raise SchemaError(f"integration bounds [{lo}, {hi}] outside [{xs[0]}, {xs[-1]}]")
    if lo == hi:  # the parts below can sum to -0.0 when ys are negative
        return 0.0
    h = xs[1:] - xs[:-1]
    a00, a10, a01, a11 = _hermite_antiderivatives(((lo - xs[:-1]) / h).clip(0.0, 1.0))
    b00, b10, b01, b11 = _hermite_antiderivatives(((hi - xs[:-1]) / h).clip(0.0, 1.0))
    parts = h * (
        ys[:-1] * (b00 - a00)
        + h * m[:-1] * (b10 - a10)
        + ys[1:] * (b01 - a01)
        + h * m[1:] * (b11 - a11)
    )
    # cumsum adds in order; np.sum adds 8 or more terms pairwise
    return float(parts.cumsum()[-1])


# ---------------------------------------------------------------------------
# rate-quality curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RqCurve:
    """Pareto-pruned curve: log2 rate and quality both strictly increase."""

    log_rates: tuple[float, ...]
    qualities: tuple[float, ...]

    @classmethod
    def from_points(cls, points) -> "RqCurve":
        """Build from (bitrate_bps, quality) pairs, dropping dominated ones.

        A point is dominated when another point has lower-or-equal rate
        and greater-or-equal quality. Sorting by rate then sweeping keeps
        only points that strictly improve quality.
        """
        cleaned = []
        for bitrate, quality in points:
            if bitrate <= 0:
                raise DegenerateCurve(f"bitrate must be > 0, got {bitrate}")
            cleaned.append((math.log2(float(bitrate)), float(quality)))
        cleaned.sort(key=lambda p: (p[0], -p[1]))
        kept_r: list[float] = []
        kept_q: list[float] = []
        for r, q in cleaned:
            if kept_q and q <= kept_q[-1]:
                continue
            if kept_r and r == kept_r[-1]:
                continue
            kept_r.append(r)
            kept_q.append(q)
        if len(kept_r) < 2:
            raise DegenerateCurve(
                f"curve needs >= 2 points after dominance pruning, kept {len(kept_r)}"
            )
        return cls(tuple(kept_r), tuple(kept_q))

    @classmethod
    def from_ladder(cls, rungs) -> "RqCurve":
        """The curve of a ladder's realized (bitrate, vmaf) points."""
        return cls.from_points((rung.realized_bps, rung.vmaf) for rung in rungs)


@dataclass(frozen=True)
class ReportRow:
    """One line of a report CSV: both deltas and the intervals they cover.

    The result fields are all None in a warning row, whose warnings say
    why the curves could not be compared; otherwise warnings joins any
    narrow-overlap notes with "; ".
    """

    video_id: str
    pair: str
    bd_rate_percent: float | None = None
    bd_vmaf: float | None = None
    quality_lo: float | None = None
    quality_hi: float | None = None
    log2_rate_lo: float | None = None
    log2_rate_hi: float | None = None
    warnings: str = ""


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _overlap(test_xs, anchor_xs, axis: str) -> tuple[float, float]:
    """The interval both ascending knot sequences cover."""
    lo = max(test_xs[0], anchor_xs[0])
    hi = min(test_xs[-1], anchor_xs[-1])
    if hi <= lo:
        raise DegenerateCurve(f"curves share no {axis} interval: [{lo}, {hi}]")
    return lo, hi


def _mean_gap(test_xs, test_ys, anchor_xs, anchor_ys, axis: str) -> float:
    """Mean of test minus anchor interpolant over their shared x interval."""
    lo, hi = _overlap(test_xs, anchor_xs, axis)
    return (pchip_integrate(test_xs, test_ys, lo, hi)
            - pchip_integrate(anchor_xs, anchor_ys, lo, hi)) / (hi - lo)


def bd_rate(test: RqCurve, anchor: RqCurve) -> float:
    """Average rate difference at equal quality, in percent.

    Negative values mean the test curve needs less bitrate than the
    anchor for the same quality.
    """
    gap = _mean_gap(test.qualities, test.log_rates, anchor.qualities, anchor.log_rates, "quality")
    return (2.0 ** gap - 1.0) * 100.0


def bd_quality(test: RqCurve, anchor: RqCurve) -> float:
    """Average quality difference at equal rate, in quality points."""
    return _mean_gap(test.log_rates, test.qualities, anchor.log_rates, anchor.qualities, "rate")


def _narrow_overlap_warnings(test_xs, anchor_xs, overlap, axis) -> list[str]:
    width = overlap[1] - overlap[0]
    warnings = []
    for name, xs in (("test", test_xs), ("anchor", anchor_xs)):
        span = xs[-1] - xs[0]
        if span > 0 and width < _NARROW_OVERLAP * span:
            warnings.append(
                f"{axis} overlap covers {width / span:.1%} of the {name} curve"
            )
    return warnings


def compare_curves(test: RqCurve, anchor: RqCurve, video_id: str = "", pair: str = "") -> ReportRow:
    """The report row of both deltas plus the intervals they were computed over."""
    q_overlap = _overlap(test.qualities, anchor.qualities, "quality")
    r_overlap = _overlap(test.log_rates, anchor.log_rates, "rate")
    warnings = (_narrow_overlap_warnings(test.qualities, anchor.qualities, q_overlap, "quality")
                + _narrow_overlap_warnings(test.log_rates, anchor.log_rates, r_overlap, "rate"))
    return ReportRow(video_id, pair, bd_rate(test, anchor), bd_quality(test, anchor),
                     *q_overlap, *r_overlap, "; ".join(warnings))


# ---------------------------------------------------------------------------
# corpus aggregation
# ---------------------------------------------------------------------------

def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def aggregate(rows) -> dict:
    """Arithmetic mean and population standard deviation per metric.

    The result is the statistics part of the aggregate JSON: the four
    numbers, then each metric as "{mean:g}/{std:g}" under table_format.
    """
    rows = list(rows)
    if not rows:
        raise SchemaError("no BD results to aggregate")
    rate_mean, rate_std = _mean_std([r.bd_rate_percent for r in rows])
    vmaf_mean, vmaf_std = _mean_std([r.bd_vmaf for r in rows])
    return {
        "bd_rate_mean": rate_mean,
        "bd_rate_std": rate_std,
        "bd_quality_mean": vmaf_mean,
        "bd_quality_std": vmaf_std,
        "table_format": {
            "bd_rate": f"{rate_mean:g}/{rate_std:g}",
            "bd_quality": f"{vmaf_mean:g}/{vmaf_std:g}",
        },
    }


# ---------------------------------------------------------------------------
# report CSV
# ---------------------------------------------------------------------------

def report_csv_text(rows) -> str:
    return csv_text(REPORT_COLUMNS, rows)


def _optional_float(text: str) -> float | None:
    """A result column: empty in a row whose comparison failed."""
    return None if text == "" else finite_float(text)


_CONVERTERS = (str, str) + (_optional_float,) * 6 + (str,)


def parse_report_csv(path) -> list[ReportRow]:
    rows = []
    for line, values in read_csv(path, REPORT_COLUMNS, _CONVERTERS):
        if len({v is None for v in values[2:8]}) > 1:
            raise SchemaError(f"{path} line {line}: result columns must be all empty or all set")
        rows.append(ReportRow(*values))
    return rows
