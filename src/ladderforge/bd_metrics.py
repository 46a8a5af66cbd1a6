"""Bjontegaard deltas between rate-quality curves.

BD-rate integrates log2 bitrate as a function of quality over the
curves' shared quality interval; BD-quality integrates quality over the
shared log2-rate interval. Both use a monotone piecewise-cubic Hermite
interpolant (Fritsch-Carlson limited slopes) integrated in closed form,
so results are exact for the interpolant rather than grid-approximated.
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
    if not np.all(np.diff(xs) > 0):
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
    d = np.diff(ys) / np.diff(xs)
    m = np.empty(len(xs))
    m[0], m[-1] = d[0], d[-1]
    for i in range(1, len(xs) - 1):
        if d[i - 1] * d[i] <= 0:
            m[i] = 0.0
        else:
            avg = 0.5 * (d[i - 1] + d[i])
            cap = 3.0 * min(abs(d[i - 1]), abs(d[i]))
            m[i] = math.copysign(min(abs(avg), cap), avg)
    return m


def _locate(xs: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(xs, x, side="right") - 1
    return np.clip(idx, 0, len(xs) - 2)


def pchip_interpolate(xs, ys, x_query):
    """Evaluate the monotone interpolant; queries must be inside the knots."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    m = pchip_slopes(xs, ys)
    scalar = np.isscalar(x_query) or np.asarray(x_query).ndim == 0
    x = np.atleast_1d(np.asarray(x_query, dtype=np.float64))
    if np.any(x < xs[0]) or np.any(x > xs[-1]):
        raise SchemaError(
            f"query outside [{xs[0]}, {xs[-1]}]: {x[(x < xs[0]) | (x > xs[-1])][0]}"
        )
    i = _locate(xs, x)
    h = xs[i + 1] - xs[i]
    t = (x - xs[i]) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    out = h00 * ys[i] + h10 * h * m[i] + h01 * ys[i + 1] + h11 * h * m[i + 1]
    return float(out[0]) if scalar else out


def _hermite_antiderivatives(t: float) -> tuple[float, float, float, float]:
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
    """Exact integral of the interpolant over [lo, hi] inside the knots."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    m = pchip_slopes(xs, ys)
    if hi < lo:
        raise ValueError(f"integration bounds reversed: [{lo}, {hi}]")
    if lo < xs[0] or hi > xs[-1]:
        raise SchemaError(f"integration bounds [{lo}, {hi}] outside [{xs[0]}, {xs[-1]}]")
    if lo == hi:
        return 0.0
    i_lo = int(_locate(xs, np.array([lo]))[0])
    i_hi = int(_locate(xs, np.array([hi]))[0])
    total = 0.0
    for i in range(i_lo, i_hi + 1):
        h = xs[i + 1] - xs[i]
        ta = max((lo - xs[i]) / h, 0.0)
        tb = min((hi - xs[i]) / h, 1.0)
        if tb <= ta:
            continue
        a00, a10, a01, a11 = _hermite_antiderivatives(ta)
        b00, b10, b01, b11 = _hermite_antiderivatives(tb)
        total += h * (
            ys[i] * (b00 - a00)
            + h * m[i] * (b10 - a10)
            + ys[i + 1] * (b01 - a01)
            + h * m[i + 1] * (b11 - a11)
        )
    return total


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
    def from_ladder(cls, ladder) -> "RqCurve":
        return cls.from_points((rung.realized_bps, rung.vmaf) for rung in ladder.rungs)

    def quality_span(self) -> tuple[float, float]:
        return self.qualities[0], self.qualities[-1]

    def rate_span(self) -> tuple[float, float]:
        return self.log_rates[0], self.log_rates[-1]


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


def _overlap(a: tuple[float, float], b: tuple[float, float], axis: str) -> tuple[float, float]:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if hi <= lo:
        raise DegenerateCurve(f"curves share no {axis} interval: [{lo}, {hi}]")
    return lo, hi


def bd_rate(test: RqCurve, anchor: RqCurve) -> float:
    """Average rate difference at equal quality, in percent.

    Negative values mean the test curve needs less bitrate than the
    anchor for the same quality.
    """
    lo, hi = _overlap(test.quality_span(), anchor.quality_span(), "quality")
    span = hi - lo
    mean_diff = (
        pchip_integrate(test.qualities, test.log_rates, lo, hi)
        - pchip_integrate(anchor.qualities, anchor.log_rates, lo, hi)
    ) / span
    return (2.0 ** mean_diff - 1.0) * 100.0


def bd_quality(test: RqCurve, anchor: RqCurve) -> float:
    """Average quality difference at equal rate, in quality points."""
    lo, hi = _overlap(test.rate_span(), anchor.rate_span(), "rate")
    span = hi - lo
    return (
        pchip_integrate(test.log_rates, test.qualities, lo, hi)
        - pchip_integrate(anchor.log_rates, anchor.qualities, lo, hi)
    ) / span


def _narrow_overlap_warnings(test, anchor, overlap, axis) -> list[str]:
    width = overlap[1] - overlap[0]
    warnings = []
    for name, curve in (("test", test), ("anchor", anchor)):
        span = curve[1] - curve[0]
        if span > 0 and width < _NARROW_OVERLAP * span:
            warnings.append(
                f"{axis} overlap covers {width / span:.1%} of the {name} curve"
            )
    return warnings


def compare_curves(test: RqCurve, anchor: RqCurve, video_id: str = "", pair: str = "") -> ReportRow:
    """The report row of both deltas plus the intervals they were computed over."""
    q_overlap = _overlap(test.quality_span(), anchor.quality_span(), "quality")
    r_overlap = _overlap(test.rate_span(), anchor.rate_span(), "rate")
    warnings = _narrow_overlap_warnings(
        test.quality_span(), anchor.quality_span(), q_overlap, "quality"
    ) + _narrow_overlap_warnings(test.rate_span(), anchor.rate_span(), r_overlap, "rate")
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
