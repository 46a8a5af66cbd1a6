"""Deterministic SVG plots with CSV twins.

Plots are emitted as self-contained SVG text so they can be diffed and
tested without a display stack; every plot has a CSV twin carrying the
same numbers. Histogram binning follows the Freedman-Diaconis rule with
documented fallbacks for degenerate data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SchemaError
from .ioutil import csv_text

_CANVAS_W = 640
_CANVAS_H = 420
_MARGIN_L = 64
_MARGIN_R = 20
_MARGIN_T = 44
_MARGIN_B = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

HISTOGRAM_COLUMNS = ("bin_lo", "bin_hi", "count")
HULL_COLUMNS = ("label", "bitrate_bps", "quality")


@dataclass(frozen=True)
class Bin:
    lo: float
    hi: float
    count: int


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def freedman_diaconis_bins(values) -> list[Bin]:
    """Histogram bins: width 2*IQR/n^(1/3).

    Falls back to a sqrt(n) bin count when that width would give more bins
    than values (a zero or tiny IQR), and to one unit-width bin when all
    values are equal. The last bin is closed so the maximum lands inside it.
    """
    values = sorted(float(v) for v in values)
    if not values:
        raise SchemaError("no values to bin")
    n = len(values)
    lo, hi = values[0], values[-1]
    if lo == hi:
        return [Bin(lo - 0.5, lo + 0.5, n)]
    if not math.isfinite(hi - lo):
        raise SchemaError(f"values from {lo!r} to {hi!r} span more than a float holds")

    def percentile(q: float) -> float:
        pos = q * (n - 1)
        base = int(pos)
        frac = pos - base
        if base + 1 < n:
            return values[base] * (1 - frac) + values[base + 1] * frac
        return values[base]

    iqr = percentile(0.75) - percentile(0.25)
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    if not (width > 0 and (hi - lo) / width <= n):
        width = (hi - lo) / max(1, math.isqrt(n))
    count = max(1, math.ceil((hi - lo) / width))
    width = (hi - lo) / count
    bins = [0] * count
    for v in values:
        idx = min(int((v - lo) / width), count - 1)
        bins[idx] += 1
    return [Bin(lo + i * width, lo + (i + 1) * width, c) for i, c in enumerate(bins)]


def histogram_csv_text(bins: list[Bin]) -> str:
    return csv_text(HISTOGRAM_COLUMNS, bins)


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
        f'<text x="{_CANVAS_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(parts: list[str], xlabel: str, ylabel: str) -> None:
    x0, y0 = _MARGIN_L, _CANVAS_H - _MARGIN_B
    x1, y1 = _CANVAS_W - _MARGIN_R, _MARGIN_T
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_CANVAS_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{_escape(ylabel)}</text>'
    )


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


class _Scale:
    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        span = hi - lo
        self.lo, self.span = lo, span if span else 1.0
        self.pix_lo, self.pix_span = pix_lo, pix_hi - pix_lo

    def __call__(self, v: float) -> float:
        return self.pix_lo + (v - self.lo) / self.span * self.pix_span


def histogram_svg_text(values, title: str, xlabel: str) -> str:
    bins = freedman_diaconis_bins(values)
    peak = max(b.count for b in bins)
    sx = _Scale(bins[0].lo, bins[-1].hi, _MARGIN_L, _CANVAS_W - _MARGIN_R)
    sy = _Scale(0, peak, _CANVAS_H - _MARGIN_B, _MARGIN_T)
    parts = _svg_open(title)
    for b in bins:
        x = sx(b.lo)
        w = sx(b.hi) - x
        y = sy(b.count)
        h = sy(0) - y
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{_PALETTE[0]}" stroke="white" stroke-width="0.5"/>'
        )
    _axes(parts, xlabel, "count")
    for tick in _ticks(bins[0].lo, bins[-1].hi):
        parts.append(
            f'<text x="{sx(tick):.2f}" y="{_CANVAS_H - _MARGIN_B + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{_fmt(tick)}</text>"
        )
    for tick in _ticks(0, peak):
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(tick) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(tick)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# rate-quality hull overlays
# ---------------------------------------------------------------------------

def hull_csv_text(curves) -> str:
    return csv_text(HULL_COLUMNS, (
        (label, bitrate, quality) for label, points in curves for bitrate, quality in points
    ))


def hull_svg_text(curves, title: str) -> str:
    """Overlaid rate-quality polylines, log2 rate axis; each later cycle
    through the palette dashes its curves, with longer dashes each time."""
    curves = [(label, list(points)) for label, points in curves]
    if not curves or all(not pts for _, pts in curves):
        raise SchemaError("no curves to plot")
    log_rates = [math.log2(b) for _, pts in curves for b, _ in pts]
    quals = [q for _, pts in curves for _, q in pts]
    sx = _Scale(min(log_rates), max(log_rates), _MARGIN_L, _CANVAS_W - _MARGIN_R)
    pad = 0.05 * (max(quals) - min(quals)) or 1.0
    sy = _Scale(min(quals) - pad, max(quals) + pad, _CANVAS_H - _MARGIN_B, _MARGIN_T)
    parts = _svg_open(title)
    for k, (label, points) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        cycle = k // len(_PALETTE)
        dash = f' stroke-dasharray="{4 * cycle} 3"' if cycle else ""
        coords = sorted((math.log2(b), q) for b, q in points)
        joined = " ".join(f"{sx(r):.2f},{sy(q):.2f}" for r, q in coords)
        parts.append(
            f'<polyline points="{joined}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        for r, q in coords:
            parts.append(
                f'<circle cx="{sx(r):.2f}" cy="{sy(q):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 16 * k
        parts.append(
            f'<line x1="{_MARGIN_L + 8}" y1="{ly - 4}" x2="{_MARGIN_L + 28}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"{dash}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 34}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
    _axes(parts, "bitrate (Mbps, log scale)", "quality")
    for tick in _ticks(min(log_rates), max(log_rates)):
        parts.append(
            f'<text x="{sx(tick):.2f}" y="{_CANVAS_H - _MARGIN_B + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{_fmt(2.0 ** tick / 1e6)}</text>"
        )
    for tick in _ticks(min(quals) - pad, max(quals) + pad):
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(tick) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(tick)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
