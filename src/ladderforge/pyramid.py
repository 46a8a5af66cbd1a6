"""Dyadic low-pass pyramid and 2x2 analysis subbands.

Each pyramid level halves both dimensions (floor semantics) after a
separable binomial [1,4,6,4,1]/16 blur with edge replication. The blur is
computed only at the samples the decimation keeps: first the kept rows,
then the kept columns of those. Every level splits into two oriented
detail subbands on valid support: band 1 pairs a horizontal high-pass
[-1,1]/2 with a vertical low-pass [1,1]/2, band 2 is the transposed
arrangement.

All weights are dyadic (multiples of 1/16 and 1/4), so on integer samples
of up to 16 bits every stage is exact in float64 and, being linear,
commutes with subtraction: the subbands of a difference of two planes are
the difference of their subbands, bit for bit.

Level 0 of such samples, each in [-32768, 65535], is also exact in
float32, whose 24-bit significand holds every quarter-integer below 2^22
in magnitude. A level-0 subband value is (a - b + c - d) / 4: its partial
sums are integers below 2^18, the value is below 2^16 and the difference
of two such values below 2^17. So subband_decompose computes in float32
when it is given float32. Levels 1-3 carry denominators up to 2^26 and
stay float64.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError

NUM_SCALES = 4
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _as_plane(plane, dtype=np.float64) -> np.ndarray:
    plane = np.asarray(plane, dtype=dtype)
    if plane.ndim != 2:
        raise SchemaError(f"expected a 2-D plane, got shape {plane.shape}")
    return plane


def _reduce(plane: np.ndarray, axis: int) -> np.ndarray:
    """Samples 0, 2, 4, ... along axis of the edge-replicated binomial blur
    along it; the same five products, summed in the same order, as a full
    blur followed by decimation."""
    view = plane.swapaxes(0, axis)
    kept = view.shape[0] // 2
    padded = np.concatenate([view[:1], view[:1], view, view[-1:], view[-1:]])
    taps = [padded[t:t + 2 * kept:2] for t in range(5)]
    out = (
        _BINOMIAL[0] * taps[0]
        + _BINOMIAL[1] * taps[1]
        + _BINOMIAL[2] * taps[2]
        + _BINOMIAL[3] * taps[3]
        + _BINOMIAL[4] * taps[4]
    )
    return out.swapaxes(0, axis)


def build_scale_stack(plane) -> tuple[np.ndarray, ...]:
    """Four-level pyramid of a 2-D plane.

    Element 0 is the input plane as float64 and element k its k-fold
    reduction. Requires at least 16x16 so the smallest level keeps a
    usable extent.
    """
    plane = _as_plane(plane)
    h, w = plane.shape
    if h < 16 or w < 16:
        raise SchemaError(f"{w}x{h} plane; need at least 16x16")
    levels = [plane]
    for _ in range(NUM_SCALES - 1):
        levels.append(_reduce(_reduce(levels[-1], 0), 1))
    return tuple(levels)


def subband_decompose(level) -> tuple[np.ndarray, np.ndarray]:
    """Split a level into its two oriented detail subbands, (band1, band2).

    Output planes are one row and one column smaller than the input (valid
    filter support only; no padding is invented at the borders). They are
    float32 when the level is float32, and float64 otherwise.
    """
    plane = np.asarray(level)
    plane = _as_plane(plane, np.float32 if plane.dtype == np.float32 else np.float64)
    h, w = plane.shape
    if h < 2 or w < 2:
        raise SchemaError(f"{w}x{h} level cannot host 2x2 filters")
    # band 1: difference along x, average along y
    band1 = plane[:-1, 1:] - plane[:-1, :-1]
    band1 += plane[1:, 1:]
    band1 -= plane[1:, :-1]
    band1 /= 4.0
    # band 2: difference along y, average along x
    band2 = plane[1:, :-1] - plane[:-1, :-1]
    band2 += plane[1:, 1:]
    band2 -= plane[:-1, 1:]
    band2 /= 4.0
    return band1, band2
