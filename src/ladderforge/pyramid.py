"""Dyadic low-pass pyramid and 2x2 analysis subbands.

Each pyramid level halves both dimensions (floor semantics) after a
separable binomial [1,4,6,4,1]/16 blur with edge replication. Every level
splits into two oriented detail subbands on valid support: band 1 pairs a
horizontal high-pass [-1,1]/2 with a vertical low-pass [1,1]/2, band 2 is
the transposed arrangement.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError

NUM_SCALES = 4
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def _as_plane(frame) -> np.ndarray:
    samples = getattr(frame, "samples", frame)
    plane = np.asarray(samples, dtype=np.float64)
    if plane.ndim != 2:
        raise SchemaError(f"expected a 2-D plane, got shape {plane.shape}")
    return plane


def _blur_axis(plane: np.ndarray, axis: int) -> np.ndarray:
    padded = np.pad(
        plane,
        [(2, 2) if ax == axis else (0, 0) for ax in range(2)],
        mode="edge",
    )
    view = padded.swapaxes(0, axis)
    out = (
        _BINOMIAL[0] * view[:-4]
        + _BINOMIAL[1] * view[1:-3]
        + _BINOMIAL[2] * view[2:-2]
        + _BINOMIAL[3] * view[3:-1]
        + _BINOMIAL[4] * view[4:]
    )
    return out.swapaxes(0, axis)


def _decimate(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return plane[0:2 * (h // 2):2, 0:2 * (w // 2):2]


def build_scale_stack(frame) -> tuple[np.ndarray, ...]:
    """Four-level pyramid of a luma or difference plane.

    Element 0 is the input plane and element k its k-fold decimation.
    Accepts a LumaFrame (luma or difference samples) or a bare 2-D array.
    Requires at least 16x16 so the smallest level keeps a usable extent.
    """
    plane = _as_plane(frame)
    h, w = plane.shape
    if h < 16 or w < 16:
        raise SchemaError(f"{w}x{h} plane; need at least 16x16")
    levels = [plane]
    for _ in range(NUM_SCALES - 1):
        blurred = _blur_axis(_blur_axis(levels[-1], 0), 1)
        levels.append(_decimate(blurred))
    return tuple(levels)


def subband_decompose(level) -> tuple[np.ndarray, np.ndarray]:
    """Split a level into its two oriented detail subbands, (band1, band2).

    Output planes are one row and one column smaller than the input (valid
    filter support only; no padding is invented at the borders).
    """
    plane = _as_plane(level)
    h, w = plane.shape
    if h < 2 or w < 2:
        raise SchemaError(f"{w}x{h} level cannot host 2x2 filters")
    # band 1: difference along x, average along y
    band1 = (plane[:-1, 1:] - plane[:-1, :-1] + plane[1:, 1:] - plane[1:, :-1]) / 4.0
    # band 2: difference along y, average along x
    band2 = (plane[1:, :-1] - plane[:-1, :-1] + plane[1:, 1:] - plane[:-1, 1:]) / 4.0
    return band1, band2
