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
commutes with subtraction: the levels and the subbands of a difference of
two planes are the differences of theirs, bit for bit. So extraction
keeps a frame's levels, not its subbands, and splits a difference plane's
levels (its own samples at level 0, the frames' levels subtracted above)
one subband at a time.

Sample types: level 0 of integer samples is the plane as given, never
copied; any other plane is float64 at level 0. Level 1 is float32 when
the samples are below 2^14, which the plane itself shows: always for
uint8 samples, and for uint16 ones when their maximum is below 2^14
(every 8- and 10-bit Y4M frame). Its blur is then exact in float32: the
row pass gives n/16 with n < 2^18, the column pass n/256 with n < 2^22.
Every other level 1 is float64, and so are levels 2-3 always: their
values, n/2^16 and n/2^24, need more than float32's 24-bit significand.
They are reduced in float64 from level 1's exact values, so they are the
same bits either way.

A level is split, one subband at a time, in float32 when it is float32
or holds integers of at most 2 bytes (uint8 and uint16 frames, int16
differences), and in float64 otherwise. For integer samples that is
exact: a level-0 subband value of samples in [-32768, 65535] is
(a - b + c - d) / 4, whose partial sums are integers below 2^18; the
value is below 2^16 and the difference of two such values below 2^17,
and float32's 24-bit significand holds every quarter-integer below 2^22
in magnitude. On a float32 level 1, or the float32 difference of two
frames' level 1, the partial sums are n/256 with |n| <= 4 * 256 * m
< 2^24, m the largest sample, which float32 holds too.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError

NUM_SCALES = 4
MIN_DIMENSION = 16  # floor for four dyadic scales of 3x3 analysis blocks
_BINOMIAL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
_BINOMIAL32 = _BINOMIAL.astype(np.float32)
_NARROW_PEAK = 1 << 14  # samples below it give an exact float32 level 1


def _as_plane(plane) -> np.ndarray:
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise SchemaError(f"expected a 2-D plane, got shape {plane.shape}")
    return plane


def _reduce(plane: np.ndarray, axis: int, weights: np.ndarray = _BINOMIAL) -> np.ndarray:
    """Samples 0, 2, 4, ... along axis of the edge-replicated binomial blur
    along it; the same five products, summed in the same order, as a full
    blur followed by decimation. The weights' float type is the result's."""
    view = plane.swapaxes(0, axis)
    kept = view.shape[0] // 2
    padded = np.concatenate([view[:1], view[:1], view, view[-1:], view[-1:]])
    taps = [padded[t:t + 2 * kept:2] for t in range(5)]
    out = (
        weights[0] * taps[0]
        + weights[1] * taps[1]
        + weights[2] * taps[2]
        + weights[3] * taps[3]
        + weights[4] * taps[4]
    )
    return out.swapaxes(0, axis)


def build_scale_stack(plane) -> tuple[np.ndarray, ...]:
    """Four-level pyramid of a 2-D plane.

    Element 0 is the input plane, as given when it holds integers and as
    float64 otherwise; element k is its k-fold reduction, in float64,
    except that element 1 is float32 when the samples are uint8, or uint16
    with a maximum below 2^14. Requires at least MIN_DIMENSION in each
    direction so the smallest level keeps a usable extent.
    """
    plane = _as_plane(plane)
    if plane.dtype.kind not in "iu":
        plane = plane.astype(np.float64, copy=False)
    h, w = plane.shape
    if h < MIN_DIMENSION or w < MIN_DIMENSION:
        raise SchemaError(f"{w}x{h} plane; need at least {MIN_DIMENSION}x{MIN_DIMENSION}")
    narrow = plane.dtype == np.uint8 or (plane.dtype == np.uint16 and plane.max() < _NARROW_PEAK)
    weights = _BINOMIAL32 if narrow else _BINOMIAL
    levels = [plane, _reduce(_reduce(plane, 0, weights), 1, weights)]
    for _ in range(NUM_SCALES - 2):
        levels.append(_reduce(_reduce(levels[-1], 0), 1))
    return tuple(levels)


def subband_decompose(level, band: int) -> np.ndarray:
    """One oriented detail subband of a level: band 1 or band 2.

    The subband is one row and one column smaller than the level (valid
    filter support only; no padding is invented at the borders). It is
    float32 when the level is float32 or integers of at most 2 bytes, and
    float64 otherwise; the level is read as stored, never copied.
    """
    plane = _as_plane(level)
    narrow = plane.dtype == np.float32 or (plane.dtype.kind in "iu" and plane.dtype.itemsize <= 2)
    h, w = plane.shape
    if h < 2 or w < 2:
        raise SchemaError(f"{w}x{h} level cannot host 2x2 filters")
    if band == 1:  # difference along x, average along y
        terms = plane[:-1, 1:], plane[:-1, :-1], plane[1:, 1:], plane[1:, :-1]
    elif band == 2:  # difference along y, average along x
        terms = plane[1:, :-1], plane[:-1, :-1], plane[1:, 1:], plane[:-1, 1:]
    else:
        raise SchemaError(f"band must be 1 or 2, got {band}")
    out = np.subtract(terms[0], terms[1], dtype=np.float32 if narrow else np.float64)
    out += terms[2]
    out -= terms[3]
    out /= 4.0
    return out
