"""Design matrices for the nine predictor input layouts.

An approach picks columns of the features CSV by position: blocks of the
pooled frame plane vector, the motion value, and blocks of the pooled
difference plane vector (see gsm_vif.PLANE_SPANS), in that order:

    1  per-scale (4)                          + metadata
    2  per-band (8)                           + metadata
    3  per-eigenchannel (72)                  + metadata
    4  per-scale + motion                     + metadata
    5  per-band + motion                      + metadata
    6  per-eigenchannel + motion              + metadata
    7  per-scale + motion + diff per-scale    + metadata
    8  per-band + motion + diff per-band      + metadata
    9  per-eigenchannel + motion + diff per-eigenchannel + metadata

Metadata is always the final three columns: log2(bitrate_bps), width/3840,
height/3840. assemble builds the whole (encodes x columns) matrix the
regressor trains on or predicts from in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemaError
from .gsm_vif import (
    FRAME_FEATURE_COUNT,
    MOTION_INDEX,
    PLANE_SPANS,
    TENSOR_VALUE_COUNT,
    feature_column_names,
)

_DIM_SCALE = 3840.0
META_COLUMNS = ["log2_bitrate", "width_scaled", "height_scaled"]


def _positions(frame: str, motion: bool, diff: str | None) -> np.ndarray:
    plane = range(FRAME_FEATURE_COUNT)
    picked = list(plane[PLANE_SPANS[frame]]) + ([MOTION_INDEX] if motion else [])
    if diff:
        picked += [FRAME_FEATURE_COUNT + i for i in plane[PLANE_SPANS[diff]]]
    return np.array(picked)


# features-CSV positions per approach: (frame block, motion, diff block)
_POSITIONS = {
    1: _positions("scale", False, None),
    2: _positions("band", False, None),
    3: _positions("eig", False, None),
    4: _positions("scale", True, None),
    5: _positions("band", True, None),
    6: _positions("eig", True, None),
    7: _positions("scale", True, "scale"),
    8: _positions("band", True, "band"),
    9: _positions("eig", True, "eig"),
}

APPROACH_FEATURE_LENGTHS = {a: len(p) + len(META_COLUMNS) for a, p in _POSITIONS.items()}


def _positions_of(approach: int) -> np.ndarray:
    try:
        return _POSITIONS[approach]
    except KeyError:
        raise SchemaError(f"approach must be 1..9, got {approach}") from None


def require_motion(approach: int, tensors) -> None:
    """Raise unless every tensor holds the frame-difference features the approach reads."""
    if _positions_of(approach).max() >= FRAME_FEATURE_COUNT:
        still = next((t for t in tensors if not t.has_motion), None)
        if still is not None:
            raise SchemaError(
                f"approach {approach} needs frame-difference features; "
                f"video has {still.frame_count} frame(s)"
            )


def assemble(approach: int, tensors, bitrates, widths, heights) -> np.ndarray:
    """The (n, d) design matrix of n encodes in the approach's layout.

    Row i holds the approach's features-CSV columns of tensors[i], then
    log2(bitrates[i]), widths[i] / 3840 and heights[i] / 3840; n may be 0.
    The log2 is math.log2 per value: np.log2 differs from it in the last
    bit for some integer rates, and the model bytes would follow.
    """
    require_motion(approach, tensors)
    positions = _positions_of(approach)
    bad = next((bps for bps in bitrates if bps <= 0), None)
    if bad is not None:
        raise SchemaError(f"bitrate must be > 0 bps, got {bad}")
    values = np.reshape([t.values for t in tensors], (len(tensors), TENSOR_VALUE_COUNT))
    return np.column_stack([
        values[:, positions],
        [math.log2(bps) for bps in bitrates],
        np.asarray(widths) / _DIM_SCALE,
        np.asarray(heights) / _DIM_SCALE,
    ])


def column_names(approach: int) -> list[str]:
    """Feature column names in assembly order, metadata last."""
    names = feature_column_names()
    return [names[i] for i in _positions_of(approach)] + list(META_COLUMNS)
