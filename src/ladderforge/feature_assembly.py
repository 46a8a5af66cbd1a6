"""Feature-vector assembly for the nine predictor input layouts.

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

Metadata is always the final three slots: log2(bitrate_bps), width/3840,
height/3840.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .gsm_vif import (
    FRAME_FEATURE_COUNT,
    MOTION_INDEX,
    PLANE_SPANS,
    VifFeatureTensor,
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


@dataclass(frozen=True)
class EncodeMeta:
    """Hypothetical encode described by bitrate and output resolution."""

    bitrate_bps: float
    width: int
    height: int


@dataclass(frozen=True)
class FeatureVector:
    approach: int
    values: np.ndarray

    def __post_init__(self):
        if self.approach not in APPROACH_FEATURE_LENGTHS:
            raise SchemaError(f"approach must be 1..9, got {self.approach}")
        expected = APPROACH_FEATURE_LENGTHS[self.approach]
        if np.asarray(self.values).shape != (expected,):
            raise ValueError(
                f"approach {self.approach} expects {expected} values, "
                f"got shape {np.asarray(self.values).shape}"
            )


def _positions_of(approach: int) -> np.ndarray:
    try:
        return _POSITIONS[approach]
    except KeyError:
        raise SchemaError(f"approach must be 1..9, got {approach}") from None


def normalize_meta(meta: EncodeMeta) -> np.ndarray:
    """(log2 bitrate, scaled width, scaled height)."""
    if meta.bitrate_bps <= 0:
        raise SchemaError(f"bitrate must be > 0 bps, got {meta.bitrate_bps}")
    return np.array(
        [math.log2(meta.bitrate_bps), meta.width / _DIM_SCALE, meta.height / _DIM_SCALE]
    )


def assemble(approach: int, tensor: VifFeatureTensor, meta: EncodeMeta) -> FeatureVector:
    """The approach's features-CSV columns followed by encode metadata."""
    positions = _positions_of(approach)
    if positions.max() >= FRAME_FEATURE_COUNT and not tensor.has_motion:
        raise SchemaError(
            f"approach {approach} needs frame-difference features; "
            f"video has {tensor.frame_count} frame(s)"
        )
    values = np.concatenate([tensor.values[positions], normalize_meta(meta)])
    return FeatureVector(approach, values)


def column_names(approach: int) -> list[str]:
    """Feature column names in assembly order, metadata last."""
    names = feature_column_names()
    return [names[i] for i in _positions_of(approach)] + list(META_COLUMNS)
