"""Bitrate-ladder construction.

Three ladder families over the same rung grid: predicted (model argmax
per rung plus monotonic correction), fixed (a configured rung to
resolution table), and reference (per-rung best measured quality from an
exhaustive encode log). Every ladder is realized against an encode log
by snapping each rung to the closest logged point in log2 bitrate, which
may lie above or below the rung's target. A ladder is its tuple of
LadderRung rows in rung order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dataset import BITRATE, CRF, DIMENSION, VMAF, EncodeRecord
from .errors import SchemaError
from .feature_assembly import assemble
from .gsm_vif import VifFeatureTensor
from .ioutil import (
    csv_text,
    finite_float,
    read_csv,
)
from .regressor import ExtraTreesModel, predict_batch

# rung targets in bps: 0.25..10.5 Mbps
DEFAULT_RUNG_BPS = (
    250_000,
    500_000,
    1_000_000,
    2_000_000,
    3_000_000,
    4_000_000,
    5_000_000,
    6_000_000,
    7_000_000,
    8_000_000,
    9_000_000,
    10_500_000,
)

DEFAULT_RESOLUTIONS = (
    (3840, 2160),
    (2560, 1440),
    (1920, 1080),
    (1280, 720),
    (960, 540),
    (768, 432),
    (640, 360),
    (512, 288),
)

# the fixed ladder when a config gives none: adapted from the bitrate and
# resolution table in the HLS Authoring Specification for Apple Devices,
# restricted to the eight working resolutions and snapped to the twelve
# rung targets
DEFAULT_FIXED_LADDER = (
    (250_000.0, (512, 288)),
    (500_000.0, (640, 360)),
    (1_000_000.0, (768, 432)),
    (2_000_000.0, (960, 540)),
    (3_000_000.0, (1280, 720)),
    (4_000_000.0, (1280, 720)),
    (5_000_000.0, (1920, 1080)),
    (6_000_000.0, (1920, 1080)),
    (7_000_000.0, (1920, 1080)),
    (8_000_000.0, (2560, 1440)),
    (9_000_000.0, (2560, 1440)),
    (10_500_000.0, (3840, 2160)),
)

@dataclass(frozen=True)
class LadderRung:
    """One row of a ladder CSV: a rung target and the logged encode realizing it."""

    rung_bps: float
    width: int
    height: int
    crf: int
    realized_bps: float
    vmaf: float


LADDER_COLUMNS = tuple(f.name for f in fields(LadderRung))
_CONVERTERS = (finite_float, DIMENSION, DIMENSION, CRF, BITRATE, VMAF)


def pixel_count(resolution: tuple[int, int]) -> int:
    return resolution[0] * resolution[1]


def validate_rungs(rungs) -> tuple[float, ...]:
    rungs = tuple(float(b) for b in rungs)
    if not rungs:
        raise SchemaError("rung list is empty")
    for b in rungs:
        if not (math.isfinite(b) and b > 0):
            raise SchemaError(f"rung bitrates must be finite and > 0, got {b}")
    for a, b in zip(rungs, rungs[1:]):
        if b <= a:
            raise SchemaError(f"rung bitrates must be strictly increasing, got {a} then {b}")
    return rungs


def validate_resolutions(resolutions) -> tuple[tuple[int, int], ...]:
    """A resolution list: not empty, every dimension positive and even."""
    resolutions = tuple(resolutions)
    if not resolutions:
        raise SchemaError("resolution list is empty")
    for w, h in resolutions:
        if w <= 0 or h <= 0 or w % 2 or h % 2:
            raise SchemaError(f"resolutions need positive even dims, got {w}x{h}")
    return resolutions


def predict_quality_grid(
    model: ExtraTreesModel,
    vif: VifFeatureTensor,
    resolutions,
    rungs=DEFAULT_RUNG_BPS,
) -> np.ndarray:
    """Predicted quality for every (resolution, rung) pair.

    Returns a |resolutions| x |rungs| array in the given orders; each
    entry is the model's prediction for this video encoded at that
    resolution and target bitrate.
    """
    resolutions = validate_resolutions(resolutions)
    rungs = validate_rungs(rungs)
    widths, heights = np.repeat(resolutions, len(rungs), axis=0).T
    X = assemble(model.approach, [vif] * widths.size, rungs * len(resolutions), widths, heights)
    return predict_batch(model, X).reshape(len(resolutions), len(rungs))


def select_ladder(grid, resolutions, rungs) -> list[tuple[int, int]]:
    """Per rung, the resolution with the highest quality in grid.

    Exact ties go to the smaller resolution (fewer pixels).
    """
    grid = np.asarray(grid, dtype=np.float64)
    resolutions = list(resolutions)
    rungs = validate_rungs(rungs)
    if grid.shape != (len(resolutions), len(rungs)):
        raise ValueError(
            f"grid shape {grid.shape} does not match "
            f"{len(resolutions)} resolutions x {len(rungs)} rungs"
        )
    choices = []
    for j in range(grid.shape[1]):
        column = grid[:, j]
        best = column.max()
        winners = [resolutions[i] for i in np.flatnonzero(column == best)]
        choices.append(min(winners, key=pixel_count))
    return choices


def monotonic_correct(choices) -> list[tuple[int, int]]:
    """Force resolution to be non-decreasing in rung bitrate.

    Scans from the highest rung down; each choice is capped at the
    corrected choice above it. The highest rung is never changed.
    """
    corrected = [tuple(c) for c in choices]
    for i in range(len(corrected) - 2, -1, -1):
        if pixel_count(corrected[i]) > pixel_count(corrected[i + 1]):
            corrected[i] = corrected[i + 1]
    return corrected


def _group_by_resolution(log) -> dict[tuple[int, int], list[EncodeRecord]]:
    groups: dict[tuple[int, int], list[EncodeRecord]] = {}
    for record in log:
        groups.setdefault((record.width, record.height), []).append(record)
    return groups


def closest_point(records, target_bps: float) -> EncodeRecord:
    """The record whose bitrate is nearest the target in log2 distance.

    Ties break toward the lower bitrate.
    """
    log_target = math.log2(target_bps)
    return min(
        records,
        key=lambda r: (abs(math.log2(r.bitrate_bps) - log_target), r.bitrate_bps),
    )


def realize_ladder(choices, rungs, log) -> tuple[LadderRung, ...]:
    """Snap each rung's chosen resolution to its closest logged point."""
    rungs = validate_rungs(rungs)
    choices = [tuple(c) for c in choices]
    if len(choices) != len(rungs):
        raise ValueError(f"{len(choices)} choices for {len(rungs)} rungs")
    groups = _group_by_resolution(log)
    realized = []
    for target, (w, h) in zip(rungs, choices):
        records = groups.get((w, h))
        if not records:
            raise SchemaError(
                f"encode log has no points at {w}x{h} for rung {target:g} bps"
            )
        record = closest_point(records, target)
        realized.append(LadderRung(target, w, h, record.crf, record.bitrate_bps, record.vmaf))
    return tuple(realized)


def reference_ladder(log, rungs=DEFAULT_RUNG_BPS, correct: bool = True) -> tuple[LadderRung, ...]:
    """Best measured resolution per rung from an exhaustive encode log.

    select_ladder picks from the vmaf of each logged resolution's closest
    point per rung, resolutions in ascending pixel order. The same
    monotonic correction as predicted ladders follows unless disabled.
    """
    rungs = validate_rungs(rungs)
    groups = _group_by_resolution(log)
    if not groups:
        raise SchemaError("encode log is empty")
    resolutions = sorted(groups, key=pixel_count)
    grid = [[closest_point(groups[res], target).vmaf for target in rungs] for res in resolutions]
    choices = select_ladder(grid, resolutions, rungs)
    if correct:
        choices = monotonic_correct(choices)
    return realize_ladder(choices, rungs, log)


def fixed_ladder(table, log) -> tuple[LadderRung, ...]:
    """Realize a configured rung -> resolution table against the log.

    ``table`` is an ascending sequence of (target_bps, (width, height)).
    """
    rungs = [bps for bps, _ in table]
    choices = [tuple(res) for _, res in table]
    return realize_ladder(choices, rungs, log)


def predicted_ladder(
    model: ExtraTreesModel,
    vif: VifFeatureTensor,
    log,
    rungs=DEFAULT_RUNG_BPS,
    resolutions=DEFAULT_RESOLUTIONS,
    correct: bool = True,
) -> tuple[LadderRung, ...]:
    """Model-driven ladder: argmax selection, correction, realization."""
    grid = predict_quality_grid(model, vif, resolutions, rungs)
    choices = select_ladder(grid, resolutions, rungs)
    if correct:
        choices = monotonic_correct(choices)
    return realize_ladder(choices, rungs, log)


# ---------------------------------------------------------------------------
# ladder CSV and summary text
# ---------------------------------------------------------------------------

def ladder_csv_text(rungs) -> str:
    return csv_text(LADDER_COLUMNS, rungs)


def parse_ladder_csv(path) -> tuple[LadderRung, ...]:
    """A ladder CSV's rungs; the file does not record provenance."""
    rungs = []
    for line, values in read_csv(path, LADDER_COLUMNS, _CONVERTERS):
        rung = LadderRung(*values)
        try:
            validate_rungs([r.rung_bps for r in rungs[-1:]] + [rung.rung_bps])
        except SchemaError as exc:
            raise SchemaError(f"{path} line {line}: rung_bps: {exc}") from None
        rungs.append(rung)
    if not rungs:
        raise SchemaError(f"{path}: ladder has no rungs")
    return tuple(rungs)


def ladder_summary_text(provenance: str, rungs) -> str:
    """The summary block of one ladder; monotone means pixel counts never fall."""
    pixels = [rung.width * rung.height for rung in rungs]
    monotone = all(a <= b for a, b in zip(pixels, pixels[1:]))
    lines = [
        f"provenance: {provenance}",
        f"rungs: {len(rungs)}",
        f"monotone: {'yes' if monotone else 'no'}",
    ]
    for rung in rungs:
        lines.append(
            f"  {rung.rung_bps / 1e6:g} Mbps -> {rung.width}x{rung.height}"
            f" crf {rung.crf},"
            f" realized {rung.realized_bps / 1e6:.3f} Mbps,"
            f" vmaf {rung.vmaf:.2f}"
        )
    return "\n".join(lines) + "\n"
