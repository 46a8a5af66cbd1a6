"""Checks on the program's outputs, computed apart from the program.

Each check raises CheckFailed with the first violation it finds. The
rules come from the method itself (layout identities, interpolation by
fully grown trees, closest-point realization, BD-rate algebra), never
from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

IDENTITY_TOL = 1e-9
MOTION_TOL = 1e-9
INTERPOLATION_TOL = 1e-12
BD_TOL = 1e-9


class CheckFailed(Exception):
    pass


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- features -----------------------------------------------------------------

def feature_identities(row: dict) -> None:
    """Per-band = sum of per-eigenchannel, per-scale = half the band sum.

    Also requires every information value to be finite and >= 0.
    """
    for prefix in ("frame_info", "diff_info"):
        for s in range(1, 5):
            bands = []
            for b in range(1, 3):
                eig = [float(row[f"{prefix}_s{s}_b{b}_e{j}"]) for j in range(1, 10)]
                band = float(row[f"{prefix}_s{s}_b{b}"])
                for v in eig + [band]:
                    if not (math.isfinite(v) and v >= 0.0):
                        raise CheckFailed(f"{row['video_id']}: {prefix} s{s} b{b} holds {v}")
                if not _close(band, math.fsum(eig), IDENTITY_TOL):
                    raise CheckFailed(
                        f"{row['video_id']}: {prefix}_s{s}_b{b} = {band}, "
                        f"eigenchannels sum to {math.fsum(eig)}")
                bands.append(band)
            scale = float(row[f"{prefix}_s{s}"])
            if not _close(scale, 0.5 * sum(bands), IDENTITY_TOL):
                raise CheckFailed(
                    f"{row['video_id']}: {prefix}_s{s} = {scale}, half the bands is "
                    f"{0.5 * sum(bands)}")


def features_match_clips(rows: list[dict], clips) -> None:
    """One row per clip in argument order, with ids and motion from the source."""
    if len(rows) != len(clips):
        raise CheckFailed(f"{len(rows)} feature rows for {len(clips)} clips")
    for row, clip in zip(rows, clips):
        feature_identities(row)
        ids = (row["video_id"], int(row["width"]), int(row["height"]),
               int(row["bit_depth"]), int(row["frame_count"]))
        want = (clip.path.stem, clip.width, clip.height, clip.bit_depth, clip.frames)
        if ids != want:
            raise CheckFailed(f"feature row ids {ids}, expected {want}")
        motion = float(row["motion_mean_abs"])
        if not _close(motion, clip.motion, MOTION_TOL):
            raise CheckFailed(f"{clip.path.stem}: motion {motion}, source gives {clip.motion}")


def features_agree(row: dict, reference: dict, rtol: float) -> None:
    """The program's frame features against an independent recomputation."""
    for name, want in reference.items():
        got = float(row[name])
        if not _close(got, want, rtol):
            raise CheckFailed(f"{row['video_id']}: {name} = {got}, reference {want}")


# --- models -------------------------------------------------------------------

def model_interpolates(predictions, targets) -> None:
    """Fully grown trees without bootstrap return each training target."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise CheckFailed(f"{predictions.shape} predictions for {targets.shape} targets")
    err = np.abs(predictions - targets)
    worst = int(err.argmax())
    if err[worst] > INTERPOLATION_TOL:
        raise CheckFailed(
            f"training row {worst}: prediction {predictions[worst]!r}, "
            f"target {targets[worst]!r}")


# --- ladders ------------------------------------------------------------------

def closest_point(points, target_bps: float):
    """Log point nearest the target in log2 bitrate, lower bitrate on ties."""
    log_target = math.log2(target_bps)
    return min(points, key=lambda p: (abs(math.log2(p[3]) - log_target), p[3]))


def ladder_realized(rungs: list[dict], log_points, rung_bps) -> None:
    """Monotone in pixel count, one rung per target, each the closest point.

    log_points holds (width, height, crf, bitrate, vmaf) tuples of one title.
    """
    if [float(r["rung_bps"]) for r in rungs] != [float(b) for b in rung_bps]:
        raise CheckFailed("ladder rungs do not match the rung targets")
    pixels = [int(r["width"]) * int(r["height"]) for r in rungs]
    for i in range(1, len(pixels)):
        if pixels[i] < pixels[i - 1]:
            raise CheckFailed(f"rung {i} has fewer pixels than rung {i - 1}")
    for rung in rungs:
        w, h = int(rung["width"]), int(rung["height"])
        at_res = [p for p in log_points if (p[0], p[1]) == (w, h)]
        if not at_res:
            raise CheckFailed(f"rung at {w}x{h}, a resolution the log lacks")
        want = closest_point(at_res, float(rung["rung_bps"]))
        got = (w, h, int(rung["crf"]), float(rung["realized_bps"]), float(rung["vmaf"]))
        if got != tuple(want):
            raise CheckFailed(f"rung {rung['rung_bps']} realized as {got}, closest is {want}")


# --- BD metrics ---------------------------------------------------------------

def bd_report(rows: list[dict], titles) -> None:
    """Report rows come four per title: self, forward, swapped, inverted.

    Self must read exactly 0; forward and swapped must satisfy
    (1 + a)(1 + b) = 1; the predicted ladder must beat the inverted table.
    """
    if len(rows) != 4 * len(titles):
        raise CheckFailed(f"{len(rows)} report rows for {len(titles)} titles")
    for i, title in enumerate(titles):
        group = rows[4 * i:4 * i + 4]
        if any(r["video_id"] != title or r["bd_rate_percent"] == "" for r in group):
            raise CheckFailed(f"{title}: missing or incomparable report row")
        self_rate, forward, swapped, inverted = (
            float(r["bd_rate_percent"]) / 100.0 for r in group)
        if self_rate != 0.0:
            raise CheckFailed(f"{title}: ladder against itself gives {self_rate * 100}%")
        if abs((1.0 + forward) * (1.0 + swapped) - 1.0) > BD_TOL:
            raise CheckFailed(f"{title}: swapped BD-rates {forward}, {swapped}")
        if not inverted < 0.0:
            raise CheckFailed(f"{title}: predicted ladder loses to the inverted table "
                              f"({inverted * 100}%)")
