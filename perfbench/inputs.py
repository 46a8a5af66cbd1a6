"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed, so two runs with the same
seed feed the program byte-identical files. Nothing imports ladderforge:
the Y4M writer, the feature rows and the encode log are written from the
formats the README documents, so the benchmark does not lean on the code
it measures to build its inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --- clips ------------------------------------------------------------------

HD = (1920, 1080)
SD = (640, 360)


@dataclass(frozen=True)
class Clip:
    path: Path
    width: int
    height: int
    bit_depth: int
    frames: int
    motion: float  # mean |delta luma| x 255 over consecutive frames


def _pink_field(rng, height: int, width: int) -> np.ndarray:
    """1/f-spectrum noise scaled to [0, 1]; natural-image-like statistics."""
    spectrum = np.fft.rfft2(rng.standard_normal((height, width)))
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    field = np.fft.irfft2(spectrum / radius, s=(height, width))
    return (field - field.min()) / (field.max() - field.min())


def clip_planes(rng, width: int, height: int, frames: int, bit_depth: int):
    """Integer luma planes of a procedural clip with texture and motion.

    A 1/f background pans at one velocity while a textured square crosses
    it at another; light per-frame grain keeps every difference plane
    dense. Yields one plane at a time so a long 1080p clip never sits in
    memory whole.
    """
    peak = (1 << bit_depth) - 1
    vx, vy = (int(v) for v in rng.integers(2, 7, size=2))
    margin = frames * max(vx, vy) + 1
    background = _pink_field(rng, height + margin, width + margin)
    side = min(width, height) // 3
    patch = _pink_field(rng, side, side)
    px, py = int(rng.integers(0, width - side)), int(rng.integers(0, height - side))
    pvx, pvy = (int(v) for v in rng.integers(-9, 10, size=2))
    for t in range(frames):
        plane = background[t * vy:t * vy + height, t * vx:t * vx + width].copy()
        x = (px + t * pvx) % (width - side)
        y = (py + t * pvy) % (height - side)
        plane[y:y + side, x:x + side] = 0.3 + 0.6 * patch
        plane += 0.01 * rng.standard_normal(plane.shape)
        yield np.clip(np.rint(plane * peak), 0, peak).astype(np.int64)


def write_clip(path: Path, planes, bit_depth: int = 8) -> Clip:
    """Write integer luma planes as a 4:2:0 Y4M clip.

    Records the motion value the clip must yield, mean |delta luma| x 255,
    computed here from the integer samples.
    """
    dtype = np.uint8 if bit_depth == 8 else np.dtype("<u2")
    tag = "C420" if bit_depth == 8 else "C420p10"
    peak = float((1 << bit_depth) - 1)
    motions = []
    previous = None
    frames = 0
    with open(path, "wb") as fh:
        for plane in planes:
            height, width = plane.shape
            if previous is None:
                fh.write(f"YUV4MPEG2 W{width} H{height} F30:1 Ip A1:1 {tag}\n".encode())
                chroma = np.full((height // 2, width // 2), 1 << (bit_depth - 1),
                                 dtype=dtype).tobytes()
            else:
                motions.append(np.abs(plane - previous).mean() / peak * 255.0)
            fh.write(b"FRAME\n" + plane.astype(dtype).tobytes() + chroma + chroma)
            previous = plane
            frames += 1
    motion = float(np.mean(motions)) if motions else 0.0
    return Clip(Path(path), width, height, bit_depth, frames, motion)


def procedural_clip(path: Path, seed: int, size: tuple[int, int], frames: int,
                    bit_depth: int = 8) -> Clip:
    rng = np.random.default_rng(seed)
    return write_clip(path, clip_planes(rng, size[0], size[1], frames, bit_depth), bit_depth)


def clip_plane(seed: int, size: tuple[int, int], frames: int, bit_depth: int,
               index: int) -> np.ndarray:
    """Frame ``index`` of the clip ``procedural_clip`` makes from the same arguments."""
    rng = np.random.default_rng(seed)
    for t, plane in enumerate(clip_planes(rng, size[0], size[1], frames, bit_depth)):
        if t == index:
            return plane
    raise IndexError(index)


# --- training corpus ----------------------------------------------------------

RESOLUTIONS = ((1920, 1080), (1280, 720), (960, 540), (768, 432), (640, 360), (512, 288))
CRFS = tuple(range(18, 51, 4))
RUNG_BPS = (250e3, 500e3, 1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 9e6, 10.5e6)
FIXED_TABLE = ((512, 288), (640, 360), (768, 432), (960, 540), (1280, 720), (1280, 720),
               (1920, 1080), (1920, 1080), (1920, 1080), (1920, 1080), (1920, 1080),
               (1920, 1080))
_P1080 = 1920 * 1080
SCALES, BANDS, EIGS = 4, 2, 9


def feature_columns() -> list[str]:
    """The 169 data columns of the features CSV, then the five id columns."""
    names = []
    for prefix in ("frame_info", "diff_info"):
        names += [f"{prefix}_s{s}_b{b}_e{j}" for s in range(1, SCALES + 1)
                  for b in range(1, BANDS + 1) for j in range(1, EIGS + 1)]
        names += [f"{prefix}_s{s}_b{b}" for s in range(1, SCALES + 1)
                  for b in range(1, BANDS + 1)]
        names += [f"{prefix}_s{s}" for s in range(1, SCALES + 1)]
    return names + ["motion_mean_abs"]


ID_COLUMNS = ["video_id", "width", "height", "bit_depth", "frame_count"]


def planted_vmaf(width: int, height: int, complexity: float, bitrate: float) -> float:
    """Logistic rate-quality surface with resolution crossovers.

    Fewer pixels saturate at a lower bitrate but under a lower ceiling,
    so the best resolution climbs as the budget grows.
    """
    share = width * height / _P1080
    ceiling = 100.0 * (0.72 + 0.28 * share ** 0.4)
    midpoint = math.log2(0.8e6 * share ** 0.85) + 1.3 * complexity
    return ceiling / (1.0 + math.exp(-(math.log2(bitrate) - midpoint) / 1.05))


def _information(rng, level: float) -> np.ndarray:
    """(scale, band, eigenchannel) values whose totals obey the layout rules."""
    decay = np.exp(-0.45 * np.arange(EIGS))
    by_scale = np.array([1.6, 1.2, 0.8, 0.5])[:, None, None]
    noise = 1.0 + 0.05 * rng.standard_normal((SCALES, BANDS, EIGS))
    return level * by_scale * decay * noise


def _flat(per_eig: np.ndarray) -> list[float]:
    per_band = per_eig.sum(axis=2)
    per_scale = 0.5 * per_band.sum(axis=1)
    return [float(v) for part in (per_eig, per_band, per_scale) for v in part.ravel()]


@dataclass(frozen=True)
class Corpus:
    features: Path
    encode_log: Path
    split: Path
    config: Path
    titles: tuple[str, ...]
    train_titles: tuple[str, ...]
    feature_rows: dict     # title -> {column: float}
    log_rows: dict         # title -> list of (width, height, crf, bitrate, vmaf)


def write_corpus(directory: Path, seed: int, n_titles: int) -> Corpus:
    """Features CSV, encode log, split manifest and config for a title set.

    Each title has a content complexity that raises its information
    features and shifts its quality surface, so the features carry the
    signal the regressor must learn.
    """
    rng = np.random.default_rng(seed)
    titles = tuple(f"title{i:03d}" for i in range(n_titles))
    columns = feature_columns()
    feature_rows, log_rows = {}, {}
    for title in titles:
        complexity = float(rng.uniform(0.1, 0.9))
        motion = float(rng.uniform(0.5, 8.0))
        values = (_flat(_information(rng, 0.5 + 2.0 * complexity))
                  + _flat(_information(rng, 0.1 + 0.05 * motion))
                  + [motion])
        feature_rows[title] = dict(zip(columns, values))
        rows = []
        for width, height in RESOLUTIONS:
            base = 0.65e6 * (width * height / _P1080) ** 0.9
            for crf in CRFS:
                bitrate = base * 2.0 ** ((38 - crf) / 4.0 + 0.3 * complexity)
                bitrate *= 1.0 + 0.03 * float(rng.standard_normal())
                vmaf = planted_vmaf(width, height, complexity, bitrate)
                vmaf = min(100.0, max(0.0, vmaf + 0.3 * float(rng.standard_normal())))
                rows.append((width, height, crf, bitrate, vmaf))
        log_rows[title] = rows

    directory.mkdir(parents=True, exist_ok=True)
    features = directory / "features.csv"
    with open(features, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns + ID_COLUMNS)
        for title in titles:
            values = [repr(feature_rows[title][c]) for c in columns]
            writer.writerow(values + [title, 1920, 1080, 8, 30])
    encode_log = directory / "encodes.csv"
    with open(encode_log, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "width", "height", "crf", "bitrate_bps", "vmaf"])
        for title in titles:
            for width, height, crf, bitrate, vmaf in log_rows[title]:
                writer.writerow([title, width, height, crf, repr(bitrate), repr(vmaf)])

    # by-title split, 3/4 train, 1/12 validation, the rest test
    order = list(rng.permutation(n_titles))
    n_train, n_val = (3 * n_titles) // 4, max(1, n_titles // 12)
    part = lambda idx: sorted(titles[i] for i in idx)
    train = part(order[:n_train])
    split = directory / "split.json"
    split.write_text(json.dumps({
        "format": "ladderforge-split v1", "seed": seed, "train": train,
        "validation": part(order[n_train:n_train + n_val]),
        "test": part(order[n_train + n_val:]),
    }, indent=2) + "\n")
    config = directory / "config.json"
    config.write_text(json.dumps({"fixed_ladder": [
        {"bitrate_bps": bps, "width": w, "height": h}
        for bps, (w, h) in zip(RUNG_BPS, FIXED_TABLE)
    ]}, indent=2) + "\n")
    return Corpus(features, encode_log, split, config, titles, tuple(train),
                  feature_rows, log_rows)


def resolutions_flag() -> str:
    return ",".join(f"{w}x{h}" for w, h in RESOLUTIONS)
