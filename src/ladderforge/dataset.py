"""Encode logs, corpus splits, and training-matrix construction.

An encode log is ground truth from actual encodes: one row per
(video, resolution, crf) cell carrying the measured bitrate and quality
score. Splits are by video so no title leaks across train/validation/test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

import numpy as np

from . import feature_assembly
from .errors import SchemaError, located
from .gsm_vif import VifFeatureTensor
from .ioutil import (
    csv_text,
    finite_float,
    read_csv,
    read_json,
    write_json,
)

CRF_MIN, CRF_MAX = 18, 50
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)
_SPLIT_FORMAT = "ladderforge-split v1"


def checked(convert, ok, rule: str):
    """A read_csv converter: convert the field, then raise unless ok(value)."""
    def convert_checked(text: str):
        value = convert(text)
        if not ok(value):
            raise SchemaError(f"{value!r} {rule}")
        return value
    return convert_checked


# One converter per column rule, shared by every file holding that column:
# the encode log, the features CSV, the ladder CSV and the encoder's stdout
# report.
VIDEO_ID = checked(str, bool, "must not be empty")
DIMENSION = checked(int, lambda v: v > 0, "must be > 0")
CRF = checked(int, lambda v: CRF_MIN <= v <= CRF_MAX, f"outside [{CRF_MIN}, {CRF_MAX}]")
BITRATE = checked(finite_float, lambda v: v > 0, "must be > 0")
VMAF = checked(finite_float, lambda v: 0.0 <= v <= 100.0, "outside [0, 100]")


@dataclass(frozen=True)
class EncodeRecord:
    """One row of an encode log."""

    video_id: str
    width: int
    height: int
    crf: int
    bitrate_bps: float
    vmaf: float


SCHEMA = tuple(f.name for f in fields(EncodeRecord))
_CONVERTERS = (VIDEO_ID, DIMENSION, DIMENSION, CRF, BITRATE, VMAF)


@dataclass(frozen=True)
class SplitManifest:
    seed: int
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def parse_encode_log(path) -> list[EncodeRecord]:
    """Read an encode log: every field meets its column's rule, no cell repeats."""
    records: list[EncodeRecord] = []
    seen: set[tuple] = set()
    for line, fields in read_csv(path, SCHEMA, _CONVERTERS):
        record = EncodeRecord(*fields)
        key = (record.video_id, record.width, record.height, record.crf)
        if key in seen:
            raise SchemaError(f"{path} line {line}: repeated cell {key}")
        seen.add(key)
        records.append(record)
    return records


def encode_log_text(records) -> str:
    return csv_text(SCHEMA, records)


def make_split(video_ids, seed: int) -> SplitManifest:
    """Partition distinct video ids into train/validation/test.

    Part sizes are floor(fraction * n) for the SPLIT_FRACTIONS, with the
    remainder assigned to train. The shuffle is seeded over the sorted id
    list, so the result depends only on the id set and the seed.
    """
    ids = sorted(set(video_ids))
    if len(ids) < 3:
        raise SchemaError(f"need at least 3 distinct videos, got {len(ids)}")
    random.Random(seed).shuffle(ids)
    n = len(ids)
    n_val = int(SPLIT_FRACTIONS[1] * n)
    n_test = int(SPLIT_FRACTIONS[2] * n)
    n_train = n - n_val - n_test  # floor(train) plus any remainder
    train = ids[:n_train]
    validation = ids[n_train:n_train + n_val]
    test = ids[n_train + n_val:]
    return SplitManifest(
        seed, tuple(sorted(train)), tuple(sorted(validation)), tuple(sorted(test))
    )


def save_split(split: SplitManifest, path) -> None:
    write_json(path, {
        "format": _SPLIT_FORMAT,
        "seed": split.seed,
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    })


def load_split(path) -> SplitManifest:
    payload = read_json(path, "split manifest")
    if payload.get("format") != _SPLIT_FORMAT:
        raise SchemaError(f"{path}: unknown split manifest format {payload.get('format')!r}")
    seed = payload.get("seed")
    ids = [payload.get(key) for key in ("train", "validation", "test")]
    if type(seed) is not int or not all(
        isinstance(part, list) and all(isinstance(v, str) for v in part) for part in ids
    ):
        raise SchemaError(
            f"malformed split manifest {path}: needs an integer seed and "
            "train, validation and test lists of video ids"
        )
    split = SplitManifest(seed, *map(tuple, ids))
    parts = [set(split.train), set(split.validation), set(split.test)]
    if sum(len(p) for p in parts) != len(parts[0] | parts[1] | parts[2]):
        raise SchemaError(f"{path}: split manifest parts overlap")
    return split


def build_training_matrix(
    records, tensors: dict[str, VifFeatureTensor], approach: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (X, y) of the records in record order, X in the approach's layout.

    y is the quality score scaled to [0, 1]. Training always uses the
    measured bitrate of the encode, not a nominal target rate. A video
    whose tensor the approach cannot use is named in the error.
    """
    missing = next((r.video_id for r in records if r.video_id not in tensors), None)
    if missing is not None:
        raise SchemaError(f"no feature tensor for video {missing!r}")
    for video_id in dict.fromkeys(r.video_id for r in records):
        with located(f"video {video_id!r}"):
            feature_assembly.require_motion(approach, [tensors[video_id]])
    X = feature_assembly.assemble(
        approach,
        [tensors[r.video_id] for r in records],
        [r.bitrate_bps for r in records],
        [r.width for r in records],
        [r.height for r in records],
    )
    return X, np.array([r.vmaf / 100.0 for r in records])
