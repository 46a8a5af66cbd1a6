"""Encode logs, corpus splits, and training-matrix construction.

An encode log is ground truth from actual encodes: one row per
(video, resolution, crf) cell carrying the measured bitrate and quality
score. Splits are by video so no title leaks across train/validation/test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from . import feature_assembly
from .errors import (
    DuplicateKey,
    MissingTensor,
    RangeError,
    SchemaError,
    TooFewVideos,
)
from .gsm_vif import VifFeatureTensor
from .ioutil import atomic_write_bytes, atomic_write_text

SCHEMA = ("video_id", "width", "height", "crf", "bitrate_bps", "vmaf")
CRF_MIN, CRF_MAX = 18, 50
VMAF_MIN, VMAF_MAX = 0.0, 100.0
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)
_SPLIT_FORMAT = "ladderforge-split v1"


@dataclass(frozen=True)
class EncodeRecord:
    video_id: str
    width: int
    height: int
    crf: int
    bitrate_bps: float
    vmaf: float


@dataclass(frozen=True)
class SplitManifest:
    seed: int
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


def _validate_record(record: EncodeRecord, line: int, resolutions) -> None:
    if not (CRF_MIN <= record.crf <= CRF_MAX):
        raise RangeError(f"line {line}: crf {record.crf} outside [{CRF_MIN}, {CRF_MAX}]")
    if not (math.isfinite(record.bitrate_bps) and record.bitrate_bps > 0):
        raise RangeError(f"line {line}: bitrate {record.bitrate_bps} must be finite and > 0")
    if not (VMAF_MIN <= record.vmaf <= VMAF_MAX):
        raise RangeError(f"line {line}: vmaf {record.vmaf} outside [0, 100]")
    if record.width <= 0 or record.height <= 0:
        raise RangeError(f"line {line}: non-positive dimensions")
    if resolutions is not None and (record.width, record.height) not in resolutions:
        raise RangeError(
            f"line {line}: {record.width}x{record.height} not in the configured "
            f"resolution set"
        )


def parse_encode_log(path, resolutions=None) -> list[EncodeRecord]:
    """Read and validate an encode log.

    resolutions, when given, is the allowed set of (width, height) pairs;
    without it any positive geometry is accepted.
    """
    if resolutions is not None:
        resolutions = {tuple(r) for r in resolutions}
    records: list[EncodeRecord] = []
    seen: set[tuple] = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != SCHEMA:
            raise SchemaError(f"header must be {','.join(SCHEMA)}, got {header}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SCHEMA):
                raise SchemaError(f"line {line}: expected {len(SCHEMA)} fields, got {len(row)}")
            vid = row[0]
            if not vid:
                raise SchemaError(f"line {line}: empty video_id")
            try:
                record = EncodeRecord(
                    vid, int(row[1]), int(row[2]), int(row[3]), float(row[4]), float(row[5])
                )
            except ValueError as exc:
                raise SchemaError(f"line {line}: {exc}") from None
            _validate_record(record, line, resolutions)
            key = (record.video_id, record.width, record.height, record.crf)
            if key in seen:
                raise DuplicateKey(f"line {line}: repeated cell {key}")
            seen.add(key)
            records.append(record)
    return records


def encode_log_text(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEMA)
    for r in records:
        writer.writerow([r.video_id, r.width, r.height, r.crf, repr(float(r.bitrate_bps)), repr(float(r.vmaf))])
    return buf.getvalue()


def write_encode_log(records, path) -> None:
    atomic_write_text(path, encode_log_text(records))


def make_split(video_ids, seed: int, fractions=SPLIT_FRACTIONS) -> SplitManifest:
    """Partition distinct video ids into train/validation/test.

    Part sizes are floor(fraction * n) with the remainder assigned to
    train. The shuffle is seeded over the sorted id list, so the result
    depends only on the id set and the seed.
    """
    ids = sorted(set(video_ids))
    if len(ids) < 3:
        raise TooFewVideos(f"need at least 3 distinct videos, got {len(ids)}")
    random.Random(seed).shuffle(ids)
    n = len(ids)
    n_val = int(fractions[1] * n)
    n_test = int(fractions[2] * n)
    n_train = n - n_val - n_test  # floor(train) plus any remainder
    train = ids[:n_train]
    validation = ids[n_train:n_train + n_val]
    test = ids[n_train + n_val:]
    return SplitManifest(
        seed, tuple(sorted(train)), tuple(sorted(validation)), tuple(sorted(test))
    )


def save_split(split: SplitManifest, path) -> None:
    payload = {
        "format": _SPLIT_FORMAT,
        "seed": split.seed,
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }
    atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())


def load_split(path) -> SplitManifest:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"unreadable split manifest {path}: {exc}") from None
    if payload.get("format") != _SPLIT_FORMAT:
        raise SchemaError(f"unknown split manifest format {payload.get('format')!r}")
    try:
        split = SplitManifest(
            int(payload["seed"]),
            tuple(payload["train"]),
            tuple(payload["validation"]),
            tuple(payload["test"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed split manifest: {exc}") from None
    parts = [set(split.train), set(split.validation), set(split.test)]
    if sum(len(p) for p in parts) != len(parts[0] | parts[1] | parts[2]):
        raise SchemaError("split manifest parts overlap")
    return split


def build_training_matrix(
    records, tensors: dict[str, VifFeatureTensor], approach: int
) -> list[tuple[feature_assembly.FeatureVector, float]]:
    """Assemble (feature vector, target) rows in record order.

    The target is the quality score scaled to [0, 1]. Training always uses
    the measured bitrate of the encode, not a nominal target rate.
    """
    rows = []
    for record in records:
        tensor = tensors.get(record.video_id)
        if tensor is None:
            raise MissingTensor(f"no feature tensor for video {record.video_id!r}")
        meta = feature_assembly.EncodeMeta(record.bitrate_bps, record.width, record.height)
        vec = feature_assembly.assemble(approach, tensor, meta, target=record.vmaf / 100.0)
        rows.append((vec, record.vmaf / 100.0))
    return rows
