"""Numpy-only second route to the frame information features of one plane.

It follows the method as the README and the paper state it, written
apart from the package: a 5x5 binomial kernel applied by direct 2-D
convolution (the package uses two 1-D passes), 2x2 analysis filters,
3x3 blocks, and numpy.linalg.eigh in place of the package's Jacobi
solver. Agreement is expected to rounding, not bit for bit; RTOL states
how far the two routes may drift.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-6
NOISE_VAR = 2.0
RANK_CUT = 1e-10
_TAPS = np.array([1.0, 4.0, 6.0, 4.0, 1.0])
KERNEL = np.outer(_TAPS, _TAPS) / 256.0
BAND_FILTERS = (
    np.array([[-1.0, 1.0], [-1.0, 1.0]]) / 4.0,   # band 1: x difference, y average
    np.array([[-1.0, -1.0], [1.0, 1.0]]) / 4.0,   # band 2: y difference, x average
)


def blur(plane: np.ndarray) -> np.ndarray:
    """Same-size 5x5 convolution with edge replication, tap by tap."""
    h, w = plane.shape
    padded = np.pad(plane, 2, mode="edge")
    out = np.zeros_like(plane)
    for i in range(5):
        for j in range(5):
            out += KERNEL[i, j] * padded[i:i + h, j:j + w]
    return out


def valid_filter(plane: np.ndarray, taps: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    out = np.zeros((h - 1, w - 1))
    for i in range(2):
        for j in range(2):
            out += taps[i, j] * plane[i:i + h - 1, j:j + w - 1]
    return out


def band_information(coeffs: np.ndarray) -> np.ndarray:
    """Per-eigenchannel information of one subband, largest eigenvalue first."""
    by, bx = coeffs.shape[0] // 3, coeffs.shape[1] // 3
    blocks = np.stack([coeffs[i:3 * by:3, j:3 * bx:3].ravel()
                       for i in range(3) for j in range(3)], axis=1)
    z = blocks - blocks.mean(axis=0)
    lam, vec = np.linalg.eigh(z.T @ z / len(z))
    lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1]
    keep = lam > RANK_CUT * lam.max()
    if lam.max() <= 0.0:
        return np.zeros(9)
    s2 = ((z @ vec[:, keep]) ** 2 / lam[keep]).sum(axis=1) / 9.0
    return np.log2(1.0 + np.outer(s2, lam) / NOISE_VAR).mean(axis=0)


def frame_features(samples: np.ndarray, peak: float) -> dict[str, float]:
    """frame_info_* columns of the features CSV for a single-frame clip."""
    level = samples.astype(np.float64) / peak * 255.0
    out = {}
    for s in range(1, 5):
        if s > 1:
            level = blur(level)[::2, ::2][: level.shape[0] // 2, : level.shape[1] // 2]
        bands = []
        for b, taps in enumerate(BAND_FILTERS, start=1):
            info = band_information(valid_filter(level, taps))
            for j, v in enumerate(info, start=1):
                out[f"frame_info_s{s}_b{b}_e{j}"] = float(v)
            out[f"frame_info_s{s}_b{b}"] = float(info.sum())
            bands.append(float(info.sum()))
        out[f"frame_info_s{s}"] = 0.5 * sum(bands)
    return out
