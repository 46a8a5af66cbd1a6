"""Information features from a Gaussian scale mixture fit of subband blocks.

Each oriented subband at each of the four scales is tiled into 3x3 blocks
(vectors of dimension 9). The block population is modelled as a Gaussian
scale mixture: block_i ~ s_i * U with U zero-mean Gaussian. The features
are the average per-eigenchannel information log2(1 + s_i^2 lambda_j /
sigma_n^2), summed per band and averaged across the two bands per scale.

Feature extraction runs in 8-bit-equivalent luma units (the normalized
[0, 1] plane is scaled by 255) so the default noise floor of 2.0 matches
the classic pixel-domain convention and is independent of source bit depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyVideo,
    FrameTooSmall,
    InvalidNoiseVariance,
    ShapeMismatch,
)
from .media_io import LumaFrame, frame_diff, mean_abs_luma_diff
from .pyramid import NUM_SCALES, build_scale_stack, subband_decompose

BLOCK_SIZE = 3
BLOCK_DIM = BLOCK_SIZE * BLOCK_SIZE
NUM_BANDS = 2
DEFAULT_NOISE_VAR = 2.0
_PEAK_8BIT = 255.0
_RANK_REL_TOL = 1e-10    # pseudo-inverse rank cut vs largest eigenvalue

FRAME_FEATURE_COUNT = NUM_SCALES * NUM_BANDS * BLOCK_DIM + NUM_SCALES * NUM_BANDS + NUM_SCALES
TENSOR_VALUE_COUNT = 2 * FRAME_FEATURE_COUNT + 1


@dataclass(frozen=True)
class FrameVifFeatures:
    """Per-frame information features.

    per_eig has shape (scale, band, eigenchannel) = (4, 2, 9); per_band is
    its sum over eigenchannels; per_scale is half the sum over bands.
    """

    per_eig: np.ndarray
    per_band: np.ndarray
    per_scale: np.ndarray

    def flatten(self) -> np.ndarray:
        """84 values in the documented order: 72 per-eig, 8 per-band, 4 per-scale."""
        return np.concatenate(
            [self.per_eig.ravel(), self.per_band.ravel(), self.per_scale]
        )


@dataclass(frozen=True)
class VifFeatureTensor:
    """Temporally pooled features for one video."""

    frame_feats: FrameVifFeatures
    diff_feats: FrameVifFeatures | None
    motion: float
    has_motion: bool
    frame_count: int


def jacobi_eigh(matrix):
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues descending, eigenvectors as columns in matching
    order); values are raw, not clamped. The name predates the switch from
    cyclic Jacobi rotations and is kept because the benchmark's traced run
    (perfbench/layers.py) wraps gsm_vif.jacobi_eigh by name.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DegenerateInput(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-8 * scale:
        raise DegenerateInput("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh((a + a.T) / 2.0)
    return eigvals[::-1], eigvecs[:, ::-1]


def extract_block_vectors(subband) -> np.ndarray:
    """Non-overlapping 3x3 tiles flattened row-major into (N, 9).

    Rows and columns that do not fill a whole tile are dropped.
    """
    coeffs = np.asarray(subband, dtype=np.float64)
    if coeffs.ndim != 2:
        raise DegenerateInput(f"expected a 2-D subband, got shape {coeffs.shape}")
    rows, cols = coeffs.shape
    by, bx = rows // BLOCK_SIZE, cols // BLOCK_SIZE
    if by == 0 or bx == 0:
        raise FrameTooSmall(
            f"{cols}x{rows} subband cannot host a {BLOCK_SIZE}x{BLOCK_SIZE} block"
        )
    tiles = coeffs[: by * BLOCK_SIZE, : bx * BLOCK_SIZE]
    tiles = tiles.reshape(by, BLOCK_SIZE, bx, BLOCK_SIZE)
    return tiles.transpose(0, 2, 1, 3).reshape(by * bx, BLOCK_DIM)


def _centered(vectors: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise DegenerateInput(f"expected (N, {BLOCK_DIM}) vectors, got {vectors.shape}")
    return vectors - vectors.mean(axis=0)


def fit_covariance(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Population covariance of mean-removed block vectors and its spectrum.

    Returns (covariance, eigenvalues descending); eigenvalues are clamped
    to be non-negative.
    """
    cov, eigvals, _ = _fit_eigen(vectors)
    return cov, eigvals


def _fit_eigen(vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One subband's whole fit: centre once, decompose once, whiten once.

    Returns (covariance, clamped eigenvalues descending, multipliers).
    """
    centered = _centered(vectors)
    cov = centered.T @ centered / centered.shape[0]
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    return cov, eigvals, _whitened_energy(centered, eigvals, eigvecs)


def _whitened_energy(centered, eigenvalues, eigenvectors) -> np.ndarray:
    """s_i^2 = |z_i V_k / sqrt(lambda_k)|^2 / block_dim over the kept channels k."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    lam_max = eigenvalues.max(initial=0.0)
    keep = eigenvalues > _RANK_REL_TOL * lam_max
    if lam_max <= 0.0 or not keep.any():
        return np.zeros(centered.shape[0])
    whitened = centered @ (eigenvectors[:, keep] / np.sqrt(eigenvalues[keep]))
    return np.maximum(np.einsum("ij,ij->i", whitened, whitened) / centered.shape[1], 0.0)


def estimate_multipliers(vectors, covariance, eigenvalues=None, eigenvectors=None) -> np.ndarray:
    """Per-block scale multipliers s_i^2 maximizing the Gaussian likelihood.

    s_i^2 = max(0, z_i^T C+ z_i / block_dim) with z_i the mean-removed
    block and C+ the pseudo-inverse of the fitted covariance, computed in
    its eigenbasis with eigenvalues below 1e-10 * max treated as zero.
    """
    centered = _centered(vectors)
    if eigenvectors is None:
        eigenvalues, eigenvectors = jacobi_eigh(covariance)
        eigenvalues = np.maximum(eigenvalues, 0.0)
    return _whitened_energy(centered, eigenvalues, eigenvectors)


def subband_information(multipliers, eigenvalues, noise_var: float) -> tuple[np.ndarray, float]:
    """Average per-eigenchannel information and its band total.

    per_eig[j] = mean_i log2(1 + s_i^2 * lambda_j / noise_var). The mean is
    numpy's pairwise reduction, so the result does not depend on how frames
    or blocks were scheduled upstream.
    """
    if noise_var <= 0.0:
        raise InvalidNoiseVariance(f"noise variance must be > 0, got {noise_var}")
    s2 = np.asarray(multipliers, dtype=np.float64)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if s2.size == 0:
        raise DegenerateInput("no multipliers")
    per_eig = np.log2(1.0 + np.outer(s2, lam) / noise_var).mean(axis=0)
    return per_eig, float(per_eig.sum())


def frame_vif_features(frame, noise_var: float = DEFAULT_NOISE_VAR) -> FrameVifFeatures:
    """Information features of one luma or difference plane.

    Scales whose subbands are too small for a single 3x3 block (possible
    for frames near the 16x16 minimum) contribute zeros, which keeps the
    feature layout fixed and the per-band/per-scale identities intact.
    """
    if noise_var <= 0.0:
        raise InvalidNoiseVariance(f"noise variance must be > 0, got {noise_var}")
    plane = np.asarray(getattr(frame, "samples", frame), dtype=np.float64)

    per_eig = np.zeros((NUM_SCALES, NUM_BANDS, BLOCK_DIM))
    per_band = np.zeros((NUM_SCALES, NUM_BANDS))
    per_scale = np.zeros(NUM_SCALES)
    for k, level in enumerate(build_scale_stack(plane * _PEAK_8BIT)):
        for b, subband in enumerate(subband_decompose(level)):
            rows, cols = subband.shape
            if rows < BLOCK_SIZE or cols < BLOCK_SIZE:
                continue
            _, eigvals, s2 = _fit_eigen(extract_block_vectors(subband))
            per_eig[k, b], per_band[k, b] = subband_information(s2, eigvals, noise_var)
        per_scale[k] = 0.5 * per_band[k].sum()
    return FrameVifFeatures(per_eig, per_band, per_scale)


def pool_video(frame_feats, diff_feats, motions) -> VifFeatureTensor:
    """Arithmetic temporal mean of per-frame and per-difference features.

    diff_feats and motions must hold one entry per consecutive frame pair
    (empty for a single-frame video, where motion is reported as 0 with
    has_motion False).
    """
    frame_feats = list(frame_feats)
    diff_feats = list(diff_feats)
    motions = list(motions)
    if not frame_feats:
        raise EmptyVideo("no frames to pool")
    expected = len(frame_feats) - 1
    if len(diff_feats) != expected or len(motions) != expected:
        raise ShapeMismatch(
            f"{len(frame_feats)} frames need {expected} diffs/motions, "
            f"got {len(diff_feats)}/{len(motions)}"
        )

    pooled_frame = _mean_features(frame_feats)
    if expected == 0:
        return VifFeatureTensor(pooled_frame, None, 0.0, False, 1)
    return VifFeatureTensor(
        pooled_frame,
        _mean_features(diff_feats),
        float(np.mean(motions)),
        True,
        len(frame_feats),
    )


def _mean_features(feats: list[FrameVifFeatures]) -> FrameVifFeatures:
    return FrameVifFeatures(
        per_eig=np.mean([f.per_eig for f in feats], axis=0),
        per_band=np.mean([f.per_band for f in feats], axis=0),
        per_scale=np.mean([f.per_scale for f in feats], axis=0),
    )


def video_features(frames, noise_var: float = DEFAULT_NOISE_VAR) -> VifFeatureTensor:
    """Run the whole per-video pipeline over an iterable of LumaFrames."""
    frame_feats: list[FrameVifFeatures] = []
    diff_feats: list[FrameVifFeatures] = []
    motions: list[float] = []
    previous: LumaFrame | None = None
    for frame in frames:
        frame_feats.append(frame_vif_features(frame, noise_var))
        if previous is not None:
            diff = frame_diff(frame, previous)
            diff_feats.append(frame_vif_features(diff, noise_var))
            motions.append(mean_abs_luma_diff(diff))
        previous = frame
    return pool_video(frame_feats, diff_feats, motions)


# ---------------------------------------------------------------------------
# flat tensor layout (CSV interchange)
# ---------------------------------------------------------------------------

def _feature_names(prefix: str) -> list[str]:
    names = [
        f"{prefix}_s{k}_b{b}_e{j}"
        for k in range(1, NUM_SCALES + 1)
        for b in range(1, NUM_BANDS + 1)
        for j in range(1, BLOCK_DIM + 1)
    ]
    names += [
        f"{prefix}_s{k}_b{b}"
        for k in range(1, NUM_SCALES + 1)
        for b in range(1, NUM_BANDS + 1)
    ]
    names += [f"{prefix}_s{k}" for k in range(1, NUM_SCALES + 1)]
    return names


def feature_column_names() -> list[str]:
    """169 data column names: frame features, diff features, motion."""
    return _feature_names("frame_info") + _feature_names("diff_info") + ["motion_mean_abs"]


def tensor_to_values(tensor: VifFeatureTensor) -> np.ndarray:
    """Flatten a tensor to the 169-value interchange layout.

    Single-frame videos have no difference features; those slots and the
    motion slot hold zeros and are distinguished on read by frame_count.
    """
    frame = tensor.frame_feats.flatten()
    if tensor.diff_feats is None:
        diff = np.zeros(FRAME_FEATURE_COUNT)
    else:
        diff = tensor.diff_feats.flatten()
    return np.concatenate([frame, diff, [tensor.motion]])


def _unflatten(values: np.ndarray) -> FrameVifFeatures:
    eig_len = NUM_SCALES * NUM_BANDS * BLOCK_DIM
    band_len = NUM_SCALES * NUM_BANDS
    return FrameVifFeatures(
        per_eig=values[:eig_len].reshape(NUM_SCALES, NUM_BANDS, BLOCK_DIM).copy(),
        per_band=values[eig_len:eig_len + band_len].reshape(NUM_SCALES, NUM_BANDS).copy(),
        per_scale=values[eig_len + band_len:].copy(),
    )


def tensor_from_values(values, frame_count: int) -> VifFeatureTensor:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (TENSOR_VALUE_COUNT,):
        raise ShapeMismatch(
            f"expected {TENSOR_VALUE_COUNT} values, got shape {values.shape}"
        )
    frame = _unflatten(values[:FRAME_FEATURE_COUNT])
    if frame_count <= 1:
        return VifFeatureTensor(frame, None, 0.0, False, frame_count)
    diff = _unflatten(values[FRAME_FEATURE_COUNT:2 * FRAME_FEATURE_COUNT])
    return VifFeatureTensor(frame, diff, float(values[-1]), True, frame_count)
