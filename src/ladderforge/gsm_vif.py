"""Information features from a Gaussian scale mixture fit of subband blocks.

Each oriented subband at each of the four scales is tiled into 3x3 blocks
(vectors of dimension 9). The block population is modelled as a Gaussian
scale mixture: block_i ~ s_i * U with U zero-mean Gaussian. The features
are the average per-eigenchannel information log2(1 + s_i^2 lambda_j /
sigma_n^2), summed per band and averaged across the two bands per scale.

The information is measured in 8-bit-equivalent luma units, so the
default noise floor of 2.0 matches the classic pixel-domain convention
and is independent of source bit depth. The pyramid, the subbands and the
fit run on a frame's integer samples as read, where every linear stage is
exact (see pyramid). Only the eigenvalues carry the unit: the multipliers
do not depend on the scale of the samples, and the covariance of samples
on a peak-code scale is the 8-bit covariance divided by (255 / peak)^2,
so the information uses lambda * (255 / peak)^2. A difference plane's
subbands are its two frames' subbands subtracted, so a video builds one
pyramid per frame.

Level 0 of integer samples of at most 16 bits is split and kept in
float32, which holds its quarter-integer values exactly: they are below
2^17 in magnitude, differences of two frames' included (see pyramid).
They become float64 only in extract_block_vectors' copy. Real planes,
wider integers, levels 1-3 and the whole fit stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .media_io import LumaFrame, frame_diff, mean_abs_luma_diff
from .pyramid import NUM_SCALES, build_scale_stack, subband_decompose

BLOCK_SIZE = 3
BLOCK_DIM = BLOCK_SIZE * BLOCK_SIZE
NUM_BANDS = 2
DEFAULT_NOISE_VAR = 2.0
_PEAK_8BIT = 255.0
_RANK_REL_TOL = 1e-10    # pseudo-inverse rank cut vs largest eigenvalue

# one plane's 84 values in features-CSV order: information per eigenchannel
# (scale, band, channel), its totals per band (scale, band), and per scale
# half the sum of the two bands
_EIG_END = NUM_SCALES * NUM_BANDS * BLOCK_DIM
_BAND_END = _EIG_END + NUM_SCALES * NUM_BANDS
PLANE_SPANS = {
    "eig": slice(0, _EIG_END),
    "band": slice(_EIG_END, _BAND_END),
    "scale": slice(_BAND_END, _BAND_END + NUM_SCALES),
}
FRAME_FEATURE_COUNT = PLANE_SPANS["scale"].stop
TENSOR_VALUE_COUNT = 2 * FRAME_FEATURE_COUNT + 1
MOTION_INDEX = TENSOR_VALUE_COUNT - 1


@dataclass(frozen=True)
class VifFeatureTensor:
    """Temporally pooled features of one video.

    values holds the 169 data columns of the features CSV in their order:
    the pooled frame plane vector, the pooled difference plane vector and
    the motion value at MOTION_INDEX. A single-frame video holds zeros in
    the difference slots and the motion slot.
    """

    values: np.ndarray
    frame_count: int

    @property
    def has_motion(self) -> bool:
        return self.frame_count > 1


def jacobi_eigh(matrix):
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Returns (eigenvalues descending, eigenvectors as columns in matching
    order); values are raw, not clamped. The name predates the switch from
    cyclic Jacobi rotations and is kept because the benchmark's traced run
    (perfbench/layers.py) wraps gsm_vif.jacobi_eigh by name.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SchemaError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-8 * scale:
        raise SchemaError("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh((a + a.T) / 2.0)
    return eigvals[::-1], eigvecs[:, ::-1]


def extract_block_vectors(subband) -> np.ndarray:
    """Non-overlapping 3x3 tiles flattened row-major into (N, 9).

    Rows and columns that do not fill a whole tile are dropped. The result
    is the transpose of a fresh float64 channel-major (9, N) array, whose
    row c holds tile position c of every block in one contiguous run; it
    never shares memory with the subband, which is cast only as it is
    copied into those rows.
    """
    coeffs = np.asarray(subband)
    if coeffs.ndim != 2:
        raise SchemaError(f"expected a 2-D subband, got shape {coeffs.shape}")
    rows, cols = coeffs.shape
    by, bx = rows // BLOCK_SIZE, cols // BLOCK_SIZE
    if by == 0 or bx == 0:
        raise SchemaError(
            f"{cols}x{rows} subband cannot host a {BLOCK_SIZE}x{BLOCK_SIZE} block"
        )
    channels = np.empty((BLOCK_DIM, by, bx))
    for c in range(BLOCK_DIM):
        dy, dx = divmod(c, BLOCK_SIZE)
        channels[c] = coeffs[dy : by * BLOCK_SIZE : BLOCK_SIZE, dx : bx * BLOCK_SIZE : BLOCK_SIZE]
    return channels.reshape(BLOCK_DIM, by * bx).T


def _centered_channels(vectors, overwrite: bool = False) -> np.ndarray:
    """(N, 9) vectors as channel-major (9, N) rows, each minus its mean.

    With overwrite set, the rows are vectors.T itself, centred in place,
    when that is already a C-contiguous float64 array (as the result of
    extract_block_vectors is); otherwise they are a copy.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise SchemaError(f"expected (N, {BLOCK_DIM}) vectors, got {vectors.shape}")
    channels = vectors.T.astype(np.float64, order="C", copy=not overwrite)
    channels -= channels.mean(axis=1, keepdims=True)
    return channels


def _fit_eigen(vectors, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One subband's whole fit: centre once, decompose once, whiten once.

    Returns (covariance, clamped eigenvalues descending, multipliers).
    overwrite lets the fit centre vectors in place, for a block copy
    that nothing else reads.
    """
    channels = _centered_channels(vectors, overwrite)
    cov = channels @ channels.T / channels.shape[1]
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    return cov, eigvals, _whitened_energy(channels, eigvals, eigvecs)


def _whitened_energy(channels, eigenvalues, eigenvectors) -> np.ndarray:
    """s_i^2 = |V_k^T z_i / sqrt(lambda_k)|^2 / block_dim over the kept
    eigenchannels k, with z_i column i of the centred (9, N) channel rows."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    lam_max = eigenvalues.max(initial=0.0)
    keep = eigenvalues > _RANK_REL_TOL * lam_max
    if lam_max <= 0.0 or not keep.any():
        return np.zeros(channels.shape[1])
    whitened = (eigenvectors[:, keep] / np.sqrt(eigenvalues[keep])).T @ channels
    return np.einsum("ki,ki->i", whitened, whitened) / channels.shape[0]


def estimate_multipliers(vectors, covariance) -> np.ndarray:
    """Per-block scale multipliers s_i^2 maximizing the Gaussian likelihood.

    s_i^2 = z_i^T C+ z_i / block_dim with z_i the mean-removed
    block and C+ the pseudo-inverse of the fitted covariance, computed in
    its eigenbasis with eigenvalues below 1e-10 * max treated as zero.
    """
    channels = _centered_channels(vectors)
    eigenvalues, eigenvectors = jacobi_eigh(covariance)
    return _whitened_energy(channels, np.maximum(eigenvalues, 0.0), eigenvectors)


def subband_information(multipliers, eigenvalues, noise_var: float) -> tuple[np.ndarray, float]:
    """Average per-eigenchannel information and its band total.

    per_eig[j] = mean_i log2(1 + s_i^2 * lambda_j / noise_var). Each
    channel's terms form one contiguous row, along which numpy's mean sums
    pairwise, so its rounding error grows with log N, not with N.
    """
    if noise_var <= 0.0:
        raise SchemaError(f"noise variance must be > 0, got {noise_var}")
    s2 = np.asarray(multipliers, dtype=np.float64)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if s2.size == 0:
        raise SchemaError("no multipliers")
    info = np.outer(lam / noise_var, s2)
    info += 1.0
    per_eig = np.log2(info, out=info).mean(axis=1)
    return per_eig, float(per_eig.sum())


def plane_subbands(plane) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both subbands of each pyramid level of a 2-D plane, on the plane's
    own scale; each level is dropped once it is split. Level 0 of integer
    samples of at most 16 bits is split in float32, which is exact."""
    levels = list(build_scale_stack(plane))
    dtype = np.asarray(plane).dtype
    if dtype.kind in "iu" and dtype.itemsize <= 2:
        levels[0] = levels[0].astype(np.float32)
    return [subband_decompose(levels.pop(0)) for _ in range(NUM_SCALES)]


def frame_vif_features(frame, noise_var: float = DEFAULT_NOISE_VAR, subbands=None) -> np.ndarray:
    """Information features of one luma or difference plane: the 84-value
    plane vector laid out as PLANE_SPANS says.

    frame is a LumaFrame or a bare 2-D plane normalized to [0, 1]. subbands,
    when given, stand for plane_subbands of the frame's raw samples: one
    iterable per scale of its two subbands, which may be generated one at
    a time so that only the subband being fitted exists.

    Scales whose subbands are too small for a single 3x3 block (possible
    for frames near the 16x16 minimum) contribute zeros, which keeps the
    feature layout fixed and the per-band/per-scale identities intact.
    """
    if noise_var <= 0.0:
        raise SchemaError(f"noise variance must be > 0, got {noise_var}")
    if isinstance(frame, LumaFrame):
        plane, peak = frame.raw, frame.peak
    else:
        plane, peak = frame, 1.0
    if subbands is None:
        subbands = plane_subbands(plane)
    eig_scale = (_PEAK_8BIT / peak) ** 2

    features = np.zeros(FRAME_FEATURE_COUNT)
    per_eig = features[PLANE_SPANS["eig"]].reshape(NUM_SCALES, NUM_BANDS, BLOCK_DIM)
    per_band = features[PLANE_SPANS["band"]].reshape(NUM_SCALES, NUM_BANDS)
    for k, pair in enumerate(subbands):
        # a generated difference subband is dropped once its blocks exist
        # (next() rather than enumerate(), whose cached result tuple would
        # keep it), and the blocks before the next subband is formed
        pair = iter(pair)
        for b in range(NUM_BANDS):
            subband = next(pair)
            rows, cols = subband.shape
            if rows < BLOCK_SIZE or cols < BLOCK_SIZE:
                continue
            blocks = extract_block_vectors(subband)
            del subband
            _, eigvals, s2 = _fit_eigen(blocks, overwrite=True)
            del blocks
            per_eig[k, b], per_band[k, b] = subband_information(s2, eigvals * eig_scale, noise_var)
    features[PLANE_SPANS["scale"]] = 0.5 * per_band.sum(axis=1)
    return features


def pool_video(frame_feats, diff_feats, motions) -> VifFeatureTensor:
    """Arithmetic temporal mean of per-frame and per-difference plane vectors.

    diff_feats and motions must hold one entry per consecutive frame pair
    (empty for a single-frame video, whose difference slots and motion
    are written as zeros).
    """
    frame_feats = list(frame_feats)
    diff_feats = list(diff_feats)
    motions = list(motions)
    if not frame_feats:
        raise SchemaError("no frames to pool")
    expected = len(frame_feats) - 1
    if len(diff_feats) != expected or len(motions) != expected:
        raise SchemaError(
            f"{len(frame_feats)} frames need {expected} diffs/motions, "
            f"got {len(diff_feats)}/{len(motions)}"
        )
    if expected == 0:
        diff_feats, motions = [np.zeros(FRAME_FEATURE_COUNT)], [0.0]
    values = np.concatenate([
        np.mean(frame_feats, axis=0), np.mean(diff_feats, axis=0), [float(np.mean(motions))]
    ])
    return VifFeatureTensor(values, len(frame_feats))


def video_features(frames, noise_var: float = DEFAULT_NOISE_VAR) -> VifFeatureTensor:
    """Run the whole per-video pipeline over an iterable of LumaFrames.

    Each frame's subbands are kept until the next frame. The difference
    plane's subbands are the two frames' subbands subtracted, each formed
    just before its fit, so a difference plane never gets a pyramid.
    """
    frame_feats: list[np.ndarray] = []
    diff_feats: list[np.ndarray] = []
    motions: list[float] = []
    previous: LumaFrame | None = None
    previous_subbands = None
    for frame in frames:
        subbands = plane_subbands(frame.raw)
        frame_feats.append(frame_vif_features(frame, noise_var, subbands))
        if previous is not None:
            diff = frame_diff(frame, previous)
            motions.append(mean_abs_luma_diff(diff))
            diff_subbands = (
                (band - previous_band for band, previous_band in zip(pair, previous_pair))
                for pair, previous_pair in zip(subbands, previous_subbands)
            )
            diff_feats.append(frame_vif_features(diff, noise_var, diff_subbands))
        previous, previous_subbands = frame, subbands
    return pool_video(frame_feats, diff_feats, motions)


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
