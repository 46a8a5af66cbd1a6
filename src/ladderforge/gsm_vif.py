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
on a peak-code scale is the 8-bit covariance divided by unit^2, where
unit = 255 / peak (LumaFrame.unit), so the information uses
lambda * unit^2. A video builds one pyramid per frame and keeps a frame's
levels until the next frame. A difference plane's levels are its integer
samples at level 0 and the two frames' levels subtracted above it, so it
never gets a pyramid of its own; it may be fitted on a second thread
while the frame plane is fitted (video_features).

Which float type each pyramid level is split in is the pyramid's rule
(see pyramid). Each subband is formed just before its fit and dropped
after it; extract_block_vectors copies it to float64, as nine channel rows
of one (9, N) array that the fit then works on in place.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import SchemaError
from .media_io import LumaFrame, frame_diff, mean_abs_luma_diff
from .pyramid import NUM_SCALES, build_scale_stack, subband_decompose

BLOCK_SIZE = 3
BLOCK_DIM = BLOCK_SIZE * BLOCK_SIZE
NUM_BANDS = 2
DEFAULT_NOISE_VAR = 2.0
_RANK_REL_TOL = 1e-10    # pseudo-inverse rank cut vs largest eigenvalue
_CHUNK = 1 << 15         # blocks per whitening matmul, values per information pass

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
    """Non-overlapping 3x3 tiles as a fresh channel-major (9, N) float64 array.

    Row c holds tile position c (row-major within the tile) of every
    block in one contiguous run, and column i is block i, blocks running
    left to right, then top to bottom. Rows and columns that do not fill
    a whole tile are dropped. The result never shares memory with the
    subband, which is cast only as it is copied into the rows.
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
    return channels.reshape(BLOCK_DIM, by * bx)


def _fit_eigen(channels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One subband's whole fit: centre once, decompose once, whiten once.

    channels are the (9, N) float64 rows of extract_block_vectors; each is
    centred in place. Returns (covariance, clamped eigenvalues descending,
    multipliers).
    """
    channels -= channels.mean(axis=1, keepdims=True)
    cov = channels @ channels.T / channels.shape[1]
    eigvals, eigvecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    return cov, eigvals, _whitened_energy(channels, eigvals, eigvecs)


def _whitened_energy(channels, eigenvalues, eigenvectors) -> np.ndarray:
    """s_i^2 = |V_k^T z_i / sqrt(lambda_k)|^2 / block_dim over the kept
    eigenchannels k, with z_i column i of the centred (9, N) channel rows.

    The blocks are whitened _CHUNK columns at a time, so no (k, N) array
    exists. Chunks start at multiples of _CHUNK, and a one-column tail
    joins the chunk before it: each s_i^2 is then the same bits as from
    one (k, 9) @ (9, N) product, because every chunk is a matrix-matrix
    product whose columns BLAS rounds as in the whole one. A one-column
    product takes numpy's matrix-vector path, which rounds differently.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    lam_max = eigenvalues.max(initial=0.0)
    keep = eigenvalues > _RANK_REL_TOL * lam_max
    n = channels.shape[1]
    if lam_max <= 0.0 or not keep.any():
        return np.zeros(n)
    basis = (eigenvectors[:, keep] / np.sqrt(eigenvalues[keep])).T
    energy = np.empty(n)
    start = 0
    for stop in [*range(_CHUNK, n - 1, _CHUNK), n]:  # no chunk ends at n - 1
        whitened = basis @ channels[:, start:stop]
        np.einsum("ki,ki->i", whitened, whitened, out=energy[start:stop])
        del whitened  # else it is held while the next chunk is formed
        start = stop
    energy /= channels.shape[0]
    return energy


def estimate_multipliers(vectors, covariance) -> np.ndarray:
    """Per-block scale multipliers s_i^2 maximizing the Gaussian likelihood.

    s_i^2 = z_i^T C+ z_i / block_dim with z_i the mean-removed
    block and C+ the pseudo-inverse of the fitted covariance, computed in
    its eigenbasis with eigenvalues below 1e-10 * max treated as zero.
    vectors are (N, 9), one block per row, and are left unchanged.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise SchemaError(f"expected (N, {BLOCK_DIM}) vectors, got {vectors.shape}")
    channels = vectors.T.astype(np.float64, order="C")
    channels -= channels.mean(axis=1, keepdims=True)
    eigenvalues, eigenvectors = jacobi_eigh(covariance)
    return _whitened_energy(channels, np.maximum(eigenvalues, 0.0), eigenvectors)


def validate_noise_var(noise_var: float) -> None:
    """The noise floor sigma_n^2 must be a finite number > 0."""
    if not 0.0 < noise_var < math.inf:
        raise SchemaError(f"sigma_n2 must be finite and > 0, got {noise_var}")


def subband_information(multipliers, eigenvalues, noise_var: float) -> tuple[np.ndarray, float]:
    """Average per-eigenchannel information and its band total.

    per_eig[j] = mean_i log2(1 + s_i^2 * lambda_j / noise_var). The terms
    of as many eigenchannels as fit in _CHUNK values, and at least one,
    are formed at a time in one reused array, so past _CHUNK / 9 blocks no
    (9, N) array exists. Unlike the whitening's column chunks (starts at
    multiples of _CHUNK, no one-column tail; see _whitened_energy), a
    channel's terms are never split: they are one whole contiguous row,
    along which numpy's mean sums pairwise as along a row of one (9, N)
    array. So the bits are the same, and the rounding error grows with
    log N, not with N.
    """
    validate_noise_var(noise_var)
    s2 = np.asarray(multipliers, dtype=np.float64).ravel()
    if s2.size == 0:
        raise SchemaError("no multipliers")
    # a noise floor near the smallest float can take a term past the
    # largest one; that is reported below, so numpy need not warn
    with np.errstate(over="ignore"):
        gains = np.asarray(eigenvalues, dtype=np.float64).ravel() / noise_var
        rows = max(1, _CHUNK // s2.size)
        per_eig = np.empty(gains.size)
        slab = np.empty((min(rows, gains.size), s2.size))
        for j in range(0, gains.size, rows):
            part = gains[j : j + rows]
            info = np.multiply.outer(part, s2, out=slab[: part.size])
            info += 1.0
            per_eig[j : j + rows] = np.log2(info, out=info).mean(axis=1)
    if np.isinf(per_eig).any():
        raise SchemaError(f"sigma_n2 {noise_var} is too small: the information overflows")
    return per_eig, float(per_eig.sum())


def frame_vif_features(frame, noise_var: float = DEFAULT_NOISE_VAR, levels=None) -> np.ndarray:
    """Information features of one luma or difference plane: the 84-value
    plane vector laid out as PLANE_SPANS says.

    frame is a LumaFrame, or a bare 2-D plane taken as LumaFrame(plane),
    that is, normalized to [0, 1]. levels, when given, stand for
    build_scale_stack of the frame's raw samples, one per scale; they may
    be generated one at a time. Each level is split one subband at a
    time, so only the subband being fitted exists.

    Scales whose subbands are too small for a single 3x3 block (possible
    for frames near the 16x16 minimum) contribute zeros, which keeps the
    feature layout fixed and the per-band/per-scale identities intact.
    """
    validate_noise_var(noise_var)
    if not isinstance(frame, LumaFrame):
        frame = LumaFrame(frame)
    if levels is None:
        levels = build_scale_stack(frame.raw)
    eig_scale = frame.unit ** 2

    features = np.zeros(FRAME_FEATURE_COUNT)
    per_eig = features[PLANE_SPANS["eig"]].reshape(NUM_SCALES, NUM_BANDS, BLOCK_DIM)
    per_band = features[PLANE_SPANS["band"]].reshape(NUM_SCALES, NUM_BANDS)
    for k, level in enumerate(levels):
        for b in range(NUM_BANDS):
            # the subband is dropped once its blocks exist, and the blocks
            # before the next subband is formed
            subband = subband_decompose(level, b + 1)
            rows, cols = subband.shape
            if rows < BLOCK_SIZE or cols < BLOCK_SIZE:
                continue
            channels = extract_block_vectors(subband)
            del subband
            _, eigvals, s2 = _fit_eigen(channels)
            del channels
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


def video_features(frames, noise_var: float = DEFAULT_NOISE_VAR,
                   overlap: bool = False) -> VifFeatureTensor:
    """Run the whole per-video pipeline over an iterable of LumaFrames.

    Each frame's pyramid levels are kept until the next frame. A
    difference plane's levels are frame_diff's integer samples at level 0
    and the two frames' levels subtracted above it, each formed just
    before its subbands, so a difference plane never gets a pyramid.

    With overlap, each difference plane is fitted on a second thread
    while the caller fits the frame plane; the two fits share no array
    they write, so the values are the same bits either way. The thread
    ends before this returns or raises, and an error raised on it is
    raised here.
    """
    frame_feats: list[np.ndarray] = []
    diff_feats: list[np.ndarray] = []
    motions: list[float] = []
    previous: LumaFrame | None = None
    previous_levels = None
    with ThreadPoolExecutor(1) if overlap else nullcontext() as pool:
        for frame in frames:
            levels = build_scale_stack(frame.raw)
            diff_fit = None
            if previous is not None:
                diff = frame_diff(frame, previous)
                motions.append(mean_abs_luma_diff(diff))
                diff_levels = chain([diff.raw], map(np.subtract, levels[1:], previous_levels[1:]))
                diff_fit = partial(frame_vif_features, diff, noise_var, diff_levels)
                if pool is not None:
                    diff_fit = pool.submit(diff_fit).result
            frame_feats.append(frame_vif_features(frame, noise_var, levels))
            if diff_fit is not None:
                diff_feats.append(diff_fit())
            previous, previous_levels = frame, levels
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
