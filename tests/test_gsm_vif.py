import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ladderforge import cli, gsm_vif
from ladderforge.media_io import LumaFrame, VideoHeader
from ladderforge.errors import SchemaError

from helpers import conv2d_replicate, split_plane

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

BINOMIAL_2D = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0


def nll_oracle(s2, x, cov):
    """Negative log-likelihood of x ~ N(0, s2 * cov), evaluated directly."""
    m = len(x)
    scaled = s2 * cov
    sign, logdet = np.linalg.slogdet(scaled)
    assert sign > 0
    quad = x @ np.linalg.solve(scaled, x)
    return 0.5 * (m * math.log(2 * math.pi) + logdet + quad)


def grid_search_multiplier(x, cov, lo=1e-9, hi=None, points=400, stages=4):
    """Brute-force likelihood grid with staged refinement."""
    if hi is None:
        hi = max(float(x @ x), 1.0) * 10.0
    best = None
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        vals = [nll_oracle(s2, x, cov) for s2 in grid]
        i = int(np.argmin(vals))
        best = grid[i]
        step = grid[1] - grid[0]
        lo = max(1e-12, best - step)
        hi = best + step
    return best


def features_oracle(plane, noise_var):
    """Straight-line reimplementation of the whole per-frame feature path.

    Uses loop-based filters and numpy.linalg for the eigenproblem; shares no
    code with the package beyond numpy itself.
    """
    plane = np.asarray(plane, dtype=float) * 255.0
    per_eig = np.zeros((4, 2, 9))
    per_band = np.zeros((4, 2))
    per_scale = np.zeros(4)
    level = plane
    for k in range(4):
        if k > 0:
            blurred = conv2d_replicate(level, BINOMIAL_2D)
            h, w = blurred.shape
            level = blurred[0:2 * (h // 2):2, 0:2 * (w // 2):2]
        h, w = level.shape
        bands = [np.zeros((h - 1, w - 1)), np.zeros((h - 1, w - 1))]
        for y in range(h - 1):
            for x in range(w - 1):
                bands[0][y, x] = (level[y, x + 1] - level[y, x]
                                  + level[y + 1, x + 1] - level[y + 1, x]) / 4.0
                bands[1][y, x] = (level[y + 1, x] - level[y, x]
                                  + level[y + 1, x + 1] - level[y, x + 1]) / 4.0
        for b, coeffs in enumerate(bands):
            bh, bw = coeffs.shape
            if bh < 3 or bw < 3:
                continue
            vecs = []
            for by in range(bh // 3):
                for bx in range(bw // 3):
                    tile = coeffs[by * 3:by * 3 + 3, bx * 3:bx * 3 + 3]
                    vecs.append(tile.reshape(-1))
            X = np.array(vecs)
            mu = X.mean(axis=0)
            Z = X - mu
            C = Z.T @ Z / len(X)
            lam, V = np.linalg.eigh(C)
            order = np.argsort(lam)[::-1]
            lam, V = np.maximum(lam[order], 0.0), V[:, order]
            keep = lam > 1e-10 * (lam[0] if lam[0] > 0 else 1.0)
            s2 = np.zeros(len(X))
            for i, z in enumerate(Z):
                proj = V.T @ z
                q = sum(proj[j] ** 2 / lam[j] for j in range(9) if keep[j])
                s2[i] = max(0.0, q / 9.0)
            info = np.zeros(9)
            for j in range(9):
                acc = 0.0
                for i in range(len(X)):
                    acc += math.log2(1.0 + s2[i] * lam[j] / noise_var)
                info[j] = acc / len(X)
            per_eig[k, b] = info
            per_band[k, b] = info.sum()
        per_scale[k] = 0.5 * (per_band[k, 0] + per_band[k, 1])
    return per_eig, per_band, per_scale


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

def test_block_count_drops_remainder():
    vecs = gsm_vif.extract_block_vectors(np.arange(7 * 8, dtype=float).reshape(7, 8))
    assert vecs.shape == (4, 9)


def test_blocks_are_row_major_tiles():
    plane = np.arange(36, dtype=float).reshape(6, 6)
    vecs = gsm_vif.extract_block_vectors(plane)
    assert vecs.shape == (4, 9)
    # first tile is rows 0..2, cols 0..2 flattened row-major
    assert np.array_equal(vecs[0], plane[0:3, 0:3].reshape(-1))
    # tiles enumerate left-to-right then top-to-bottom
    assert np.array_equal(vecs[1], plane[0:3, 3:6].reshape(-1))
    assert np.array_equal(vecs[2], plane[3:6, 0:3].reshape(-1))


def test_blocks_too_small():
    with pytest.raises(SchemaError, match="9x2 subband cannot host a 3x3 block"):
        gsm_vif.extract_block_vectors(np.zeros((2, 9)))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def random_psd(rng, n=9):
    a = rng.normal(size=(n, n))
    return a @ a.T


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = random_psd(rng)
        vals, vecs = gsm_vif.jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        scale = max(abs(ref[0]), 1.0)
        assert np.all(np.abs(vals - ref) <= 1e-8 * scale)
        # eigenvectors reconstruct the matrix
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-8 * scale)


def test_jacobi_descending_order():
    rng = np.random.default_rng(1)
    vals, _ = gsm_vif.jacobi_eigh(random_psd(rng))
    assert np.all(np.diff(vals) <= 0)


def test_jacobi_zero_matrix():
    vals, vecs = gsm_vif.jacobi_eigh(np.zeros((9, 9)))
    assert np.all(vals == 0.0)
    assert np.allclose(vecs @ vecs.T, np.eye(9), atol=1e-12)


def test_jacobi_trace_preserved():
    rng = np.random.default_rng(2)
    m = random_psd(rng)
    vals, _ = gsm_vif.jacobi_eigh(m)
    assert vals.sum() == pytest.approx(np.trace(m), rel=1e-12)


@pytest.mark.parametrize("matrix", [
    np.zeros((3, 4)),               # not square
    np.zeros(9),                    # not a matrix
    np.triu(np.ones((9, 9))),       # not symmetric
])
def test_jacobi_rejects_degenerate_input(matrix):
    with pytest.raises(SchemaError, match="expected a square matrix|matrix is not symmetric"):
        gsm_vif.jacobi_eigh(matrix)


# ---------------------------------------------------------------------------
# covariance fit
# ---------------------------------------------------------------------------

def test_fit_covariance_whitened_data_gives_unit_eigenvalues():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(500, 9))
    Z = X - X.mean(axis=0)
    C = Z.T @ Z / len(Z)
    lam, V = np.linalg.eigh(C)
    W = V @ np.diag(lam ** -0.5) @ V.T
    whitened = Z @ W + rng.normal(size=9)  # arbitrary mean offset
    cov, eigvals, _ = gsm_vif._fit_eigen(whitened)
    assert np.allclose(cov, np.eye(9), atol=1e-10)
    assert np.all(np.abs(eigvals - 1.0) <= 1e-10)


def test_fit_covariance_identical_vectors():
    vectors = np.tile(np.arange(9.0), (40, 1))
    cov, eigvals, _ = gsm_vif._fit_eigen(vectors)
    assert np.all(cov == 0.0)
    assert np.all(eigvals == 0.0)


def test_fit_covariance_uses_population_normalization():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(37, 9))
    cov, _, _ = gsm_vif._fit_eigen(X)
    Z = X - X.mean(axis=0)
    assert np.allclose(cov, Z.T @ Z / 37, atol=1e-12)


def test_fit_covariance_empty():
    with pytest.raises(SchemaError, match=r"expected \(N, 9\) vectors, got \(0, 9\)"):
        gsm_vif._fit_eigen(np.zeros((0, 9)))


# ---------------------------------------------------------------------------
# multiplier estimation
# ---------------------------------------------------------------------------

def test_fit_eigen_leaves_the_callers_vectors_unchanged():
    X = np.random.default_rng(7).normal(size=(60, 9)) + 3.0
    before = X.copy()
    # C order, and F order, whose transpose is the fit's own channel-major layout
    for vectors in (X, np.asfortranarray(X)):
        gsm_vif._fit_eigen(vectors)
        assert np.array_equal(vectors, before)


def test_fit_and_multipliers_agree_across_input_layouts():
    # extract_block_vectors returns F-ordered (N, 9); other callers pass C order
    f_order = gsm_vif.extract_block_vectors(np.random.default_rng(19).normal(size=(30, 45)))
    c_order = np.ascontiguousarray(f_order)
    assert f_order.flags.f_contiguous and not f_order.flags.c_contiguous

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    cov, eigvals, s2 = gsm_vif._fit_eigen(c_order)
    for fit in (gsm_vif._fit_eigen(f_order),
                gsm_vif._fit_eigen(f_order.copy(order="F"), overwrite=True)):
        assert all(close(got, want) for got, want in zip(fit, (cov, eigvals, s2)))
    for vectors in (c_order, f_order):
        assert close(gsm_vif.estimate_multipliers(vectors, cov), s2)


def test_block_vectors_never_share_the_subbands_memory():
    # a 3x3 subband is one whole tile, the case a reshape could return as a view
    for dtype in (np.float64, np.float32):
        for subband in (np.arange(9.0, dtype=dtype).reshape(3, 3), np.zeros((7, 10), dtype)):
            assert not np.shares_memory(gsm_vif.extract_block_vectors(subband), subband)


def test_float32_subband_blocks_equal_those_of_its_float64_copy():
    # quarter-integers, as a level-0 subband of integer samples holds
    subband = np.random.default_rng(23).integers(-4096, 4096, (300, 301)) / 4.0
    expected = gsm_vif.extract_block_vectors(subband)
    single = subband.astype(np.float32)
    tracemalloc.start()
    try:
        got = gsm_vif.extract_block_vectors(single)
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.dtype == np.float64
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.array_equal(got, expected)
    # the cast happens in the copy into the rows: no whole float64 subband
    assert traced_peak < 1.5 * got.nbytes


def test_multiplier_identity_covariance_unit_block():
    # centered residual (3, 0, ..., 0) under identity covariance: s2 = 9/9 = 1
    base = np.zeros((2, 9))
    base[0, 0] = 3.0
    base[1, 0] = -3.0  # mean 0, so residuals are exactly +-3 on axis 0
    s2 = gsm_vif.estimate_multipliers(base, np.eye(9))
    assert s2[0] == pytest.approx(1.0, abs=1e-12)
    assert s2[1] == pytest.approx(1.0, abs=1e-12)


def test_multipliers_match_likelihood_grid():
    rng = np.random.default_rng(8)
    true_cov = random_psd(rng) + np.eye(9)
    L = np.linalg.cholesky(true_cov)
    s_true = rng.uniform(0.2, 2.0, size=60)
    X = (rng.normal(size=(60, 9)) @ L.T) * np.sqrt(s_true)[:, None]
    cov, _, _ = gsm_vif._fit_eigen(X)
    est = gsm_vif.estimate_multipliers(X, cov)
    Z = X - X.mean(axis=0)
    for i in range(0, 60, 7):
        ref = grid_search_multiplier(Z[i], cov)
        assert est[i] == pytest.approx(ref, abs=1e-6)


def test_estimate_multipliers_leaves_the_callers_vectors_unchanged():
    X = np.random.default_rng(10).normal(size=(60, 9)) + 3.0
    before = X.copy()
    cov, _, _ = gsm_vif._fit_eigen(X)
    for vectors in (X, np.asfortranarray(X)):
        gsm_vif.estimate_multipliers(vectors, cov)
        assert np.array_equal(vectors, before)


def test_multipliers_zero_covariance():
    vectors = np.tile(np.arange(9.0), (5, 1))
    cov, _, _ = gsm_vif._fit_eigen(vectors)
    s2 = gsm_vif.estimate_multipliers(vectors, cov)
    assert np.all(s2 == 0.0)


def test_multipliers_nonnegative():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 9))
    cov, _, _ = gsm_vif._fit_eigen(X)
    assert np.all(gsm_vif.estimate_multipliers(X, cov) >= 0.0)


# ---------------------------------------------------------------------------
# subband information
# ---------------------------------------------------------------------------

def test_information_single_block_single_eigenvalue():
    per_eig, total = gsm_vif.subband_information(
        np.array([1.0]), np.array([3.0]), 1.0
    )
    assert per_eig[0] == pytest.approx(2.0, abs=1e-15)  # log2(1 + 3)
    assert total == pytest.approx(2.0, abs=1e-15)


def test_information_against_double_loop():
    rng = np.random.default_rng(10)
    s2 = rng.uniform(0, 3, size=200)
    lam = rng.uniform(0, 5, size=9)
    noise = 2.0
    per_eig, total = gsm_vif.subband_information(s2, lam, noise)
    for j in range(9):
        acc = 0.0
        for i in range(200):
            acc += math.log2(1 + s2[i] * lam[j] / noise)
        assert per_eig[j] == pytest.approx(acc / 200, abs=1e-9)
    assert total == pytest.approx(per_eig.sum(), abs=1e-12)


def test_information_mean_is_pairwise_along_each_channel():
    # 2e6 equal blocks: a sequential sum drifts by about n * eps / 2, a
    # pairwise one by about log2(n) * eps
    n = 2_000_000
    lam = np.linspace(0.5, 40.0, 9)
    single, _ = gsm_vif.subband_information(np.array([0.7]), lam, 2.0)
    per_eig, _ = gsm_vif.subband_information(np.full(n, 0.7), lam, 2.0)
    for j in range(9):
        exact = math.fsum([single[j]] * n) / n
        assert abs(per_eig[j] - exact) <= 1e-15 * exact


def test_information_rejects_bad_noise():
    with pytest.raises(SchemaError, match="noise variance must be > 0, got 0.0"):
        gsm_vif.subband_information(np.ones(3), np.ones(9), 0.0)


def test_information_monotone_in_noise():
    rng = np.random.default_rng(11)
    s2 = rng.uniform(0.1, 3, size=50)
    lam = rng.uniform(0.1, 5, size=9)
    lo, _ = gsm_vif.subband_information(s2, lam, 2.0)
    hi, _ = gsm_vif.subband_information(s2, lam, 4.0)
    assert np.all(hi < lo)


# ---------------------------------------------------------------------------
# per-frame features
# ---------------------------------------------------------------------------

def test_constant_frame_all_zero():
    per_eig, per_band, per_scale = split_plane(gsm_vif.frame_vif_features(np.full((32, 32), 0.5)))
    assert np.all(per_eig == 0.0)
    assert np.all(per_band == 0.0)
    assert np.all(per_scale == 0.0)


def test_white_noise_scale1_positive():
    rng = np.random.default_rng(12)
    _, _, per_scale = split_plane(gsm_vif.frame_vif_features(rng.random((64, 64))))
    assert per_scale[0] > 0.0


def test_identities_hold():
    rng = np.random.default_rng(13)
    per_eig, per_band, per_scale = split_plane(gsm_vif.frame_vif_features(rng.random((48, 48))))
    assert np.allclose(per_band, per_eig.sum(axis=2), atol=1e-9)
    assert np.allclose(
        per_scale, 0.5 * per_band.sum(axis=1), atol=1e-9
    )


def test_16x16_frame_fills_small_scales_with_zeros():
    rng = np.random.default_rng(14)
    per_eig, per_band, per_scale = split_plane(gsm_vif.frame_vif_features(rng.random((16, 16))))
    # scale 4 level is 2x2, its subbands 1x1: no blocks, zero contribution
    assert np.all(per_eig[3] == 0.0)
    assert np.all(per_band[3] == 0.0)
    assert per_scale[3] == 0.0
    assert per_scale[0] > 0.0
    assert per_scale[1] > 0.0
    # scale 3 subband is exactly 3x3: one block whose mean-removed residual
    # is zero, so the fit degenerates to zero information
    assert per_scale[2] == 0.0


def test_frame_features_match_straight_line_oracle():
    rng = np.random.default_rng(15)
    plane = rng.random((48, 64))
    got_eig, got_band, got_scale = split_plane(gsm_vif.frame_vif_features(plane, noise_var=2.0))
    per_eig, per_band, per_scale = features_oracle(plane, 2.0)
    assert np.allclose(got_eig, per_eig, atol=1e-9)
    assert np.allclose(got_band, per_band, atol=1e-9)
    assert np.allclose(got_scale, per_scale, atol=1e-9)


def test_rank_deficient_subbands_match_oracle():
    # a plane that varies only along x: every 3x3 block of the x-difference
    # band repeats one row (covariance rank <= 3), the y-difference band is 0
    rng = np.random.default_rng(22)
    plane = np.tile(rng.random(64), (48, 1))
    band1, band2 = gsm_vif.subband_decompose(plane * 255.0)
    _, lam, _ = gsm_vif._fit_eigen(gsm_vif.extract_block_vectors(band1))
    assert lam[0] > 0.0 and np.all(lam[3:] <= 1e-10 * lam[0])
    assert np.all(band2 == 0.0)

    got_eig, got_band, got_scale = split_plane(gsm_vif.frame_vif_features(plane, noise_var=2.0))
    per_eig, per_band, per_scale = features_oracle(plane, 2.0)
    assert got_band[0, 0] > 0.0
    assert np.abs(got_eig - per_eig).max() <= 1e-9
    assert np.abs(got_band - per_band).max() <= 1e-9
    assert np.abs(got_scale - per_scale).max() <= 1e-9


def test_noise_variance_monotonicity_full_frame():
    rng = np.random.default_rng(16)
    plane = rng.random((48, 48))
    lo, _, _ = split_plane(gsm_vif.frame_vif_features(plane, noise_var=2.0))
    hi, _, _ = split_plane(gsm_vif.frame_vif_features(plane, noise_var=4.0))
    nz = lo > 0
    assert np.all(hi[nz] < lo[nz])


def test_contrast_scaling_never_decreases_information():
    rng = np.random.default_rng(17)
    plane = rng.random((48, 48)) * 0.4
    base, _, _ = split_plane(gsm_vif.frame_vif_features(plane))
    amped, _, _ = split_plane(gsm_vif.frame_vif_features(plane * 1.8))
    assert np.all(amped >= base - 1e-12)


def test_bad_noise_var_rejected():
    with pytest.raises(SchemaError, match="noise variance must be > 0, got -1.0"):
        gsm_vif.frame_vif_features(np.zeros((16, 16)), noise_var=-1.0)


@pytest.mark.parametrize("bit_depth, shape", [(8, (360, 640)), (10, (360, 640)),
                                              (10, (37, 53)), (8, (16, 16))])
def test_video_features_match_the_per_plane_route(bit_depth, shape):
    # the per-plane route: each normalized frame and each normalized
    # difference plane gets its own pyramid, as extraction first did
    rng = np.random.default_rng(bit_depth + shape[0])
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    peak = float((1 << bit_depth) - 1)
    height, width = shape
    frames = [LumaFrame(width, height, rng.integers(0, peak + 1, shape).astype(dtype), i, peak)
              for i in range(3)]
    planes = [f.raw / peak for f in frames]
    diffs = [cur - prev for prev, cur in zip(planes, planes[1:])]
    expected = np.concatenate([
        np.mean([gsm_vif.frame_vif_features(p) for p in planes], axis=0),
        np.mean([gsm_vif.frame_vif_features(d) for d in diffs], axis=0),
        [np.mean([np.mean(np.abs(d)) * 255.0 for d in diffs])],
    ])
    got = gsm_vif.video_features(frames).values
    assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))
    assert np.abs(got[gsm_vif.MOTION_INDEX] - expected[-1]) <= 1e-9 * expected[-1]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_plane_subbands_of_narrow_integers_are_float32_at_level_0_only(dtype):
    plane = np.random.default_rng(24).integers(0, 256, (40, 52)).astype(dtype)
    got = gsm_vif.plane_subbands(plane)
    expected = gsm_vif.plane_subbands(plane.astype(np.float64))
    for k, (pair, expected_pair) in enumerate(zip(got, expected)):
        for band, expected_band in zip(pair, expected_pair):
            assert band.dtype == (np.float32 if k == 0 else np.float64)
            assert np.array_equal(band, expected_band)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.int64])
def test_plane_subbands_of_real_and_wide_integer_planes_stay_float64(dtype):
    plane = np.random.default_rng(25).integers(-1000, 1000, (40, 52)).astype(dtype)
    for pair in gsm_vif.plane_subbands(plane):
        assert all(band.dtype == np.float64 for band in pair)


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_video_features_peak_memory_stays_under_six_and_a_half_planes(bit_depth):
    # the four level-0 subbands held across a frame pair are float32; held
    # in float64 they would raise the peak to about 7.9 and 8.1 planes
    rng = np.random.default_rng(bit_depth)
    height, width = 360, 640
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    peak = float((1 << bit_depth) - 1)
    frames = [LumaFrame(width, height, rng.integers(0, peak + 1, (height, width)).astype(dtype),
                        i, peak) for i in range(3)]
    tracemalloc.start()
    try:
        gsm_vif.video_features(frames)
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced_peak <= 6.5 * width * height * 8


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _const_feats(value):
    return np.full(84, value)


def test_pool_arithmetic_mean():
    pooled = gsm_vif.pool_video(
        [_const_feats(1.0), _const_feats(3.0)],
        [_const_feats(2.0)],
        [0.5],
    )
    _, _, frame_scale = split_plane(pooled.values[:84])
    _, diff_band, _ = split_plane(pooled.values[84:168])
    assert np.all(frame_scale == 2.0)
    assert np.all(diff_band == 2.0)
    assert pooled.values[168] == 0.5
    assert pooled.has_motion
    assert pooled.frame_count == 2


def test_pool_single_frame():
    pooled = gsm_vif.pool_video([_const_feats(1.5)], [], [])
    frame_eig, _, _ = split_plane(pooled.values[:84])
    assert np.all(frame_eig == 1.5)
    assert np.all(pooled.values[84:168] == 0.0)
    assert pooled.values[168] == 0.0
    assert not pooled.has_motion
    assert pooled.frame_count == 1


def test_pool_empty():
    with pytest.raises(SchemaError, match="no frames to pool"):
        gsm_vif.pool_video([], [], [])


def test_pool_length_mismatch():
    with pytest.raises(SchemaError, match="3 frames need 2 diffs/motions, got 1/1"):
        gsm_vif.pool_video([_const_feats(1.0)] * 3, [_const_feats(0.0)], [0.1])


def test_pool_mean_matches_loop():
    rng = np.random.default_rng(18)
    frames = [_const_feats(v) for v in rng.random(5)]
    diffs = [_const_feats(v) for v in rng.random(4)]
    motions = list(rng.random(4))
    pooled = gsm_vif.pool_video(frames, diffs, motions)
    expected = sum(split_plane(f)[2][0] for f in frames) / 5
    assert split_plane(pooled.values[:84])[2][0] == pytest.approx(expected, abs=1e-12)
    assert pooled.values[168] == pytest.approx(sum(motions) / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# features-CSV layout
# ---------------------------------------------------------------------------

def test_column_names_layout():
    names = gsm_vif.feature_column_names()
    assert len(names) == 169
    assert names[0] == "frame_info_s1_b1_e1"
    assert names[71] == "frame_info_s4_b2_e9"
    assert names[72] == "frame_info_s1_b1"
    assert names[80] == "frame_info_s1"
    assert names[84] == "diff_info_s1_b1_e1"
    assert names[-1] == "motion_mean_abs"


def _round_trip(tmp_path, tensor):
    header = VideoHeader(32, 32, Fraction(30), 8, "420")
    path = tmp_path / "features.csv"
    path.write_text(cli.features_csv_text([("v", header, tensor)]))
    return cli.parse_features_csv(path)["v"]


def test_tensor_values_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    tensor = gsm_vif.pool_video(
        [_const_feats(v) for v in rng.random(3)],
        [_const_feats(v) for v in rng.random(2)],
        list(rng.random(2)),
    )
    assert tensor.values.shape == (169,)
    back = _round_trip(tmp_path, tensor)
    assert np.array_equal(back.values[:84], tensor.values[:84])
    assert np.array_equal(back.values[84:168], tensor.values[84:168])
    assert back.values[168] == tensor.values[168]
    assert back.has_motion


def test_tensor_single_frame_round_trip(tmp_path):
    tensor = gsm_vif.pool_video([_const_feats(0.7)], [], [])
    assert np.all(tensor.values[84:] == 0.0)
    back = _round_trip(tmp_path, tensor)
    assert np.all(back.values[84:] == 0.0)
    assert not back.has_motion
