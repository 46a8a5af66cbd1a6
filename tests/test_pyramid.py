import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import pyramid
from ladderforge.errors import SchemaError

from helpers import conv2d_replicate

BINOMIAL_2D = np.outer([1, 4, 6, 4, 1], [1, 4, 6, 4, 1]) / 256.0


def decimate_oracle(plane):
    """Keep even-indexed rows/cols, exactly floor(n/2) of each."""
    h, w = plane.shape
    return plane[0:2 * (h // 2):2, 0:2 * (w // 2):2]


def full_blur_then_decimate(plane):
    """One pyramid step as first written: blur every sample along axis 0,
    then along axis 1, with edge replication, then keep every other row
    and column."""
    taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

    def blur_axis(plane, axis):
        padded = np.pad(plane, [(2, 2) if ax == axis else (0, 0) for ax in range(2)], mode="edge")
        view = padded.swapaxes(0, axis)
        out = (taps[0] * view[:-4] + taps[1] * view[1:-3] + taps[2] * view[2:-2]
               + taps[3] * view[3:-1] + taps[4] * view[4:])
        return out.swapaxes(0, axis)

    return decimate_oracle(blur_axis(blur_axis(plane, 0), 1))


def subband_oracle(plane):
    """Loop-based 2x2 analysis filters on valid support."""
    h, w = plane.shape
    b1 = np.zeros((h - 1, w - 1))
    b2 = np.zeros((h - 1, w - 1))
    for y in range(h - 1):
        for x in range(w - 1):
            b1[y, x] = (plane[y, x + 1] - plane[y, x]
                        + plane[y + 1, x + 1] - plane[y + 1, x]) / 4.0
            b2[y, x] = (plane[y + 1, x] - plane[y, x]
                        + plane[y + 1, x + 1] - plane[y, x + 1]) / 4.0
    return b1, b2


def test_level_dimensions_floor_semantics():
    stack = pyramid.build_scale_stack(np.zeros((2160, 3840)))
    dims = [lvl.shape for lvl in stack]
    assert dims == [(2160, 3840), (1080, 1920), (540, 960), (270, 480)]


def test_level_dimensions_odd_sizes():
    stack = pyramid.build_scale_stack(np.zeros((34, 17 * 2)))
    dims = [lvl.shape for lvl in stack]
    assert dims == [(34, 34), (17, 17), (8, 8), (4, 4)]


def test_constant_plane_survives_all_levels():
    stack = pyramid.build_scale_stack(np.full((48, 64), 0.42))
    for level in stack:
        assert np.allclose(level, 0.42, atol=1e-12)


def test_impulse_against_direct_convolution():
    plane = np.zeros((64, 64))
    plane[32, 32] = 1.0
    stack = pyramid.build_scale_stack(plane)
    blurred = conv2d_replicate(plane, BINOMIAL_2D)
    level2 = decimate_oracle(blurred)
    assert np.allclose(stack[1], level2, atol=1e-12)
    # kernel centre weight lands at the decimated impulse position
    assert level2[16, 16] == pytest.approx((6 / 16) ** 2, abs=1e-15)


def test_random_plane_against_direct_convolution_all_levels():
    rng = np.random.default_rng(7)
    plane = rng.random((41, 53))
    stack = pyramid.build_scale_stack(plane)
    ref = plane
    for level in stack[1:]:
        ref = decimate_oracle(conv2d_replicate(ref, BINOMIAL_2D))
        assert np.allclose(level, ref, atol=1e-12)


def test_first_level_is_the_input():
    plane = np.random.default_rng(8).random((16, 16))
    stack = pyramid.build_scale_stack(plane)
    assert np.array_equal(stack[0], plane)


def test_too_small_plane_rejected():
    with pytest.raises(SchemaError, match="64x8 plane; need at least 16x16"):
        pyramid.build_scale_stack(np.zeros((8, 64)))


def test_horizontal_ramp_subbands():
    delta = 0.125
    plane = np.tile(np.arange(20) * delta, (12, 1))
    b1, b2 = pyramid.subband_decompose(plane)
    assert b1.shape == (11, 19)
    assert np.allclose(b1, delta / 2, atol=1e-14)
    assert np.allclose(b2, 0.0, atol=1e-14)


def test_subbands_against_loop_oracle():
    rng = np.random.default_rng(9)
    plane = rng.random((32, 32))
    b1, b2 = pyramid.subband_decompose(plane)
    ref1, ref2 = subband_oracle(plane)
    assert np.allclose(b1, ref1, atol=1e-12)
    assert np.allclose(b2, ref2, atol=1e-12)


def test_transpose_swaps_bands():
    rng = np.random.default_rng(10)
    plane = rng.random((24, 40))
    b1, b2 = pyramid.subband_decompose(plane)
    t1, t2 = pyramid.subband_decompose(plane.T)
    assert np.allclose(b1, t2.T, atol=1e-14)
    assert np.allclose(b2, t1.T, atol=1e-14)


def test_constant_annihilation():
    b1, b2 = pyramid.subband_decompose(np.full((18, 22), 3.7))
    assert np.all(b1 == 0.0)
    assert np.all(b2 == 0.0)


def test_white_noise_subband_variance():
    rng = np.random.default_rng(11)
    sigma = 0.3
    plane = rng.normal(0.0, sigma, size=(400, 400))
    b1, _ = pyramid.subband_decompose(plane)
    # 4 taps of magnitude 1/4 on iid noise: variance sigma^2 / 4
    measured = b1[::2, ::2].var()  # stride past tap overlap
    assert measured == pytest.approx(sigma ** 2 / 4, rel=0.10)


def test_subband_needs_two_samples_per_axis():
    with pytest.raises(SchemaError, match="9x1 level cannot host 2x2 filters"):
        pyramid.subband_decompose(np.zeros((1, 9)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)
def test_subband_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    p = rng.random((12, 15))
    q = rng.random((12, 15))
    lhs1, lhs2 = pyramid.subband_decompose(alpha * p + beta * q)
    p1, p2 = pyramid.subband_decompose(p)
    q1, q2 = pyramid.subband_decompose(q)
    assert np.allclose(lhs1, alpha * p1 + beta * q1, atol=1e-12)
    assert np.allclose(lhs2, alpha * p2 + beta * q2, atol=1e-12)


@pytest.mark.parametrize("shape", [(1080, 1920), (360, 640), (16, 16), (17, 23), (41, 53)])
@pytest.mark.parametrize("integer", [False, True])
def test_decimating_blur_equals_full_blur_then_decimate(shape, integer):
    # 1080 rows reduce to 540, 270 and 135, so one level is odd
    rng = np.random.default_rng(shape[0] * shape[1])
    plane = rng.integers(0, 1024, shape).astype(np.float64) if integer else rng.random(shape)
    stack = pyramid.build_scale_stack(plane)
    expected = plane
    for level in stack[1:]:
        expected = full_blur_then_decimate(expected)
        assert level.shape == expected.shape
        assert np.array_equal(level, expected)


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("shape", [(360, 640), (37, 53)])
def test_subbands_of_an_integer_difference_are_exact_differences(bit_depth, shape):
    rng = np.random.default_rng(bit_depth * 1000 + shape[0])
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    current = rng.integers(0, 1 << bit_depth, shape).astype(dtype)
    previous = rng.integers(0, 1 << bit_depth, shape).astype(dtype)
    diff = current.astype(np.int32) - previous
    stacks = [pyramid.build_scale_stack(p) for p in (diff, current, previous)]
    for level_diff, level_cur, level_prev in zip(*stacks):
        assert np.array_equal(level_diff, level_cur - level_prev)
        bands = [pyramid.subband_decompose(lv) for lv in (level_diff, level_cur, level_prev)]
        for band_diff, band_cur, band_prev in zip(*bands):
            assert np.array_equal(band_diff, band_cur - band_prev)


def _integer_patterns(bit_depth, shape):
    """Seeded random samples, 0/peak checkerboards of both phases, and a
    full-scale step, whose edge gives the largest level-0 band magnitude."""
    peak = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    rng = np.random.default_rng(bit_depth)
    checker = (np.indices(shape).sum(axis=0) % 2) * peak
    step = np.zeros(shape, dtype=np.int64)
    step[:, shape[1] // 2:] = peak
    return {name: plane.astype(dtype) for name, plane in {
        "random": rng.integers(0, peak + 1, shape),
        "checker": checker,
        "checker_inverse": peak - checker,
        "step": step,
        "step_inverse": peak - step,
    }.items()}


@pytest.mark.parametrize("bit_depth", [8, 10, 16])
def test_float32_level0_subbands_equal_the_float64_ones(bit_depth):
    patterns = _integer_patterns(bit_depth, (24, 37))
    for name, plane in patterns.items():
        for single, double in zip(pyramid.subband_decompose(plane.astype(np.float32)),
                                  pyramid.subband_decompose(plane)):
            assert single.dtype == np.float32 and double.dtype == np.float64
            assert np.array_equal(single, double), name
    step_band, _ = pyramid.subband_decompose(patterns["step"])
    assert np.abs(step_band).max() == ((1 << bit_depth) - 1) / 2


@pytest.mark.parametrize("bit_depth", [8, 10, 16])
def test_float32_level0_differences_equal_the_subbands_of_the_integer_difference(bit_depth):
    patterns = _integer_patterns(bit_depth, (24, 37))
    for current_name, current in patterns.items():
        for previous_name, previous in patterns.items():
            diff = current.astype(np.int32) - previous
            expected = pyramid.subband_decompose(diff)
            got = [band_cur - band_prev for band_cur, band_prev in zip(
                pyramid.subband_decompose(current.astype(np.float32)),
                pyramid.subband_decompose(previous.astype(np.float32)))]
            for band_got, band_expected in zip(got, expected):
                assert band_got.dtype == np.float32
                assert np.array_equal(band_got, band_expected), (current_name, previous_name)


def test_subbands_are_float64_unless_the_level_is_float32():
    for dtype in (np.uint8, np.uint16, np.int32, np.float16, np.float64):
        for band in pyramid.subband_decompose(np.zeros((4, 5), dtype=dtype)):
            assert band.dtype == np.float64


def test_float32_level_keeps_the_shape_checks():
    with pytest.raises(SchemaError, match="9x1 level cannot host 2x2 filters"):
        pyramid.subband_decompose(np.zeros((1, 9), dtype=np.float32))
    with pytest.raises(SchemaError, match=r"expected a 2-D plane, got shape \(2, 3, 4\)"):
        pyramid.subband_decompose(np.zeros((2, 3, 4), dtype=np.float32))
