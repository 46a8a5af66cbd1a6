import tracemalloc

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


def subbands(level):
    """Both subbands of a level, band 1 then band 2."""
    return [pyramid.subband_decompose(level, band) for band in (1, 2)]


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
    b1, b2 = subbands(plane)
    assert b1.shape == (11, 19)
    assert np.allclose(b1, delta / 2, atol=1e-14)
    assert np.allclose(b2, 0.0, atol=1e-14)


def test_subbands_against_loop_oracle():
    rng = np.random.default_rng(9)
    plane = rng.random((32, 32))
    b1, b2 = subbands(plane)
    ref1, ref2 = subband_oracle(plane)
    assert np.allclose(b1, ref1, atol=1e-12)
    assert np.allclose(b2, ref2, atol=1e-12)


def test_transpose_swaps_bands():
    rng = np.random.default_rng(10)
    plane = rng.random((24, 40))
    b1, b2 = subbands(plane)
    t1, t2 = subbands(plane.T)
    assert np.allclose(b1, t2.T, atol=1e-14)
    assert np.allclose(b2, t1.T, atol=1e-14)


def test_constant_annihilation():
    b1, b2 = subbands(np.full((18, 22), 3.7))
    assert np.all(b1 == 0.0)
    assert np.all(b2 == 0.0)


def test_white_noise_subband_variance():
    rng = np.random.default_rng(11)
    sigma = 0.3
    plane = rng.normal(0.0, sigma, size=(400, 400))
    b1, _ = subbands(plane)
    # 4 taps of magnitude 1/4 on iid noise: variance sigma^2 / 4
    measured = b1[::2, ::2].var()  # stride past tap overlap
    assert measured == pytest.approx(sigma ** 2 / 4, rel=0.10)


def test_subband_needs_two_samples_per_axis():
    with pytest.raises(SchemaError, match="9x1 level cannot host 2x2 filters"):
        pyramid.subband_decompose(np.zeros((1, 9)), 1)


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
    lhs1, lhs2 = subbands(alpha * p + beta * q)
    p1, p2 = subbands(p)
    q1, q2 = subbands(q)
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
        assert np.array_equal(level_diff, np.subtract(level_cur, level_prev, dtype=np.float64))
        bands = [subbands(lv) for lv in (level_diff, level_cur, level_prev)]
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
        for single, native, double in zip(subbands(plane.astype(np.float32)),
                                          subbands(plane),
                                          subbands(plane.astype(np.float64))):
            assert single.dtype == native.dtype == np.float32 and double.dtype == np.float64
            assert np.array_equal(single, double), name
            assert np.array_equal(native, double), name
    step_band, _ = subbands(patterns["step"])
    assert np.abs(step_band).max() == ((1 << bit_depth) - 1) / 2


@pytest.mark.parametrize("bit_depth", [8, 10, 16])
def test_float32_level0_differences_equal_the_subbands_of_the_integer_difference(bit_depth):
    patterns = _integer_patterns(bit_depth, (24, 37))
    for current_name, current in patterns.items():
        for previous_name, previous in patterns.items():
            diff = current.astype(np.int32) - previous
            expected = subbands(diff)
            got = [band_cur - band_prev for band_cur, band_prev in zip(
                subbands(current.astype(np.float32)),
                subbands(previous.astype(np.float32)))]
            for band_got, band_expected in zip(got, expected):
                assert band_got.dtype == np.float32
                assert np.array_equal(band_got, band_expected), (current_name, previous_name)


def _stacks_and_float64_routes(patterns):
    """Each pattern's pyramid, and that of its float64 copy, which every
    sum of the pyramid and the split holds exactly."""
    return ({name: pyramid.build_scale_stack(plane) for name, plane in patterns.items()},
            {name: pyramid.build_scale_stack(plane.astype(np.float64))
             for name, plane in patterns.items()})


def _level1_dtype(plane):
    """The type the samples' own maximum dictates for level 1."""
    return np.float32 if plane.max() < 1 << 14 else np.float64


def _assert_levels(levels, expected_levels, level1_dtype, label):
    """Level 1 and its subbands are level1_dtype, levels 2-3 and theirs
    float64, and every one equals its float64-route counterpart."""
    for k, (level, expected) in enumerate(zip(levels, expected_levels), 1):
        dtype = level1_dtype if k == 1 else np.float64
        assert level.dtype == dtype and np.array_equal(level, expected), (label, k)
        for band, expected_band in zip(subbands(level), subbands(expected)):
            assert band.dtype == dtype and np.array_equal(band, expected_band), (label, k)


def _level1_dtypes_of_exact_patterns(bit_depth):
    """The types of the patterns' level 1, once every pattern's levels 1-3,
    and those of every difference of two patterns, are shown to be of the
    types the samples dictate and exact."""
    patterns = _integer_patterns(bit_depth, (40, 53))
    stacks, routes = _stacks_and_float64_routes(patterns)
    for name, plane in patterns.items():
        _assert_levels(stacks[name][1:], routes[name][1:], _level1_dtype(plane), name)
    for current in patterns:
        for previous in patterns:
            diffs = [np.subtract(a, b) for a, b in zip(stacks[current][1:], stacks[previous][1:])]
            expected = [a - b for a, b in zip(routes[current][1:], routes[previous][1:])]
            dtype = np.result_type(stacks[current][1], stacks[previous][1])
            _assert_levels(diffs, expected, dtype, (current, previous))
    return {stack[1].dtype.type for stack in stacks.values()}


# The second value of each case is a peak that a frame of these samples
# might declare (None: the default). The pyramid takes the plane alone,
# so whatever the peak, level 1's type follows the samples' own maximum.
@pytest.mark.parametrize("bit_depth, peak", [(8, None), (8, 255.0), (10, 1023.0), (14, 16383.0)])
def test_level_1_of_samples_below_2_14_is_float32_and_exact(bit_depth, peak):
    # 14 bits is the edge of the bound: a difference's level-1 split
    # reaches partial sums of n / 256 with |n| just below 2^24
    assert _level1_dtypes_of_exact_patterns(bit_depth) == {np.float32}


@pytest.mark.parametrize("bit_depth, peak", [(16, 65535.0), (16, None), (10, None), (10, 16384.0)])
def test_level_1_of_unbounded_or_wide_samples_is_float64(bit_depth, peak):
    # only samples that reach 2^14 are wide: 16-bit patterns do, and
    # their level 1 is float64; 10-bit ones do not, whatever peak a frame
    # of them declares, and theirs is float32
    wide = bit_depth == 16
    assert _level1_dtypes_of_exact_patterns(bit_depth) == {np.float64 if wide else np.float32}


@pytest.mark.parametrize("largest, dtype", [((1 << 14) - 1, np.float32), (1 << 14, np.float64),
                                            ((1 << 16) - 1, np.float64)])
def test_one_uint16_sample_decides_the_type_of_level_1(largest, dtype):
    plane = np.zeros((40, 53), dtype=np.uint16)
    plane[17, 29] = largest
    level1 = pyramid.build_scale_stack(plane)[1]
    assert level1.dtype == dtype
    assert np.array_equal(level1, pyramid.build_scale_stack(plane.astype(np.float64))[1])


def test_subbands_are_float32_only_for_float32_and_narrow_integer_levels():
    for dtype in (np.float32, np.uint8, np.uint16, np.int16):
        for band in subbands(np.zeros((4, 5), dtype=dtype)):
            assert band.dtype == np.float32
    for dtype in (np.int32, np.float16, np.float64):
        for band in subbands(np.zeros((4, 5), dtype=dtype)):
            assert band.dtype == np.float64


def test_float32_level_keeps_the_shape_checks():
    with pytest.raises(SchemaError, match="9x1 level cannot host 2x2 filters"):
        pyramid.subband_decompose(np.zeros((1, 9), dtype=np.float32), 2)
    with pytest.raises(SchemaError, match=r"expected a 2-D plane, got shape \(2, 3, 4\)"):
        pyramid.subband_decompose(np.zeros((2, 3, 4), dtype=np.float32), 1)


@pytest.mark.parametrize("band", [0, 3, -1])
def test_only_bands_1_and_2_exist(band):
    with pytest.raises(SchemaError, match=f"band must be 1 or 2, got {band}"):
        pyramid.subband_decompose(np.zeros((4, 5)), band)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16, np.float32, np.float64])
def test_a_subband_is_split_without_a_copy_of_the_level(dtype):
    # the level is read as stored: a float copy of it would add at least
    # one subband's bytes to the peak. It reads 1.14 subbands, the rest
    # being numpy's fixed 8192-value ufunc buffers
    level = np.random.default_rng(28).integers(0, 200, (300, 401)).astype(dtype)
    for band in (1, 2):
        expected = pyramid.subband_decompose(level.astype(np.float64), band)
        tracemalloc.start()
        try:
            got = pyramid.subband_decompose(level, band)
            _, traced_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, expected)
        assert traced_peak <= 1.25 * got.nbytes
