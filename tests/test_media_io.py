import io

import numpy as np
import pytest

from ladderforge import media_io
from ladderforge.errors import (
    MalformedHeader,
    ShapeMismatch,
    TruncatedFrame,
    UnsupportedFormat,
)

from helpers import random_plane, y4m_bytes


def test_parse_header_10bit_uhd():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W3840 H2160 F60:1 C420p10\n")
    assert (hdr.width, hdr.height) == (3840, 2160)
    assert (hdr.frame_rate.numerator, hdr.frame_rate.denominator) == (60, 1)
    assert hdr.bit_depth == 10


def test_parse_header_minimal_8bit():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W16 H16 F24:1 C420\n")
    assert (hdr.width, hdr.height, hdr.bit_depth) == (16, 16, 8)
    assert (hdr.frame_rate.numerator, hdr.frame_rate.denominator) == (24, 1)


def test_parse_header_default_chroma_is_8bit_420():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W32 H32 F30000:1001\n")
    assert hdr.bit_depth == 8


@pytest.mark.parametrize("line", [
    b"YUV4MPEG2 H2160 F60:1\n",          # missing width
    b"YUV4MPEG2 W3840 F60:1\n",          # missing height
    b"YUV4MPEG2 W3840 H2160\n",          # missing frame rate
    b"MPEG W16 H16 F24:1\n",             # wrong magic
    b"YUV4MPEG2 W16 H16 F24:1 C420",     # unterminated header line
])
def test_malformed_headers(line):
    with pytest.raises(MalformedHeader):
        media_io.parse_y4m_header(line)


@pytest.mark.parametrize("line", [
    b"YUV4MPEG2 W16 H16 F24:1 C420p12\n",   # 12-bit
    b"YUV4MPEG2 W16 H16 F24:1 C444\n",      # 4:4:4
    b"YUV4MPEG2 W16 H16 F24:1 C422\n",      # 4:2:2
    b"YUV4MPEG2 W16 H16 F24:1 It C420\n",   # interlaced
    b"YUV4MPEG2 W8 H16 F24:1 C420\n",       # below minimum width
    b"YUV4MPEG2 W17 H16 F24:1 C420\n",      # odd width with 4:2:0 chroma
])
def test_unsupported_formats(line):
    with pytest.raises(UnsupportedFormat):
        media_io.parse_y4m_header(line)


def _frames_from_bytes(data):
    stream = io.BytesIO(data)
    hdr = media_io.read_header(stream)
    return hdr, list(media_io.iter_luma_frames(stream, hdr))


def test_constant_frame_normalizes_by_255():
    plane = np.full((16, 16), 128)
    _, frames = _frames_from_bytes(y4m_bytes([plane]))
    assert len(frames) == 1
    assert frames[0].index == 0
    assert np.all(frames[0].samples == 128 / 255)


def test_10bit_full_scale_normalizes_to_one():
    plane = np.full((16, 16), 1023)
    _, frames = _frames_from_bytes(y4m_bytes([plane], bit_depth=10))
    assert np.all(frames[0].samples == 1.0)
    zero = np.zeros((16, 16), dtype=int)
    _, frames = _frames_from_bytes(y4m_bytes([zero], bit_depth=10))
    assert np.all(frames[0].samples == 0.0)


def test_10bit_samples_are_little_endian():
    plane = np.full((16, 16), 0x0201)  # bytes 01 02 per sample when LE
    data = y4m_bytes([plane], bit_depth=10)
    # corrupt check: locate the first luma byte pair
    marker = data.index(b"FRAME\n") + len(b"FRAME\n")
    assert data[marker:marker + 2] == b"\x01\x02"


def test_truncated_mid_plane():
    plane = np.full((16, 16), 7)
    data = y4m_bytes([plane])
    stream = io.BytesIO(data[:-40])  # cut inside the chroma tail
    hdr = media_io.read_header(stream)
    with pytest.raises(TruncatedFrame):
        media_io.read_luma_frame(stream, hdr, 0)


def _with_frame_line(line):
    """One 16x16 frame whose FRAME record line is replaced by line."""
    data = y4m_bytes([np.full((16, 16), 7)])
    return io.BytesIO(data.replace(b"FRAME\n", line, 1))


def test_record_line_at_length_limit_is_read():
    stream = _with_frame_line(b"FRAME " + b"X" * (4096 - 6) + b"\n")
    hdr = media_io.read_header(stream)
    assert len(list(media_io.iter_luma_frames(stream, hdr))) == 1


def test_record_line_over_length_limit():
    stream = _with_frame_line(b"FRAME " + b"X" * (4097 - 6) + b"\n")
    hdr = media_io.read_header(stream)
    with pytest.raises(MalformedHeader, match="exceeds"):
        list(media_io.iter_luma_frames(stream, hdr))


def test_stream_ends_inside_record_line():
    stream = io.BytesIO(y4m_bytes([np.full((16, 16), 7)]) + b"FRA")
    hdr = media_io.read_header(stream)
    with pytest.raises(MalformedHeader, match="ended inside"):
        list(media_io.iter_luma_frames(stream, hdr))


def test_frame_indices_and_count():
    rng = np.random.default_rng(3)
    planes = [random_plane(rng, 16, 32) for _ in range(5)]
    _, frames = _frames_from_bytes(y4m_bytes(planes))
    assert [f.index for f in frames] == [0, 1, 2, 3, 4]
    assert all(f.samples.shape == (16, 32) for f in frames)


def test_round_trip_quantization_8bit():
    rng = np.random.default_rng(11)
    plane = random_plane(rng, 32, 48, bit_depth=8)
    _, frames = _frames_from_bytes(y4m_bytes([plane]))
    requant = np.rint(frames[0].samples * 255).astype(np.uint8)
    assert np.array_equal(requant, plane.astype(np.uint8))


def test_round_trip_quantization_10bit():
    rng = np.random.default_rng(12)
    plane = random_plane(rng, 32, 48, bit_depth=10)
    _, frames = _frames_from_bytes(y4m_bytes([plane], bit_depth=10))
    requant = np.rint(frames[0].samples * 1023).astype(np.uint16)
    assert np.array_equal(requant, plane.astype(np.uint16))


def test_frame_diff_constant_planes():
    a = media_io.LumaFrame(16, 16, np.full((16, 16), 30 / 255), 0)
    b = media_io.LumaFrame(16, 16, np.full((16, 16), 50 / 255), 1)
    diff = media_io.frame_diff(a, b)
    assert np.allclose(diff.samples, -20 / 255, atol=1e-15)


def test_frame_diff_shape_mismatch():
    a = media_io.LumaFrame(16, 16, np.zeros((16, 16)), 0)
    b = media_io.LumaFrame(16, 32, np.zeros((16, 32)), 1)
    with pytest.raises(ShapeMismatch):
        media_io.frame_diff(a, b)


def test_diff_of_identical_frames_is_zero():
    rng = np.random.default_rng(4)
    samples = random_plane(rng, 16, 16) / 255
    a = media_io.LumaFrame(16, 16, samples, 0)
    b = media_io.LumaFrame(16, 16, samples.copy(), 1)
    diff = media_io.frame_diff(b, a)
    assert np.all(diff.samples == 0.0)
    assert media_io.mean_abs_luma_diff(diff) == 0.0


def test_mean_abs_single_full_range_pixel():
    # one pixel out of 256 differs by the full range: mean = 255/256
    prev = np.zeros((16, 16))
    curr = np.zeros((16, 16))
    curr[5, 9] = 1.0
    diff = media_io.frame_diff(
        media_io.LumaFrame(16, 16, curr, 1),
        media_io.LumaFrame(16, 16, prev, 0),
    )
    assert media_io.mean_abs_luma_diff(diff) == pytest.approx(255 / 256, abs=1e-12)


def test_mean_abs_against_double_loop_oracle():
    rng = np.random.default_rng(20)
    a = random_plane(rng, 24, 40) / 255
    b = random_plane(rng, 24, 40) / 255
    diff = media_io.frame_diff(
        media_io.LumaFrame(40, 24, b, 1),
        media_io.LumaFrame(40, 24, a, 0),
    )
    acc = 0.0
    for y in range(24):
        for x in range(40):
            acc += abs(b[y, x] - a[y, x])
    expected = acc / (24 * 40) * 255
    assert media_io.mean_abs_luma_diff(diff) == pytest.approx(expected, abs=1e-9)


def test_mean_abs_invariant_under_bit_depth():
    # same underlying picture quantized at 8 and 10 bits
    rng = np.random.default_rng(21)
    base = rng.random((16, 16))
    shift = rng.random((16, 16))
    nxt = np.clip(base + 0.2 * shift, 0, 1)

    def motion(bit_depth):
        peak = (1 << bit_depth) - 1
        planes = [np.rint(base * peak).astype(int), np.rint(nxt * peak).astype(int)]
        _, frames = _frames_from_bytes(y4m_bytes(planes, bit_depth=bit_depth))
        return media_io.mean_abs_luma_diff(media_io.frame_diff(frames[1], frames[0]))

    assert abs(motion(8) - motion(10)) < 1.0
