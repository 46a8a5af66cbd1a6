import contextlib
import io
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import media_io
from ladderforge.cli import EXIT_DATA, EXIT_OK, main
from ladderforge.errors import LadderforgeError, SchemaError

from helpers import random_plane, y4m_bytes


def test_parse_header_10bit_uhd():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W3840 H2160 F60:1 C420p10")
    assert (hdr.width, hdr.height) == (3840, 2160)
    assert (hdr.frame_rate.numerator, hdr.frame_rate.denominator) == (60, 1)
    assert hdr.bit_depth == 10


def test_parse_header_minimal_8bit():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W16 H16 F24:1 C420")
    assert (hdr.width, hdr.height, hdr.bit_depth) == (16, 16, 8)
    assert (hdr.frame_rate.numerator, hdr.frame_rate.denominator) == (24, 1)


def test_parse_header_default_chroma_is_8bit_420():
    hdr = media_io.parse_y4m_header(b"YUV4MPEG2 W32 H32 F30000:1001")
    assert hdr.bit_depth == 8


MALFORMED_HEADERS = {
    b"YUV4MPEG2 H2160 F60:1\n": "must carry W and H",           # missing width
    b"YUV4MPEG2 W3840 F60:1\n": "must carry W and H",           # missing height
    b"YUV4MPEG2 W3840 H2160\n": "must carry a frame rate",      # missing frame rate
    b"MPEG W16 H16 F24:1\n": "missing YUV4MPEG2 magic",         # wrong magic
    b"YUV4MPEG2 W16 H16 F24:1 C420": "ended inside a record line",  # unterminated header line
}


@pytest.mark.parametrize("line", list(MALFORMED_HEADERS))
def test_malformed_headers(line):
    with pytest.raises(SchemaError, match=MALFORMED_HEADERS[line]):
        _frames_from_bytes(line)


UNSUPPORTED_FORMATS = {
    b"YUV4MPEG2 W16 H16 F24:1 C420p12\n": "colourspace C420p12",  # 12-bit
    b"YUV4MPEG2 W16 H16 F24:1 C444\n": "colourspace C444",        # 4:4:4
    b"YUV4MPEG2 W16 H16 F24:1 C422\n": "colourspace C422",        # 4:2:2
    b"YUV4MPEG2 W16 H16 F24:1 It C420\n": "interlaced",           # interlaced
    b"YUV4MPEG2 W8 H16 F24:1 C420\n": "below the 16x16 minimum",  # below minimum width
    b"YUV4MPEG2 W17 H16 F24:1 C420\n": "requires even",           # odd width with 4:2:0 chroma
}


@pytest.mark.parametrize("line", list(UNSUPPORTED_FORMATS))
def test_unsupported_formats(line):
    with pytest.raises(SchemaError, match=UNSUPPORTED_FORMATS[line]):
        _frames_from_bytes(line)


def _frames_from_bytes(data):
    """open_y4m over a file holding data: (header, every frame read)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.y4m"
        path.write_bytes(data)
        header, frames = media_io.open_y4m(path)
        return header, list(frames)


def test_constant_frame_normalizes_by_255():
    plane = np.full((16, 16), 128)
    _, frames = _frames_from_bytes(y4m_bytes([plane]))
    assert len(frames) == 1
    assert np.all(frames[0].raw / frames[0].peak == 128 / 255)


def test_10bit_full_scale_normalizes_to_one():
    plane = np.full((16, 16), 1023)
    _, frames = _frames_from_bytes(y4m_bytes([plane], bit_depth=10))
    assert np.all(frames[0].raw / frames[0].peak == 1.0)
    zero = np.zeros((16, 16), dtype=int)
    _, frames = _frames_from_bytes(y4m_bytes([zero], bit_depth=10))
    assert np.all(frames[0].raw / frames[0].peak == 0.0)


def test_10bit_sample_above_1023_rejected():
    plane = np.full((16, 16), 512)
    plane[3, 5] = 1024
    with pytest.raises(SchemaError, match="luma sample 1024 exceeds 10-bit range"):
        _frames_from_bytes(y4m_bytes([plane], bit_depth=10))


def test_10bit_samples_are_little_endian():
    plane = np.full((16, 16), 0x0201)  # bytes 01 02 per sample when LE
    data = y4m_bytes([plane], bit_depth=10)
    # corrupt check: locate the first luma byte pair
    marker = data.index(b"FRAME\n") + len(b"FRAME\n")
    assert data[marker:marker + 2] == b"\x01\x02"


def test_truncated_mid_plane():
    plane = np.full((16, 16), 7)
    data = y4m_bytes([plane])
    with pytest.raises(SchemaError, match="chroma planes truncated"):
        _frames_from_bytes(data[:-40])  # cut inside the chroma tail


def _with_frame_line(line):
    """One 16x16 frame whose FRAME record line is replaced by line."""
    data = y4m_bytes([np.full((16, 16), 7)])
    return data.replace(b"FRAME\n", line, 1)


def test_record_line_at_length_limit_is_read():
    data = _with_frame_line(b"FRAME " + b"X" * (4096 - 6) + b"\n")
    assert len(_frames_from_bytes(data)[1]) == 1


def test_record_line_over_length_limit():
    data = _with_frame_line(b"FRAME " + b"X" * (4097 - 6) + b"\n")
    with pytest.raises(SchemaError, match="record line exceeds"):
        _frames_from_bytes(data)


def test_stream_ends_inside_record_line():
    with pytest.raises(SchemaError, match="ended inside a record line"):
        _frames_from_bytes(y4m_bytes([np.full((16, 16), 7)]) + b"FRA")


def test_header_larger_than_the_file_exits_2(tmp_path):
    # a frame of these dimensions would need 1.5e16 bytes; reading it would
    # ask the allocator for all of them
    path = tmp_path / "huge.y4m"
    path.write_bytes(b"YUV4MPEG2 W100000000 H100000000 F25:1\nFRAME\n" + b"abc")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(path), "--out", str(tmp_path / "features.csv")])
    assert code == EXIT_DATA
    assert err.getvalue() == f"error: {path}: frame 0: luma plane truncated\n"
    assert not (tmp_path / "features.csv").exists()


def test_pipe_with_a_huge_header_exits_2(tmp_path):
    # a pipe has no size to check the header against; reading it in
    # bounded blocks makes it fail at its real length
    fifo = tmp_path / "huge.y4m"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(b"YUV4MPEG2 W100000000 H100000000 F25:1\nFRAME\n" + b"abc")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(fifo), "--out", str(tmp_path / "features.csv")])
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == EXIT_DATA
    assert err.getvalue() == f"error: {fifo}: frame 0: luma plane truncated\n"
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_any_read_block_gives_the_same_frames(monkeypatch, block):
    rng = np.random.default_rng(block)
    clips = [y4m_bytes([random_plane(rng, 48, 64, depth) for _ in range(3)], bit_depth=depth)
             for depth in (8, 10)]
    expected = [_frames_from_bytes(data)[1] for data in clips]
    monkeypatch.setattr(media_io, "_READ_BLOCK", block)
    for data, want in zip(clips, expected):
        _, frames = _frames_from_bytes(data)
        assert len(frames) == 3
        for got, ref in zip(frames, want):
            assert got.raw.dtype == ref.raw.dtype
            assert np.array_equal(got.raw, ref.raw)


# offsets into frame 1's 64x48 10-bit planes (6144 luma bytes, 3072 chroma):
# at the start, on a 7- or 4096-byte block boundary, and inside a block
@pytest.mark.parametrize("plane, cuts", [
    ("luma plane", (0, 700, 703, 4096, 5000, 6143)),
    ("chroma planes", (0, 700, 703, 3071)),
])
@pytest.mark.parametrize("block", [1, 7, 4096])
def test_any_read_block_truncates_with_the_same_message(monkeypatch, block, plane, cuts):
    data = y4m_bytes([np.full((48, 64), 700)] * 2, bit_depth=10)
    start = data.rindex(b"FRAME\n") + len(b"FRAME\n") + (6144 if plane == "chroma planes" else 0)
    monkeypatch.setattr(media_io, "_READ_BLOCK", block)
    for cut in cuts:
        with pytest.raises(SchemaError, match=f"^frame 1: {plane} truncated$"):
            _frames_from_bytes(data[:start + cut])


def test_frame_indices_and_count():
    rng = np.random.default_rng(3)
    planes = [random_plane(rng, 16, 32) for _ in range(5)]
    _, frames = _frames_from_bytes(y4m_bytes(planes))
    assert len(frames) == 5
    assert all(f.raw.shape == (16, 32) for f in frames)


def test_round_trip_quantization_8bit():
    rng = np.random.default_rng(11)
    plane = random_plane(rng, 32, 48, bit_depth=8)
    _, frames = _frames_from_bytes(y4m_bytes([plane]))
    requant = np.rint(frames[0].raw / frames[0].peak * 255).astype(np.uint8)
    assert np.array_equal(requant, plane.astype(np.uint8))


def test_round_trip_quantization_10bit():
    rng = np.random.default_rng(12)
    plane = random_plane(rng, 32, 48, bit_depth=10)
    _, frames = _frames_from_bytes(y4m_bytes([plane], bit_depth=10))
    requant = np.rint(frames[0].raw / frames[0].peak * 1023).astype(np.uint16)
    assert np.array_equal(requant, plane.astype(np.uint16))


@pytest.mark.parametrize("bit_depth, dtype, diff_dtype", [(8, np.uint8, np.int16),
                                                          (10, np.uint16, np.int32)])
def test_frames_keep_the_codes_they_read(bit_depth, dtype, diff_dtype):
    rng = np.random.default_rng(13)
    planes = [random_plane(rng, 16, 32, bit_depth=bit_depth) for _ in range(2)]
    _, frames = _frames_from_bytes(y4m_bytes(planes, bit_depth=bit_depth))
    for frame, plane in zip(frames, planes):
        assert frame.raw.dtype == dtype and frame.peak == (1 << bit_depth) - 1
        assert frame.unit == 255 / frame.peak
        assert np.array_equal(frame.raw, plane)
    diff = media_io.frame_diff(frames[1], frames[0])
    assert diff.raw.dtype == diff_dtype and diff.peak == frames[0].peak
    assert np.array_equal(diff.raw, planes[1].astype(int) - planes[0])


def test_frame_diff_peak_mismatch():
    a = media_io.LumaFrame(np.zeros((16, 16), np.uint8), 255.0)
    b = media_io.LumaFrame(np.zeros((16, 16), np.uint16), 1023.0)
    with pytest.raises(SchemaError, match=r"^cannot subtract a frame of shape \(16, 16\) peaking at "
                                          r"255\.0 from one of shape \(16, 16\) peaking at 1023\.0$"):
        media_io.frame_diff(b, a)


def test_frame_diff_constant_planes():
    a = media_io.LumaFrame(np.full((16, 16), 30 / 255))
    b = media_io.LumaFrame(np.full((16, 16), 50 / 255))
    diff = media_io.frame_diff(a, b)
    assert np.allclose(diff.raw / diff.peak, -20 / 255, atol=1e-15)


def test_frame_diff_shape_mismatch():
    a = media_io.LumaFrame(np.zeros((16, 16)))
    b = media_io.LumaFrame(np.zeros((16, 32)))
    with pytest.raises(SchemaError, match=r"^cannot subtract a frame of shape \(16, 32\) peaking at "
                                          r"1\.0 from one of shape \(16, 16\) peaking at 1\.0$"):
        media_io.frame_diff(a, b)


def test_diff_of_identical_frames_is_zero():
    rng = np.random.default_rng(4)
    samples = random_plane(rng, 16, 16) / 255
    a = media_io.LumaFrame(samples)
    b = media_io.LumaFrame(samples.copy())
    diff = media_io.frame_diff(b, a)
    assert np.all(diff.raw / diff.peak == 0.0)
    assert media_io.mean_abs_luma_diff(diff) == 0.0


def test_mean_abs_single_full_range_pixel():
    # one pixel out of 256 differs by the full range: mean = 255/256
    prev = np.zeros((16, 16))
    curr = np.zeros((16, 16))
    curr[5, 9] = 1.0
    diff = media_io.frame_diff(
        media_io.LumaFrame(curr),
        media_io.LumaFrame(prev),
    )
    assert media_io.mean_abs_luma_diff(diff) == pytest.approx(255 / 256, abs=1e-12)


def test_mean_abs_against_double_loop_oracle():
    rng = np.random.default_rng(20)
    a = random_plane(rng, 24, 40) / 255
    b = random_plane(rng, 24, 40) / 255
    diff = media_io.frame_diff(
        media_io.LumaFrame(b),
        media_io.LumaFrame(a),
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


# ---------------------------------------------------------------------------
# fuzzed streams: open_y4m and extract either read them or reject them
# ---------------------------------------------------------------------------

HEADER_TOKENS = st.sampled_from([
    "W16", "W32", "W17", "W8", "W0", "W-16", "Wx", "W", "W1_6", "H16", "H18", "H0", "Hx",
    "F30:1", "F30", "F0:1", "F1:0", "F-1:1", "Fx:y", "Ip", "It", "Im", "C420", "C420p10",
    "C420jpeg", "C444", "C420p12", "A1:1", "A0:0", "XYSCSS=420", "", "\u00e9", "\x00",
])
FRAME_MARKERS = st.sampled_from([
    b"FRAME", b"FRAME Ixyz", b"FRAME ", b"FRAM", b"FRAMES", b"frame", b"", b"FRAME\r",
])


MUTATIONS = ("token", "magic", "marker", "range", "cut", "junk")


@st.composite
def y4m_streams(draw):
    """A valid 4:2:0 stream of one to three small frames, then up to two
    mutations: a header token, the magic, a frame marker, 10-bit samples
    above 1023, truncation, or trailing junk."""
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    width, height = draw(st.sampled_from([(16, 16), (32, 16)]))
    bit_depth = 10 if "range" in mutations else draw(st.sampled_from([8, 10]))
    tokens = [f"W{width}", f"H{height}", "F30:1", "Ip", "A1:1",
              "C420" if bit_depth == 8 else "C420p10"]
    if "token" in mutations:
        index, token = draw(st.integers(0, 7)), draw(HEADER_TOKENS)
        tokens[index:index + 1] = [token]
    magic = "YUV4MPEG2"
    if "magic" in mutations:
        magic = draw(st.sampled_from(["YUV4MPEG", "YUV4MPEG2X", "yuv4mpeg2", ""]))
    data = " ".join([magic, *tokens]).encode() + b"\n"

    n_frames = draw(st.integers(1, 3))
    markers = [b"FRAME"] * n_frames
    if "marker" in mutations:
        markers[draw(st.integers(0, n_frames - 1))] = draw(FRAME_MARKERS)
    peak = draw(st.sampled_from([1024, 65535])) if "range" in mutations else (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth == 8 else np.dtype("<u2")
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for marker in markers:
        samples = rng.integers(0, peak + 1, size=width * height * 3 // 2)
        data += marker + b"\n" + samples.astype(dtype).tobytes()
    if "cut" in mutations:
        data = data[:draw(st.integers(0, len(data) - 1))]
    if "junk" in mutations:
        data += draw(st.binary(min_size=1, max_size=4))
    return data


@pytest.fixture(scope="module")
def y4m_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("y4m")


@settings(max_examples=50, deadline=None)
@given(data=y4m_streams())
def test_fuzzed_stream_reads_or_raises_library_error(y4m_dir, data):
    path = y4m_dir / "clip.y4m"
    path.write_bytes(data)
    try:
        header, frames = media_io.open_y4m(path)
        for frame in frames:
            assert frame.raw.shape == (header.height, header.width)
            assert 0 <= frame.raw.min() and frame.raw.max() <= frame.peak
    except LadderforgeError:
        pass


@settings(max_examples=50, deadline=None)
@given(data=y4m_streams())
def test_fuzzed_stream_to_extract_gives_exit_0_or_2(y4m_dir, data):
    path = y4m_dir / "clip.y4m"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["extract", str(path), "--out", str(y4m_dir / "features.csv")])
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_DATA:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
