"""Y4M (YUV4MPEG2) ingest and frame-difference primitives.

Only progressive planar 4:2:0 at 8 or 10 bits is accepted. A frame keeps
its luma samples as read (uint8, or uint16 for 10 bits) together with the
peak code 2^depth - 1, so the linear stages downstream run exactly on
integers; the motion feature is rescaled to 8-bit units, so it does not
depend on the bit depth. Chroma planes are skipped, never decoded.

The input may be a regular file or a pipe. open_y4m keeps it open for
the length of a with block, and the block reads its frames one at a
time. No read asks for more than _READ_BLOCK bytes at a time, so a
stream shorter than its header promises fails at its real length
instead of allocating what the header claims.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Iterator

import numpy as np

from .errors import SchemaError
from .pyramid import MIN_DIMENSION

_MAGIC = b"YUV4MPEG2"
# Y4M colourspace tags we can decode, mapped to sample bit depth.
_CHROMA_DEPTH = {
    "420": 8,
    "420jpeg": 8,
    "420paldv": 8,
    "420mpeg2": 8,
    "420p10": 10,
}
_MAX_HEADER_BYTES = 4096
_READ_BLOCK = 16 << 20  # a 4K 8-bit luma plane is one read


@dataclass(frozen=True)
class VideoHeader:
    width: int
    height: int
    frame_rate: Fraction
    bit_depth: int
    chroma: str

    @property
    def bytes_per_sample(self) -> int:
        return 1 if self.bit_depth == 8 else 2


@dataclass(frozen=True)
class LumaFrame:
    """One luma plane: raw holds its samples, shaped (height, width), on a
    scale where peak is full white.

    A frame read from Y4M holds the integer codes it read and the peak
    code 2^depth - 1. A difference of consecutive frames (frame_diff) is
    also a LumaFrame, with signed integer raw samples and the frames' peak.
    Any real plane may stand in for raw; the default peak of 1.0 takes it
    as already normalized. unit, 255 / peak, converts samples to
    8-bit-equivalent units.
    """

    raw: np.ndarray
    peak: float = 1.0

    @property
    def unit(self) -> float:
        return 255.0 / self.peak


def parse_y4m_header(line: bytes) -> VideoHeader:
    """Parse the stream header line, without its newline.

    Raises SchemaError for structural problems and for valid Y4M we
    refuse (interlaced, chroma other than 8/10-bit 4:2:0, frames smaller
    than MIN_DIMENSION or with odd dimensions).
    """
    if not line.startswith(_MAGIC) or (len(line) > len(_MAGIC) and line[len(_MAGIC):len(_MAGIC) + 1] != b" "):
        raise SchemaError("missing YUV4MPEG2 magic")

    width = height = None
    rate = None
    chroma = "420"
    for token in line[len(_MAGIC):].split(b" "):
        if not token:
            continue
        key, value = token[:1], token[1:].decode("ascii", "replace")
        if key == b"W":
            width = _parse_int(value, "width")
        elif key == b"H":
            height = _parse_int(value, "height")
        elif key == b"F":
            rate = _parse_rate(value)
        elif key == b"I":
            if value != "p":
                raise SchemaError(f"interlaced stream (I{value}) not supported")
        elif key == b"C":
            if value not in _CHROMA_DEPTH:
                raise SchemaError(f"colourspace C{value} not supported")
            chroma = value
        # A (aspect) and X (extensions) are irrelevant here and ignored.

    if width is None or height is None:
        raise SchemaError("header must carry W and H")
    if rate is None:
        raise SchemaError("header must carry a frame rate (F)")
    if width < MIN_DIMENSION or height < MIN_DIMENSION:
        raise SchemaError(
            f"{width}x{height} below the {MIN_DIMENSION}x{MIN_DIMENSION} minimum"
        )
    if width % 2 or height % 2:
        raise SchemaError("4:2:0 chroma requires even dimensions")
    return VideoHeader(width, height, rate, _CHROMA_DEPTH[chroma], chroma)


def _parse_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise SchemaError(f"non-integer {what}: {text!r}") from None
    if value <= 0:
        raise SchemaError(f"non-positive {what}: {value}")
    return value


def _parse_rate(text: str) -> Fraction:
    num, sep, den = text.partition(":")
    if not sep:
        raise SchemaError(f"frame rate must be num:den, got {text!r}")
    try:
        rate = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"bad frame rate {text!r}") from None
    if rate <= 0:
        raise SchemaError(f"non-positive frame rate {text!r}")
    return rate


def _read_line(stream: BinaryIO) -> bytes | None:
    """Read bytes up to (not including) a newline; None on immediate EOF."""
    line = stream.readline(_MAX_HEADER_BYTES + 1)
    if not line:
        return None
    if line.endswith(b"\n"):
        return line[:-1]
    if len(line) > _MAX_HEADER_BYTES:
        raise SchemaError("record line exceeds sane length")
    raise SchemaError("stream ended inside a record line")


def _read_bytes(stream: BinaryIO, size: int) -> bytes:
    """Up to size bytes, fewer only where the stream ends; read in blocks
    of at most _READ_BLOCK bytes and joined."""
    blocks = []
    while size > 0:
        block = stream.read(min(size, _READ_BLOCK))
        if not block:
            break
        blocks.append(block)
        size -= len(block)
    return b"".join(blocks)


def _read_frame_record(stream: BinaryIO, header: VideoHeader, index: int) -> LumaFrame | None:
    """Read one frame; None when the stream ends cleanly at a frame boundary."""
    marker = _read_line(stream)
    if marker is None:
        return None
    if marker != b"FRAME" and not marker.startswith(b"FRAME "):
        raise SchemaError(f"expected FRAME record, got {marker[:24]!r}")

    bps = header.bytes_per_sample
    luma_bytes = header.width * header.height * bps
    chroma_bytes = (header.width // 2) * (header.height // 2) * bps * 2
    buf = _read_bytes(stream, luma_bytes)
    if len(buf) < luma_bytes:
        raise SchemaError(f"frame {index}: luma plane truncated")
    if len(_read_bytes(stream, chroma_bytes)) < chroma_bytes:
        raise SchemaError(f"frame {index}: chroma planes truncated")

    dtype = np.uint8 if bps == 1 else np.dtype("<u2")
    peak = float((1 << header.bit_depth) - 1)
    raw = np.frombuffer(buf, dtype=dtype)
    if bps == 2 and raw.max() > peak:
        raise SchemaError(
            f"frame {index}: luma sample {raw.max()} exceeds {header.bit_depth}-bit range"
        )
    return LumaFrame(raw.reshape(header.height, header.width), peak)


@contextmanager
def open_y4m(path) -> Iterator[tuple[VideoHeader, Iterator[LumaFrame]]]:
    """Yield (header, frame iterator) of a Y4M file held open for the with block."""
    with open(path, "rb") as stream:
        line = _read_line(stream)
        if line is None:
            raise SchemaError("empty stream")
        header = parse_y4m_header(line)
        yield header, _frames(stream, header)


def _frames(stream: BinaryIO, header: VideoHeader) -> Iterator[LumaFrame]:
    """Yield frames until the stream ends at a clean frame boundary."""
    index = 0
    while (frame := _read_frame_record(stream, header, index)) is not None:
        yield frame
        index += 1


def frame_diff(current: LumaFrame, previous: LumaFrame) -> LumaFrame:
    """Signed luma difference current - previous, on the frames' scale.

    Integer samples subtract exactly into the smallest signed type that
    holds them (int16 for 8 bits); real ones stay real.
    """
    if (current.raw.shape, current.peak) != (previous.raw.shape, previous.peak):
        raise SchemaError(
            f"cannot subtract a frame of shape {previous.raw.shape} peaking at "
            f"{previous.peak} from one of shape {current.raw.shape} peaking at {current.peak}"
        )
    return LumaFrame(
        np.subtract(current.raw, previous.raw,
                    dtype=np.result_type(current.raw, previous.raw, np.int16)),
        current.peak,
    )


def mean_abs_luma_diff(diff: LumaFrame) -> float:
    """Mean absolute difference, rescaled to 8-bit-equivalent units.

    Scaling by the frame's unit keeps the motion feature's magnitude in
    line with the conventional 8-bit definition regardless of source bit
    depth.
    """
    return float(np.mean(np.abs(diff.raw)) * diff.unit)
