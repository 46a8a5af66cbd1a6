"""Shared test utilities: Y4M synthesis and small numeric oracles.

The Y4M writer here is intentionally independent of the package's parser so
round-trip tests exercise two separate code paths.
"""

import io

import numpy as np


def y4m_bytes(planes, bit_depth=8, fps=(30, 1), chroma_value=None):
    """Serialize luma planes into a YUV4MPEG2 byte stream.

    Args:
        planes: list of 2-D integer arrays (h, w), values within bit depth.
        bit_depth: 8 or 10.
        fps: (num, den) frame rate.
        chroma_value: fill value for the two chroma planes; defaults to
            mid-range for the bit depth.

    Returns:
        bytes of a complete Y4M stream with 4:2:0 chroma.
    """
    h, w = np.asarray(planes[0]).shape
    ctag = "C420" if bit_depth == 8 else "C420p10"
    header = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 {ctag}\n"
    if chroma_value is None:
        chroma_value = 1 << (bit_depth - 1)
    dtype = np.uint8 if bit_depth == 8 else np.dtype("<u2")
    cplane = np.full((h // 2, w // 2), chroma_value, dtype=dtype)
    buf = io.BytesIO()
    buf.write(header.encode("ascii"))
    for plane in planes:
        arr = np.asarray(plane)
        assert arr.shape == (h, w)
        buf.write(b"FRAME\n")
        buf.write(arr.astype(dtype).tobytes())
        buf.write(cplane.tobytes())
        buf.write(cplane.tobytes())
    return buf.getvalue()


def write_y4m(path, planes, bit_depth=8, fps=(30, 1)):
    data = y4m_bytes(planes, bit_depth=bit_depth, fps=fps)
    with open(path, "wb") as f:
        f.write(data)
    return path


def random_plane(rng, h, w, bit_depth=8):
    """Uniform random integer plane within the bit depth."""
    return rng.integers(0, (1 << bit_depth), size=(h, w))


def conv2d_replicate(plane, kernel):
    """Direct 2-D convolution oracle with edge replication, same size.

    Deliberately loop-based and separate from the package's separable path.
    """
    plane = np.asarray(plane, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(plane, ((ph, ph), (pw, pw)), mode="edge")
    out = np.zeros_like(plane)
    h, w = plane.shape
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += kernel[i, j] * padded[y + i, x + j]
            out[y, x] = acc
    return out


def split_plane(values):
    """An 84-value plane vector as (per_eig (4, 2, 9), per_band (4, 2), per_scale (4,)).

    Written from the documented layout, not from the package's spans.
    """
    values = np.asarray(values)
    assert values.shape == (84,)
    return values[:72].reshape(4, 2, 9), values[72:80].reshape(4, 2), values[80:84]


def rung_resolutions(rungs):
    """Each ladder rung's (width, height), in rung order."""
    return [(r.width, r.height) for r in rungs]


def is_monotone(rungs):
    """True when pixel counts never fall from one rung to the next."""
    pixels = [w * h for w, h in rung_resolutions(rungs)]
    return all(a <= b for a, b in zip(pixels, pixels[1:]))
