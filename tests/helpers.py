"""Shared test utilities: Y4M synthesis and small numeric oracles.

The Y4M writer here is intentionally independent of the package's parser so
round-trip tests exercise two separate code paths.
"""

import io
from types import SimpleNamespace

import numpy as np

from ladderforge import regressor


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


def trees_of(model):
    """Each tree of a model's node table on its own: its slices of feature,
    threshold and value, and its right children as indexes within the tree."""
    bounds = model.roots.tolist() + [model.feature.size]
    trees = []
    for a, b in zip(bounds, bounds[1:]):
        right = model.right[a:b]
        trees.append(SimpleNamespace(feature=model.feature[a:b], threshold=model.threshold[a:b],
                                     right=np.where(right >= 0, right - a, -1),
                                     value=model.value[a:b]))
    return trees


def table_of(trees):
    """(roots, feature, threshold, right, value) of one node table holding
    the (feature, threshold, value) arrays of each tree in turn.

    Each tree's right children are regressor._right_children of its own
    features, moved by the tree's first index.
    """
    sizes = [feature.size for feature, _, _ in trees]
    roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
    right = []
    for a, (feature, _, _) in zip(roots.tolist(), trees):
        child = regressor._right_children(feature).astype(np.intp)
        right.append(np.where(child >= 0, child + a, -1))
    feature, threshold, value = (np.concatenate(column) for column in zip(*trees))
    return roots, feature, threshold, np.concatenate(right), value


def grow_alone(X, y, k, min_leaf, rng):
    """(feature, threshold, value) of one tree grown on its own from rng.

    The oracle for regressor._grow_tree, which grows a group of trees at
    once: the one-tree grower, level by level, with the same draws in the
    same order. X and y must already be in train's canonical row order.
    """
    levels = []  # per depth: feature, threshold, value, positions that split
    rows = np.arange(len(y))
    starts = np.zeros(1, dtype=np.intp)
    while starts.size:
        counts = np.diff(starts, append=rows.size)
        ys = y[rows]
        pure = np.minimum.reduceat(ys, starts) == np.maximum.reduceat(ys, starts)
        value = np.where(pure, ys[starts], np.add.reduceat(ys, starts) / counts)
        feature = np.full(starts.size, -1, dtype=np.int32)
        threshold = np.zeros(starts.size)
        is_open = ~pure & (counts >= 2 * min_leaf)
        open_ = np.flatnonzero(is_open)
        if not open_.size:
            levels.append((feature, threshold, value, open_))
            break
        n_open = counts[open_]
        in_open = np.repeat(is_open, counts)
        rows, ys = rows[in_open], ys[in_open]
        at = np.cumsum(n_open) - n_open
        node = np.repeat(np.arange(open_.size), n_open)
        lows = np.minimum.reduceat(X[rows], at, axis=0)
        highs = np.maximum.reduceat(X[rows], at, axis=0)
        keys = rng.random(lows.shape)
        keys[highs <= lows] = 2.0
        cand = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
        ok = np.take_along_axis(keys, cand, axis=1) < 1.0
        lo = np.take_along_axis(lows, cand, axis=1)
        hi = np.take_along_axis(highs, cand, axis=1)
        thr = rng.uniform(lo, hi)
        ok &= (lo < thr) & (thr < hi)
        left = X[rows[:, None], cand[node]] <= thr[node]
        n_left = np.add.reduceat(left, at, axis=0)
        s_left = np.add.reduceat(np.where(left, ys[:, None], 0.0), at, axis=0)
        n_right = n_open[:, None] - n_left
        s_right = np.add.reduceat(ys, at)[:, None] - s_left
        ok &= (n_left >= min_leaf) & (n_right >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(ok, s_left**2 / n_left + s_right**2 / n_right, -np.inf)
        best = np.argmax(score, axis=1)
        chosen = ok[np.arange(open_.size), best]
        split = open_[chosen]
        feature[split] = cand[chosen, best[chosen]]
        threshold[split] = thr[chosen, best[chosen]]
        value[split] = 0.0
        levels.append((feature, threshold, value, split))
        goes_left = left[np.arange(rows.size), best[node]]
        keep = np.flatnonzero(chosen[node])
        rows = rows[keep[np.argsort(2 * node[keep] + ~goes_left[keep], kind="stable")]]
        n_l = n_left[chosen, best[chosen]]
        children = np.column_stack((n_l, n_open[chosen] - n_l)).ravel()
        starts = np.cumsum(children) - children
    # renumber into pre-order: level D's j-th split node has its children
    # at positions 2j and 2j + 1 of level D + 1
    base = np.cumsum([0] + [len(f) for f, _, _, _ in levels])
    total = int(base[-1])
    parents = [base[depth] + split for depth, (_, _, _, split) in enumerate(levels)]
    first = np.full(total, -1, dtype=np.int64)
    for depth, ids in enumerate(parents):
        first[ids] = base[depth + 1] + 2 * np.arange(ids.size)
    size = np.ones(total, dtype=np.int64)
    for ids in reversed(parents):
        size[ids] += size[first[ids]] + size[first[ids] + 1]
    pre = np.zeros(total, dtype=np.int64)
    for ids in parents:
        pre[first[ids]] = pre[ids] + 1
        pre[first[ids] + 1] = pre[ids] + 1 + size[first[ids]]
    out = np.empty(total, dtype=np.int32), np.empty(total), np.empty(total)
    for whole, column in zip(out, zip(*levels)):
        whole[pre] = np.concatenate(column)
    return out


def body_text(model):
    """A model file's body as text, one node line at a time, each formatted
    by its own f-string: the oracle for regressor.save_model's body."""
    lines = []
    for t, tree in enumerate(trees_of(model)):
        lines.append(f"tree {t}")
        for f, thr, v in zip(tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()):
            lines.append(f"l {v!r}" if f < 0 else f"s {f} {thr!r}")
    return "\n".join(lines) + "\n"
