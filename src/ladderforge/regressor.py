"""Extremely randomized trees regressor with deterministic persistence.

Implemented from scratch so the behaviour needed here is actually
guaranteed: every tree is grown on the full sample (no bootstrap), each
node draws k candidate features and one uniform threshold per candidate
inside the node's observed range, and the best candidate by variance
reduction wins with ties broken toward the lowest feature index, then the
lowest threshold. Tree t derives its RNG from seed + t, so ensembles with
a shared seed share their first trees and scheduling cannot change the
result. Training rows are put into a canonical lexicographic order first,
which makes the model a pure function of the row *set*, the tree settings
and the seed; identical inputs give byte-identical model files.

Trees grow level by level. At each depth the RNG is drawn twice, in the
left-to-right order of the level's open nodes: first one uniform key per
(node, feature), where a node's candidates are the features with its k
smallest keys among those it does not hold constant; then one uniform
threshold per (node, candidate), candidates in ascending feature order.
Nodes are renumbered into pre-order before a tree is returned.

A model holds its trees as one pre-order node table: per node its
``feature`` (-1 at a leaf), ``threshold``, ``right`` and ``value``, and
per tree its first node in ``roots``. A split's left child is the next
node and ``right`` holds the table index of its right child, which
``_right_children`` finds tree by tree, for grown trees and loaded ones
alike. train joins the grown trees into the table once; save_model
formats and hashes one tree at a time; load_model reads the file in
blocks of ``_READ_BLOCK`` bytes, once to check it and once to parse its
body into the table; predict_batch walks the table without copying it.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import math
from functools import partial
from itertools import zip_longest
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SchemaError, located
from .feature_assembly import column_names
from .ioutil import atomic_write_bytes

_FORMAT_LINE = "ladderforge-extra-trees v1"
_SEPARATOR = b"\n---\n"  # between a model file's header and its body
_READ_BLOCK = 1 << 16     # bytes per read of a model file


@dataclass(frozen=True)
class ExtraTreesModel:
    """An ensemble as one pre-order node table: tree t's nodes run from
    roots[t] up to the next root; feature == -1 marks a leaf, a split's left
    child is the next node and ``right`` holds its right child's index."""

    approach: int
    columns: tuple[str, ...]
    min_samples_leaf: int
    k_features: int
    seed: int
    roots: np.ndarray = field(repr=False)
    feature: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)


class _Grown(NamedTuple):
    """One grown tree's pre-order nodes, before train joins them into a table."""

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray


def train(X, y, approach: int, *, n_trees: int = 100, min_samples_leaf: int = 1,
          k_features: int | None = None, seed: int = 0) -> ExtraTreesModel:
    """Fit an ensemble on an approach's (n, d) design matrix X and targets y.

    X holds one row per encode in column_names(approach) order, as
    feature_assembly.assemble builds it; k_features None is ceil(d / 3).
    """
    k = validate_forest(approach, n_trees, min_samples_leaf, k_features, seed)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not y.size:
        raise SchemaError("no training rows")
    columns = tuple(column_names(approach))
    width = len(columns)
    if y.ndim != 1 or X.shape != (y.size, width):
        raise SchemaError(
            f"approach {approach} takes an (n, {width}) X and an (n,) y, "
            f"got {X.shape} and {y.shape}"
        )
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise SchemaError(f"{name} holds a value that is not finite")

    # canonical row order: sort lexicographically by features then target
    keys = [y] + [X[:, j] for j in reversed(range(width))]
    order = np.lexsort(keys)
    X, y = X[order], y[order]

    trees = [_grow_tree(X, y, k, min_samples_leaf, np.random.default_rng(seed + t))
             for t in range(n_trees)]
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
    feature, threshold, value = map(np.concatenate, zip(*trees))
    del trees
    return ExtraTreesModel(approach, columns, min_samples_leaf, k, seed,
                           roots, feature, threshold, _link(feature, roots), value)


def validate_forest(approach: int, n_trees: int, min_samples_leaf: int,
                    k_features: int | None, seed: int) -> int:
    """Check an approach's tree settings; return k, the features drawn per node."""
    width = len(column_names(approach))
    k = math.ceil(width / 3) if k_features is None else k_features
    if n_trees < 1:
        raise SchemaError(f"n_trees must be >= 1, got {n_trees}")
    if min_samples_leaf < 1:
        raise SchemaError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if not 1 <= k <= width:
        raise SchemaError(f"k_features must be in [1, {width}], got {k}")
    if seed < 0:
        raise SchemaError(f"seed must be >= 0, got {seed}")
    return k


def _grow_tree(X, y, k, min_leaf, rng) -> _Grown:
    """Grow one tree breadth-first, with a fixed number of numpy calls per depth.

    The rows of each frontier node stay contiguous in ``rows``, in their
    canonical order, so every per-node statistic is one ``reduceat`` over
    the node starts. Nodes get breadth-first ids while growing and are
    renumbered into pre-order at the end. The ``del`` statements free the
    (rows x d) and (nodes x d) temporaries before the (rows x k) ones are
    made, which keeps the peak memory of a level down.
    """
    levels = []  # per depth: feature, threshold, value, positions that split
    rows = np.arange(len(y))
    starts = np.zeros(1, dtype=np.intp)
    while starts.size:
        counts = np.diff(starts, append=rows.size)
        ys = y[rows]
        pure = np.minimum.reduceat(ys, starts) == np.maximum.reduceat(ys, starts)
        # a pure leaf stores the common target exactly, no mean round-off
        value = np.where(pure, ys[starts], np.add.reduceat(ys, starts) / counts)
        feature = np.full(starts.size, -1, dtype=np.int32)
        threshold = np.zeros(starts.size)
        is_open = ~pure & (counts >= 2 * min_leaf)
        open_ = np.flatnonzero(is_open)
        if not open_.size:
            levels.append((feature, threshold, value, open_))
            break
        # only the rows of open nodes take part in the X reductions
        n_open = counts[open_]
        in_open = np.repeat(is_open, counts)
        rows, ys = rows[in_open], ys[in_open]
        at = np.cumsum(n_open) - n_open
        node = np.repeat(np.arange(open_.size), n_open)
        Xo = X[rows]
        lows = np.minimum.reduceat(Xo, at, axis=0)
        highs = np.maximum.reduceat(Xo, at, axis=0)
        del Xo
        # the k smallest of uniform keys over a node's non-constant
        # features are a uniform draw of min(k, #usable) distinct ones
        keys = rng.random(lows.shape)
        keys[highs <= lows] = 2.0
        cand = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
        ok = np.take_along_axis(keys, cand, axis=1) < 1.0
        lo = np.take_along_axis(lows, cand, axis=1)
        hi = np.take_along_axis(highs, cand, axis=1)
        del keys, lows, highs
        thr = rng.uniform(lo, hi)
        ok &= (lo < thr) & (thr < hi)  # a draw at the range edge is skipped
        del lo, hi
        left = X[rows[:, None], cand[node]] <= thr[node]
        n_left = np.add.reduceat(left, at, axis=0)
        s_left = np.add.reduceat(np.where(left, ys[:, None], 0.0), at, axis=0)
        n_right = n_open[:, None] - n_left
        s_right = np.add.reduceat(ys, at)[:, None] - s_left
        ok &= (n_left >= min_leaf) & (n_right >= min_leaf)
        # total child SSE is sum(y^2) - s_l^2/n_l - s_r^2/n_r and sum(y^2)
        # is the node's own, so the SSE argmin is this argmax; argmax
        # takes the first maximum, the lowest of the sorted features
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(ok, s_left**2 / n_left + s_right**2 / n_right, -np.inf)
        best = np.argmax(score, axis=1)
        chosen = ok[np.arange(open_.size), best]
        split = open_[chosen]
        feature[split] = cand[chosen, best[chosen]]
        threshold[split] = thr[chosen, best[chosen]]
        value[split] = 0.0
        levels.append((feature, threshold, value, split))
        # stable partition: per split node its left rows, then its right rows
        goes_left = left[np.arange(rows.size), best[node]]
        keep = np.flatnonzero(chosen[node])
        rows = rows[keep[np.argsort(2 * node[keep] + ~goes_left[keep], kind="stable")]]
        n_l = n_left[chosen, best[chosen]]
        children = np.column_stack((n_l, n_open[chosen] - n_l)).ravel()
        starts = np.cumsum(children) - children
    return _preorder(levels)


def _preorder(levels) -> _Grown:
    """Renumber breadth-first levels into a tree's pre-order nodes.

    Level D's j-th split node has its children at positions 2j and 2j + 1
    of level D + 1.
    """
    base = np.cumsum([0] + [len(f) for f, _, _, _ in levels])
    total = int(base[-1])
    parents = [base[depth] + split for depth, (_, _, _, split) in enumerate(levels)]
    first = np.full(total, -1, dtype=np.int64)  # breadth-first id of the left child
    for depth, ids in enumerate(parents):
        first[ids] = base[depth + 1] + 2 * np.arange(ids.size)
    size = np.ones(total, dtype=np.int64)
    for ids in reversed(parents):
        size[ids] += size[first[ids]] + size[first[ids] + 1]
    pre = np.zeros(total, dtype=np.int64)
    for ids in parents:
        pre[first[ids]] = pre[ids] + 1
        pre[first[ids] + 1] = pre[ids] + 1 + size[first[ids]]
    feature = np.empty(total, dtype=np.int32)
    threshold = np.empty(total)
    value = np.empty(total)
    feature[pre] = np.concatenate([f for f, _, _, _ in levels])
    threshold[pre] = np.concatenate([t for _, t, _, _ in levels])
    value[pre] = np.concatenate([v for _, _, v, _ in levels])
    return _Grown(feature, threshold, value)


def _right_children(feature: np.ndarray) -> np.ndarray:
    """Right child of each pre-order node (-1 at a leaf, where feature < 0).

    Every node fills one open child slot and every split opens two, so a
    split's left child is the next node and its right child is the next
    node that finds as many slots open as the split did. Raises ValueError
    when the nodes are not one whole tree.
    """
    split = feature >= 0
    after = np.cumsum(2 * split - 1) + 1  # open slots once node i is placed
    if not after[:-1].all():
        raise ValueError("dangling node outside any branch")
    if not after.size or after[-1]:
        raise ValueError("tree truncated mid-branch")
    before = after - 2 * split + 1  # open slots node i finds
    order = np.argsort(before, kind="stable")
    following = np.full(feature.size, -1, dtype=np.int32)
    following[order[:-1]] = order[1:]
    return np.where(split, following, np.int32(-1))


def _spans(roots: np.ndarray, size: int):
    """(first node, end) of each tree of a table of size nodes."""
    starts = roots.tolist()
    return zip(starts, starts[1:] + [size])


def _link(feature: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Table index of each node's right child (-1 at a leaf), tree by tree.

    Raises ValueError naming the first tree whose nodes are not one whole tree.
    """
    right = np.empty(feature.size, dtype=np.intp)
    for t, (a, b) in enumerate(_spans(roots, feature.size)):
        try:
            child = _right_children(feature[a:b])
        except ValueError as exc:
            raise ValueError(f"tree {t}: {exc}") from None
        right[a:b] = child
        right[a:b][child >= 0] += a
    return right


def predict_batch(model: ExtraTreesModel, X) -> np.ndarray:
    """Ensemble predictions for an (n, d) array in the model's layout."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.columns):
        raise SchemaError(
            f"expected (n, {len(model.columns)}) query, got shape {X.shape}"
        )
    # every (tree, row) pair walks the model's one node table
    feature, threshold, right = model.feature, model.threshold, model.right
    n_trees = model.roots.size
    node = np.repeat(model.roots, X.shape[0])
    row = np.tile(np.arange(X.shape[0]), n_trees)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        cur = node[active]
        go_left = X[row[active], feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, cur + 1, right[cur])
        node[active] = nxt
        active = active[feature[nxt] >= 0]
    per_tree = model.value[node].reshape(n_trees, -1)
    # accumulate tree by tree so the summation order is the same for any
    # batch size; the mean of the votes lies inside their range, so the
    # clip removes the last-ulp slop and identical votes return exactly
    total = np.zeros(X.shape[0])
    for votes in per_tree:
        total += votes
    mean = total / n_trees
    return np.clip(mean, per_tree.min(axis=0), per_tree.max(axis=0))


# ---------------------------------------------------------------------------
# persistence: versioned structured text with a body checksum
# ---------------------------------------------------------------------------

def _header_lines(approach, columns, n_trees, min_samples_leaf, k_features, seed,
                  checksum) -> list[str]:
    """The header lines of a model file, in the one form save_model writes."""
    return [
        _FORMAT_LINE,
        f"approach {approach}",
        "columns " + ",".join(columns),
        f"n_trees {n_trees}",
        f"min_samples_leaf {min_samples_leaf}",
        f"k_features {k_features}",
        f"seed {seed}",
        f"checksum {checksum}",
    ]


def save_model(model: ExtraTreesModel, path) -> None:
    """Write the model file: its header, then the body lines of each tree,
    formatted, encoded and hashed one tree at a time."""
    digest, body = hashlib.sha256(), []
    for t, (a, b) in enumerate(_spans(model.roots, model.feature.size)):
        nodes = zip(model.feature[a:b].tolist(), model.threshold[a:b].tolist(),
                    model.value[a:b].tolist())
        lines = [f"tree {t}"] + [f"l {v!r}" if f < 0 else f"s {f} {thr!r}" for f, thr, v in nodes]
        body.append(("\n".join(lines) + "\n").encode())
        digest.update(body[-1])
    header = _header_lines(model.approach, model.columns, model.roots.size,
                           model.min_samples_leaf, model.k_features, model.seed,
                           digest.hexdigest())
    atomic_write_bytes(path, "\n".join(header).encode() + _SEPARATOR, *body)


def load_model(path) -> ExtraTreesModel:
    """Read a model file, a block at a time, in two passes over one open file.

    The first pass checks that the file is UTF-8, hashes the body and
    counts its lines; the header and checksum are checked before the
    second pass parses the body into the node table. A file replaced by
    rename between the passes is not seen: the open file is the old one.
    """
    with open(path, "rb") as handle:
        if not handle.seekable():  # a pipe cannot be read twice
            raise SchemaError(f"{path}: not a seekable file")
        head, digest, lines = _scan(iter(partial(handle.read, _READ_BLOCK), b""), path)
        header_lines = head.decode("utf-8").split("\n")
        if header_lines[0] != _FORMAT_LINE:
            raise SchemaError(
                f"{path}: expected {_FORMAT_LINE!r}, found {header_lines[0]!r}"
            )
        fields = dict(line.partition(" ")[::2] for line in header_lines[1:])
        try:
            approach = int(fields["approach"])
            columns = tuple(fields["columns"].split(","))
            n_trees = int(fields["n_trees"])
            min_samples_leaf = int(fields["min_samples_leaf"])
            k_features = int(fields["k_features"])
            seed = int(fields["seed"])
            checksum = fields["checksum"]
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"{path}: bad header ({exc})") from None
        # the parsed values must give back the header exactly: no unknown,
        # repeated or reordered key, and each value in its one written form
        expected = _header_lines(approach, columns, n_trees, min_samples_leaf, k_features, seed,
                                 checksum)
        for number, (got, want) in enumerate(zip_longest(header_lines, expected), 1):
            if got != want:
                want = "no line" if want is None else repr(want)
                raise SchemaError(f"{path}: header line {number} is {got!r}, expected {want}")
        if digest != checksum:
            raise SchemaError(f"{path}: body checksum mismatch")
        with located(path):
            validate_forest(approach, n_trees, min_samples_leaf, k_features, seed)
        if columns != tuple(column_names(approach)):
            raise SchemaError(f"{path}: layout does not match approach {approach}")

        handle.seek(len(head) + len(_SEPARATOR))
        blocks = iter(partial(handle.read, _READ_BLOCK), b"")
        roots, feature, threshold, value = _parse_body(_whole_lines(blocks), lines + 1, path,
                                                       len(columns))
    try:
        right = _link(feature, roots)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if roots.size != n_trees:
        raise SchemaError(f"{path}: expected {n_trees} trees, found {roots.size}")
    return ExtraTreesModel(approach, columns, min_samples_leaf, k_features, seed,
                           roots, feature, threshold, right, value)


def _scan(blocks, path) -> tuple[bytes, str, int]:
    """A model file's header, the sha256 of its body and the body's "\\n"
    count, from its blocks; raises SchemaError when the file is not UTF-8
    or has no header/body separator."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    digest, head, lines, found = hashlib.sha256(), b"", 0, b""
    try:
        for block in blocks:
            decoder.decode(block)  # only a check: the body is parsed as bytes
            if not found:  # the header so far, and the body after it once found
                head, found, block = (head + block).partition(_SEPARATOR)
            digest.update(block)
            lines += block.count(b"\n")
        decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc.reason})") from None
    if not found:
        raise SchemaError(f"{path}: missing header/body separator")
    return head, digest.hexdigest(), lines


def _whole_lines(blocks):
    """The blocks' bytes in runs of whole lines: each block with the part of
    a line the block before it cut off, up to its own last "\\n". The
    last run may lack a final "\\n"."""
    rest = b""
    for block in blocks:
        end = block.rfind(b"\n") + 1
        if end:
            yield rest + block[:end]
            rest = block[end:]
        else:
            rest += block
    if rest:
        yield rest


# A body line is ``tree <t>``, ``l <value>`` or ``s <feature> <threshold>``:
# printable ASCII tokens, one space between them and "\n" after the last.
_TREE, _SPLIT = b"ts"
_TOKENS = np.zeros(256, dtype=np.intp)  # tokens on a line, by its first byte
_TOKENS[list(b"tls")] = 2, 2, 3
_TREE_HEAD = np.frombuffer(b"tree ", dtype=np.uint8)
_LINE_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


class _Parsed(dict):
    """Token -> number, parsing each distinct token once, as text."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, token: bytes):
        self[token] = number = self.parse(token.decode())
        return number


def _parse_body(chunks, size: int, path, width: int, trees: int = 0):
    """Roots, feature, threshold and value of a model body given as runs of
    whole lines, in a table with room for ``size`` nodes: each run of node
    lines after a ``tree`` line that carries the tree's index, with split
    features in [0, width) and finite numbers.

    A bad run is parsed again a line at a time, after ``trees`` tree lines,
    so the error names the tree of its first bad line.
    """
    features, leaves = _Parsed(int), _Parsed(float)
    table = np.empty(size, dtype=np.int32), np.empty(size), np.empty(size)
    roots, nodes = [], 0
    for chunk in chunks:
        seen = trees + len(roots)
        try:
            at, labels, *columns = _node_table(chunk, width, features, leaves, not seen)
        except ValueError as exc:
            if b"\n" in chunk[:-1]:  # more than one line
                _parse_body(iter(io.BytesIO(chunk).readline, b""), chunk.count(b"\n") + 1,
                            path, width, seen)
            raise SchemaError(f"{path}: tree {max(seen - 1, 0)}: {exc}") from None
        indexes = list(map(b"%d".__mod__, range(seen, seen + len(labels))))
        if labels != indexes:
            i = next(i for i, (label, index) in enumerate(zip(labels, indexes)) if label != index)
            raise SchemaError(f"{path}: tree {seen + i}: tree line is 'tree {labels[i].decode()}'")
        roots += (at + nodes).tolist()
        for whole, part in zip(table, columns):
            whole[nodes:nodes + part.size] = part
        nodes += columns[0].size
    return (np.array(roots, dtype=np.intp), *(whole[:nodes] for whole in table))


def _node_table(lines: bytes, width, features, leaves, first):
    """Where each ``tree`` line of whole body lines starts a tree among
    their nodes, its ``<t>`` token, and the nodes' feature (-1 at a leaf),
    threshold and value.

    A fixed number of array and builtin calls, whatever the line count.
    Raises ValueError at a line outside the grammar (or a first line that is
    not a ``tree`` line, when ``first``), a feature outside [0, width) or a
    number that does not parse or is not finite.
    """
    codes = np.frombuffer(lines, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(codes[:-1] == 10) + 1))
    tags = codes[starts]
    counts = _TOKENS[tags]
    tree = tags == _TREE
    tokens = lines.split()
    if not (
        lines.endswith(b"\n") and not lines.translate(None, _LINE_BYTES)
        # one separator after each token: no blank, leading or doubled ones
        and len(tokens) == lines.count(b" ") + starts.size
        and (np.add.reduceat(codes == 32, starts) + 1 == counts).all()
        # so each line starts with its first token, which must be exactly
        # "tree", "l" or "s"
        and (np.take(codes, starts[tree, None] + np.arange(5), mode="clip") == _TREE_HEAD).all()
        and (codes[starts[~tree] + 1] == 32).all()
        and not (first and not tree[0])
    ):
        text = lines.decode(errors="backslashreplace").removesuffix("\n")
        raise ValueError(f"bad node line {text!r}")

    def token_after(at):
        return list(map(tokens.__getitem__, (at + 1).tolist()))

    heads = counts.cumsum() - counts  # each line's first token
    labels = token_after(heads[tree])
    heads = heads[~tree]
    split = tags[~tree] == _SPLIT

    feature = np.full(split.size, -1, dtype=np.int32)
    split_features = list(map(features.__getitem__, token_after(heads[split])))
    if split_features and not (min(split_features) >= 0 and max(split_features) < width):
        raise ValueError(f"split feature outside [0, {width})")
    feature[split] = split_features
    threshold = np.zeros(split.size)
    picked = token_after(heads[split] + 1)
    try:
        threshold[split] = list(map(float, picked))
    except ValueError:  # parse again as text, for the message
        threshold[split] = [float(token.decode()) for token in picked]
    value = np.zeros(split.size)
    value[~split] = list(map(leaves.__getitem__, token_after(heads[~split])))
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise ValueError("threshold or leaf value not finite")
    return np.cumsum(~tree)[tree], labels, feature, threshold, value


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------

def r2_score(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    ss_res = float(((y_true - y_pred) ** 2).sum())
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rho(a, b) -> float:
    """Rank correlation with average ranks for ties."""
    ra = _average_ranks(np.asarray(a, dtype=np.float64))
    rb = _average_ranks(np.asarray(b, dtype=np.float64))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float((ra * ra).sum()) * float((rb * rb).sum()))
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)
