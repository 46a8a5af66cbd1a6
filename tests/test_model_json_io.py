"""Model, split-manifest and config files: each load parses or raises a LadderforgeError.

The model fuzz edits tokens of body lines and then recomputes the body
checksum, so it reaches the body parser instead of stopping at the
checksum. ``main`` answers every bad file with exit code 2 and an
``error:`` line, never a traceback.
"""

import hashlib
import json
import os
import re
from itertools import chain
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge import config, dataset, regressor
from ladderforge.cli import EXIT_DATA, EXIT_OK, main
from ladderforge.errors import LadderforgeError, SchemaError
from ladderforge.feature_assembly import column_names
from helpers import table_of
from test_csv_io import FEATURE_COLUMNS, LADDER_ROWS, csv_bytes, feature_row, log_rows

# An approach-1 model as the depth-first grower of earlier versions wrote
# it, and the predictions that grower's model gave for constant query rows.
OLD_MODEL = """\
ladderforge-extra-trees v1
approach 1
columns frame_info_s1,frame_info_s2,frame_info_s3,frame_info_s4,log2_bitrate,width_scaled,height_scaled
n_trees 2
min_samples_leaf 1
k_features 3
seed 5
checksum d328d293b6c06c59c61bb60fb4c6a8c347a375333b0c541bb972ef9f3ec1f723
---
tree 0
s 0 0.3915168545807437
s 6 0.5866869237247271
s 1 0.4214301922373457
l 0.0495
l 0.0797
l 0.1215
s 4 0.24800289408099274
l 0.2188
s 1 0.8872049415344949
l 0.3217
l 0.317
tree 1
s 3 0.597837774358324
s 1 0.29824024269382066
l 0.0495
s 4 0.5239240221283668
l 0.1215
l 0.0797
s 4 0.42530002515944965
l 0.2188
s 1 0.8679504396627884
l 0.3217
l 0.317
"""
OLD_PREDICTIONS = {0.1: 0.0495, 0.5: 0.2216, 0.9: 0.317}

HEAD, BODY = OLD_MODEL.split("---\n")


def model_bytes(edits=(), drop=(), junk=b""):
    """The old model with (line, token, text) edits to its body, lines
    dropped and raw bytes appended, under a checksum of the new body.

    Body line 1 is the first root split and the last line a leaf; indexes
    wrap, and a text holding a space or a newline changes the line's shape.
    """
    lines = BODY.splitlines()
    for i, t, text in edits:
        parts = lines[i % len(lines)].split(" ")
        parts[t % len(parts)] = text
        lines[i % len(lines)] = " ".join(parts)
    dropped = {d % len(lines) for d in drop}
    body = "".join(line + "\n" for k, line in enumerate(lines) if k not in dropped)
    return with_body(body.encode("utf-8") + junk)


def with_body(body: bytes) -> bytes:
    """The old model's header under the checksum of ``body``, then ``body``."""
    head = "".join(
        f"checksum {hashlib.sha256(body).hexdigest()}\n" if line.startswith("checksum ")
        else line + "\n"
        for line in HEAD.splitlines()
    )
    return head.encode("utf-8") + b"---\n" + body


def line_loop_trees(body: str, path, width: int) -> list:
    """The line-at-a-time body reader of earlier versions: each tree's
    (feature, threshold, value) arrays.

    The oracle for the body parser of regressor.load_model: it split each
    line on any whitespace and skipped blank lines, so it accepts every
    body the block parser accepts, and more.
    """
    def lines(text, block=1 << 16):
        start = 0
        while start < len(text):
            end = text.find("\n", start + block) + 1 or len(text)
            yield from text[start:end].splitlines()
            start = end

    trees = []
    feature, threshold, value = [], [], []
    for line in chain(lines(body), ["tree"]):
        parts = line.split()
        try:
            if not parts:
                continue
            if parts[0] == "l" and len(parts) == 2:
                feature.append(-1); threshold.append(0.0); value.append(float(parts[1]))
            elif parts[0] == "s" and len(parts) == 3:
                f = int(parts[1])
                if not 0 <= f < width:
                    raise ValueError(f"split feature outside [0, {width})")
                feature.append(f); threshold.append(float(parts[2])); value.append(0.0)
            elif parts[0] != "tree":
                raise ValueError(f"bad node line {line!r}")
            elif feature:
                thresholds, values = np.array(threshold), np.array(value)
                if not (np.isfinite(thresholds).all() and np.isfinite(values).all()):
                    raise ValueError("threshold or leaf value not finite")
                features = np.array(feature, dtype=np.int32)
                regressor._right_children(features)  # raises unless the nodes are one tree
                trees.append((features, thresholds, values))
                feature, threshold, value = [], [], []
        except ValueError as exc:
            raise SchemaError(f"{path}: tree {len(trees)}: {exc}") from None
    return trees


def assert_same_table(model, trees):
    """The model's node table is the table of trees, array by array, in bytes and dtype."""
    for name, want in zip(("roots", "feature", "threshold", "right", "value"), table_of(trees)):
        got = getattr(model, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


def body_of(path) -> bytes:
    return path.read_bytes().partition(b"\n---\n")[2]


def load_in_blocks(path, block):
    """regressor.load_model reading the file block bytes at a time."""
    with patch.object(regressor, "_READ_BLOCK", block):
        return regressor.load_model(path)


BLOCKS = (1, 9, 64, 1 << 16)  # read-block sizes every block-size test runs at


def splitting_blocks(data: bytes, *marks: bytes) -> tuple:
    """Read-block sizes for a model file's bytes whose first block ends one
    byte into the header/body separator, and into each mark."""
    return tuple(data.index(mark) + 1 for mark in (b"\n---\n", *marks))


MODEL_PROBES = {
    "not-utf8": {"junk": b"\xff\xfe\n"},
    "feature-past-columns": {"edits": [(1, 1, "999")]},
    "feature-at-columns": {"edits": [(1, 1, "7")]},
    "feature-negative": {"edits": [(1, 1, "-5")]},
    "feature-past-int32": {"edits": [(1, 1, "99999999999")]},
    "threshold-nan": {"edits": [(1, 2, "nan")]},
    "leaf-inf": {"edits": [(-1, 1, "inf")]},
}

TOKENS = st.one_of(
    st.sampled_from(["999", "7", "6", "0", "-1", "-5", "99999999999", "nan", "inf", "-inf",
                     "1e999", "0.5", "x", "", "s", "l", "tree", "1 2", "\n", "é"]),
    st.text(max_size=3),
)
MODEL_EDITS = st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 3), TOKENS), max_size=3)
DROPS = st.sets(st.integers(0, 30), max_size=2)
JUNK = st.binary(max_size=3)


def pin_model_probes(test):
    for probe in MODEL_PROBES.values():
        test = example(**{"edits": [], "drop": set(), "junk": b"", **probe})(test)
    return test


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Features, an encode log and two ladders that the old model's layout fits."""
    root = tmp_path_factory.mktemp("boundaries")
    (root / "features.csv").write_bytes(csv_bytes(FEATURE_COLUMNS, [
        feature_row(v, 0.1 * i) for i, v in enumerate("abcd")]))
    (root / "encodes.csv").write_bytes(csv_bytes(dataset.SCHEMA, [
        row for i, v in enumerate("abcd") for row in log_rows(v, 3.0 * i)]))
    (root / "ladder.csv").write_bytes(csv_bytes(("rung_bps", "width", "height", "crf",
                                                 "realized_bps", "vmaf"), LADDER_ROWS))
    return root


def ladder_argv(root, model):
    return ["ladder", "--model", str(model), "--features", str(root / "features.csv"),
            "--encode-log", str(root / "encodes.csv"), "--video", "a",
            "--resolutions", "1280x720,640x360", "--rungs", "0.5,1,2",
            "--reference-out", str(root / "out.ref.csv"), "--out", str(root / "out.csv")]


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_from_earlier_versions_loads_and_predicts(tmp_path):
    path = tmp_path / "old.model"
    path.write_text(OLD_MODEL)
    model = regressor.load_model(path)
    for x, want in OLD_PREDICTIONS.items():
        assert regressor.predict_batch(model, np.full((1, 7), x))[0] == want
    regressor.save_model(model, tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_text() == OLD_MODEL


def test_unedited_model_bytes_are_the_old_model():
    assert model_bytes() == OLD_MODEL.encode()


@pytest.mark.parametrize("probe", MODEL_PROBES)
def test_model_probe_is_corrupt_and_exits_2(workspace, tmp_path, capsys, probe):
    path = tmp_path / "bad.model"
    path.write_bytes(model_bytes(**MODEL_PROBES[probe]))
    with pytest.raises(SchemaError, match=str(path)):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("shape, message", [
    ({"drop": [11]}, "tree 0: tree truncated mid-branch"),  # tree 0's last leaf
    ({"drop": [23]}, "tree 1: tree truncated mid-branch"),
    ({"edits": [(10, 0, "s"), (10, 1, "2 0.5")]}, "tree 0: tree truncated mid-branch"),
    ({"junk": b"l 0.5\n"}, "tree 1: dangling node outside any branch"),
    ({"drop": [12]}, "tree 0: dangling node outside any branch"),  # tree 1 joins tree 0
], ids=["last-leaf-dropped", "last-tree-short", "leaf-made-split", "extra-leaf",
        "trees-joined"])
def test_nodes_that_are_not_whole_trees_exit_2(workspace, tmp_path, capsys, shape, message):
    path = tmp_path / "shape.model"
    path.write_bytes(model_bytes(**shape))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: {message}$"):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("edits", [
    [(1, 1, "x")], [(1, 2, "x")], [(4, 1, "x")], [(16, 1, "1.5")], [(16, 1, "7")],
    [(16, 2, "nan")], [(-1, 1, "-inf")], [(14, 2, "1e999")], [(4, 0, "q")], [(13, 1, "")],
], ids=["feature-text", "threshold-text", "leaf-text", "feature-float", "feature-past-columns",
        "threshold-nan", "leaf-inf", "threshold-overflow", "unknown-tag", "empty-token"])
def test_one_bad_token_gives_the_line_loop_message(tmp_path, edits):
    path = tmp_path / "token.model"
    path.write_bytes(model_bytes(edits))
    with pytest.raises(SchemaError) as want:
        line_loop_trees(body_of(path).decode(), path, 7)
    with pytest.raises(SchemaError) as got:
        regressor.load_model(path)
    assert str(got.value) == str(want.value)


# Lines the line loop of earlier versions split on any whitespace or
# skipped; no version wrote them, and the body grammar now rejects them.
NOT_THE_GRAMMAR = {
    "blank-line": (BODY.replace("tree 0\n", "tree 0\n\n"), 0),
    "crlf": (BODY.replace("\n", "\r\n"), 0),
    "double-space": (BODY.replace("s 6 0.5", "s 6  0.5"), 0),
    "trailing-space": (BODY.replace("s 3 0.597837774358324\n", "s 3 0.597837774358324 \n"), 1),
    "tab": (BODY.replace("s 1 0.298", "s\t1 0.298"), 1),
    "extra-token": (BODY.replace("l 0.317\ntree 1", "l 0.317 0\ntree 1"), 0),
    "lx": (BODY.replace("l 0.2188", "lx 0.2188", 1), 0),
    "tre": (BODY.replace("tree 1\n", "tre 1\n"), 0),
    "leaf-before-first-tree": ("l 0.5\n" + BODY, 0),
    "no-final-newline": (BODY.removesuffix("\n"), 1),
    "empty-tree-line": (BODY.replace("tree 1\n", "tree 1\ntree\n"), 1),
}


@pytest.mark.parametrize("probe", NOT_THE_GRAMMAR)
def test_lines_outside_the_body_grammar_exit_2(workspace, tmp_path, capsys, probe):
    body, tree = NOT_THE_GRAMMAR[probe]
    assert body != BODY
    path = tmp_path / "lines.model"
    path.write_bytes(with_body(body.encode()))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: tree {tree}: bad node line "):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad node line" in err and "Traceback" not in err


def test_a_bad_line_is_named_whatever_the_block_size(tmp_path):
    path = tmp_path / "line.model"
    path.write_bytes(data := with_body(
        BODY.replace("l 0.1215\nl 0.0797", "l 0.1215 \nl 0.0797").encode()))
    for block in (*BLOCKS, *splitting_blocks(data, b"l 0.1215 ")):
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: tree 1: "
                                              r"bad node line 'l 0\.1215 '$"):
            load_in_blocks(path, block)


def test_a_character_is_whole_whatever_the_block_size(tmp_path):
    # a leaf token holding a two-byte character: the file is UTF-8, its line is not the grammar
    path = tmp_path / "character.model"
    path.write_bytes(data := with_body(BODY.replace("l 0.2188", "l 0.2\u00e988").encode()))
    for block in (*BLOCKS, *splitting_blocks(data, "\u00e9".encode())):
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: tree 0: "
                                              "bad node line 'l 0.2\u00e988'$"):
            load_in_blocks(path, block)
    # the same lead byte before a byte that cannot continue it: the body's
    # grammar admits printable ASCII alone, so the line is named as it is
    path.write_bytes(data := with_body(BODY.replace("l 0.2188", "l 0.2\xc388").encode("latin-1")))
    for block in (*BLOCKS, *splitting_blocks(data, b"\xc38")):
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: tree 0: "
                                              r"bad node line 'l 0\.2\\\\xc388'$"):
            load_in_blocks(path, block)
    # in the header it is a file that is not UTF-8
    path.write_bytes(data := with_body(BODY.encode()).replace(b"approach", b"appr\xc3ach"))
    for block in (*BLOCKS, *splitting_blocks(data, b"\xc3a")):
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "
                                              r"not UTF-8 \(invalid continuation byte\)$"):
            load_in_blocks(path, block)


def test_a_wrong_checksum_is_named_before_a_bad_line(tmp_path):
    path = tmp_path / "checksum.model"
    good = with_body(BODY.encode())
    path.write_bytes(good.replace(b"l 0.2188\n", b"l 0.2188 x\n"))
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: body checksum mismatch$"):
        regressor.load_model(path)


# (the body's second tree line, the tree the error names); the checksum
# is recomputed, so the body parser is what rejects them
TREE_LINES = {
    "later-index": ("tree 7", 1),
    "not-a-number": ("tree x", 1),
    "repeated-index": ("tree 0", 1),
    "leading-zero": ("tree 01", 1),
}


@pytest.mark.parametrize("probe", TREE_LINES)
def test_a_tree_line_must_carry_its_index(workspace, tmp_path, capsys, probe):
    line, tree = TREE_LINES[probe]
    path = tmp_path / "index.model"
    path.write_bytes(with_body(BODY.replace("tree 1\n", line + "\n").encode()))
    message = f"{path}: tree {tree}: tree line is '{line}'"
    with pytest.raises(SchemaError) as raised:
        regressor.load_model(path)
    assert str(raised.value) == message
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_misnumbered_tree_is_named_whatever_the_block_size(tmp_path):
    path = tmp_path / "misnumbered.model"
    path.write_bytes(data := with_body(
        (BODY + BODY.replace("tree 0", "tree 2").replace("tree 1", "tree 4")).encode()))
    for block in (*BLOCKS, *splitting_blocks(data, b"tree 4")):
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: tree 3: "
                                              r"tree line is 'tree 4'$"):
            load_in_blocks(path, block)


def test_a_tree_without_nodes_is_truncated(tmp_path):
    path = tmp_path / "empty-tree.model"
    path.write_bytes(with_body(BODY.replace("tree 1\n", "tree 1\ntree 2\n").encode()))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: tree 1: tree truncated"):
        regressor.load_model(path)


FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def whole_trees(draw, width=7, max_splits=20):
    """One pre-order tree: splits draw a feature and a threshold, leaves a value."""
    feature, threshold, value = [], [], []
    open_slots = 1
    while open_slots:
        split = len(feature) < 2 * max_splits and draw(st.booleans())
        feature.append(draw(st.integers(0, width - 1)) if split else -1)
        threshold.append(draw(FLOATS) if split else 0.0)
        value.append(0.0 if split else draw(FLOATS))
        open_slots += 1 if split else -1
    return np.array(feature, dtype=np.int32), np.array(threshold), np.array(value)


@settings(max_examples=60, deadline=None)
@given(trees=st.lists(whole_trees(), min_size=1, max_size=4), block=st.integers(1, 80))
def test_saved_trees_load_to_the_line_loop_arrays(tmp_path_factory, trees, block):
    model = regressor.ExtraTreesModel(1, tuple(column_names(1)), 1, 3, 0, *table_of(trees))
    path = tmp_path_factory.mktemp("model") / "round.model"
    regressor.save_model(model, path)
    want = line_loop_trees(body_of(path).decode(), path, 7)
    assert_same_table(regressor.load_model(path), want)
    assert_same_table(load_in_blocks(path, block), want)
    assert_same_table(model, want)


def test_a_hundred_tree_model_loads_to_the_line_loop_arrays(tmp_path):
    rng = np.random.default_rng(41)
    model = regressor.train(rng.random((300, 7)), rng.random(300), 1, n_trees=100, seed=42)
    path = tmp_path / "hundred.model"
    regressor.save_model(model, path)
    assert len(body_of(path)) > 8 << 16  # many blocks
    want = line_loop_trees(body_of(path).decode(), path, 7)
    data = path.read_bytes()
    for block in (1 << 16, *splitting_blocks(data, b"tree 50\n")):
        assert_same_table(load_in_blocks(path, block), want)
    assert_same_table(model, want)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_model_on_a_pipe_exits_2_naming_it(workspace, capsys):
    # the loader reads a model file twice, which a pipe cannot give
    read, write = os.pipe()
    try:
        os.write(write, OLD_MODEL.encode())
        os.close(write)
        path = f"/dev/fd/{read}"
        assert main(ladder_argv(workspace, path)) == EXIT_DATA
    finally:
        os.close(read)
    assert capsys.readouterr().err == f"error: {path}: not a seekable file\n"


def test_zero_tree_model_exits_2(workspace, tmp_path, capsys):
    # a header and an empty body that agree with each other and the checksum
    path = tmp_path / "empty.model"
    empty = model_bytes(drop=range(len(BODY.splitlines())))
    path.write_bytes(empty.replace(b"\nn_trees 2\n", b"\nn_trees 0\n"))
    assert path.read_bytes().endswith(b"\nn_trees 0\nmin_samples_leaf 1\nk_features 3\nseed 5\n"
                                      + b"checksum " + hashlib.sha256(b"").hexdigest().encode()
                                      + b"\n---\n")
    with pytest.raises(SchemaError, match="n_trees must be >= 1, got 0"):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_columns_of_another_approach_exit_2(workspace, tmp_path, capsys):
    # approaches 5 and 7 both have 12 columns; the checksum covers the body only
    rng = np.random.default_rng(1)
    path = tmp_path / "swapped.model"
    regressor.save_model(regressor.train(rng.random((20, 12)), rng.random(20), 7, n_trees=2), path)
    path.write_text(path.read_text().replace("approach 7\n", "approach 5\n", 1))
    with pytest.raises(SchemaError, match="layout does not match approach 5"):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    assert "layout does not match approach 5" in capsys.readouterr().err


# (text in the old model's header, its replacement, the error after the path)
HEADER_VARIANTS = {
    "unknown-key": ("seed 5\n", "seed 5\ncolour blue\n",
                    "header line 8 is 'colour blue', expected 'checksum "),
    "duplicate-seed": ("seed 5\n", "seed 9\nseed 5\n",
                       "header line 7 is 'seed 9', expected 'seed 5'"),
    "reordered": ("k_features 3\nseed 5\n", "seed 5\nk_features 3\n",
                  "header line 6 is 'seed 5', expected 'k_features 3'"),
    "doubled-space": ("approach 1\n", "approach  1\n",
                      "header line 2 is 'approach  1', expected 'approach 1'"),
    "k-features-0": ("k_features 3\n", "k_features 0\n", r"k_features must be in \[1, 7\], got 0"),
    "k-features-past-columns": ("k_features 3\n", "k_features 8\n",
                                r"k_features must be in \[1, 7\], got 8"),
    "min-leaf-negative": ("min_samples_leaf 1\n", "min_samples_leaf -3\n",
                          "min_samples_leaf must be >= 1, got -3"),
    "seed-negative": ("seed 5\n", "seed -5\n", "seed must be >= 0, got -5"),
    "trailing-space": ("seed 5\n", "seed 5 \n", "header line 7 is 'seed 5 ', expected 'seed 5'"),
}


@pytest.mark.parametrize("variant", list(HEADER_VARIANTS))
def test_header_not_as_saved_exits_2(workspace, tmp_path, capsys, variant):
    old, new, message = HEADER_VARIANTS[variant]
    path = tmp_path / "variant.model"
    path.write_text(OLD_MODEL.replace(old, new, 1))
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: {message}"):
        regressor.load_model(path)
    assert main(ladder_argv(workspace, path)) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@settings(max_examples=50, deadline=None)
@given(edits=MODEL_EDITS, drop=DROPS, junk=JUNK)
@pin_model_probes
def test_fuzzed_model_loads_or_raises_library_error(tmp_path_factory, edits, drop, junk):
    path = tmp_path_factory.mktemp("model") / "fuzzed.model"
    path.write_bytes(model_bytes(edits, drop, junk))
    try:
        model = regressor.load_model(path)
    except LadderforgeError:
        return
    regressor.predict_batch(model, np.full((2, 7), 0.5))
    # the block parser is never more lenient than the line loop before it
    assert_same_table(model, line_loop_trees(body_of(path).decode(), path, 7))


@settings(max_examples=30, deadline=None)
@given(edits=MODEL_EDITS, drop=DROPS, junk=JUNK)
@pin_model_probes
def test_fuzzed_model_through_ladder_gives_an_exit_code(workspace, edits, drop, junk):
    path = workspace / "fuzzed.model"
    path.write_bytes(model_bytes(edits, drop, junk))
    try:
        regressor.load_model(path)
        loads = True
    except LadderforgeError:
        loads = False
    code = main(ladder_argv(workspace, path))
    assert code in (EXIT_OK, EXIT_DATA)
    assert loads or code == EXIT_DATA


# ---------------------------------------------------------------------------
# split manifests and config files
# ---------------------------------------------------------------------------

GOOD_SPLIT = {"format": "ladderforge-split v1", "seed": 3,
              "train": ["a", "b"], "validation": ["c"], "test": ["d"]}
GOOD_CONFIG = {"approach": 1, "n_trees": 2, "rung_bitrates_bps": [5e5, 1e6]}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def json_bytes(good, changes, junk=b""):
    """good with keys replaced (a non-dict replaces the whole payload), then junk.

    NaN and Infinity are written as the literals Python's json module accepts.
    """
    payload = {**good, **changes} if isinstance(changes, dict) else changes
    return json.dumps(payload).encode("utf-8") + junk


def changes_of(good):
    keys = st.sampled_from([*good, "bogus"])
    return st.one_of(st.dictionaries(keys, JSON, max_size=2), JSON)


SPLIT_PROBES = {
    "list": {"changes": []},
    "not-utf8": {"changes": {}, "junk": b"\xff"},
    "seed-text": {"changes": {"seed": "x"}},
    "seed-float": {"changes": {"seed": 1.5}},
    "seed-nan": {"changes": {"seed": float("nan")}},
    "ids-unhashable": {"changes": {"train": [["a"]]}},
    "ids-text": {"changes": {"test": "d"}},
}
CONFIG_PROBES = {
    "list": {"changes": []},
    "not-utf8": {"changes": {}, "junk": b"\xff"},
    "rungs-empty": {"changes": {"rung_bitrates_bps": []}},
    "rungs-descending": {"changes": {"rung_bitrates_bps": [2e6, 1e6]}},
    "rungs-nan": {"changes": {"rung_bitrates_bps": ["nan"]}},
    "sigma-nan": {"changes": {"sigma_n2": "nan"}},
    "sigma-infinity": {"changes": {"sigma_n2": float("inf")}},
    "sigma-past-float": {"changes": {"sigma_n2": 10 ** 400}},
    "fixed-ladder-descending": {"changes": {"fixed_ladder": [
        {"bitrate_bps": 2e6, "width": 640, "height": 360},
        {"bitrate_bps": 1e6, "width": 640, "height": 360}]}},
}


def pin_json_probes(probes):
    def pin(test):
        for probe in probes.values():
            test = example(**{"junk": b"", **probe})(test)
        return test
    return pin


@pytest.mark.parametrize("probe", SPLIT_PROBES)
def test_split_probe_is_schema_error_naming_the_path(tmp_path, probe):
    path = tmp_path / "split.json"
    path.write_bytes(json_bytes(GOOD_SPLIT, **SPLIT_PROBES[probe]))
    with pytest.raises(SchemaError, match=str(path)):
        dataset.load_split(path)


@pytest.mark.parametrize("probe", CONFIG_PROBES)
def test_config_probe_is_library_error_and_exits_2(workspace, tmp_path, capsys, probe):
    path = tmp_path / "config.json"
    path.write_bytes(json_bytes(GOOD_CONFIG, **CONFIG_PROBES[probe]))
    with pytest.raises(LadderforgeError):
        config.load_config(path)
    ladder = str(workspace / "ladder.csv")
    code = main(["compare", "--test", ladder, "--anchor", ladder, "--config", str(path),
                 "--out", str(tmp_path / "report.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_config_names_the_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"approach": "\xff"}')
    with pytest.raises(SchemaError, match=f"unreadable config {path}: .*utf-8"):
        config.load_config(path)


def test_good_split_and_config_load(tmp_path):
    split, conf = tmp_path / "split.json", tmp_path / "config.json"
    split.write_bytes(json_bytes(GOOD_SPLIT, {}))
    conf.write_bytes(json_bytes(GOOD_CONFIG, {}))
    assert dataset.load_split(split) == dataset.SplitManifest(3, ("a", "b"), ("c",), ("d",))
    assert config.load_config(conf).rung_bitrates_bps == (5e5, 1e6)


@settings(max_examples=50, deadline=None)
@given(changes=changes_of(GOOD_SPLIT), junk=JUNK)
@pin_json_probes(SPLIT_PROBES)
def test_fuzzed_split_loads_or_raises_library_error(tmp_path_factory, changes, junk):
    path = tmp_path_factory.mktemp("split") / "split.json"
    path.write_bytes(json_bytes(GOOD_SPLIT, changes, junk))
    try:
        dataset.load_split(path)
    except LadderforgeError:
        pass


@settings(max_examples=30, deadline=None)
@given(changes=changes_of(GOOD_SPLIT), junk=JUNK)
@pin_json_probes(SPLIT_PROBES)
def test_fuzzed_split_through_train_gives_an_exit_code(workspace, changes, junk):
    path = workspace / "fuzzed-split.json"
    path.write_bytes(json_bytes(GOOD_SPLIT, changes, junk))
    code = main(["train", "--features", str(workspace / "features.csv"),
                 "--encode-log", str(workspace / "encodes.csv"), "--split", str(path),
                 "--approach", "1", "--n-trees", "2", "--out", str(workspace / "m.txt")])
    assert code in (EXIT_OK, EXIT_DATA)


@settings(max_examples=50, deadline=None)
@given(changes=changes_of(GOOD_CONFIG), junk=JUNK)
@pin_json_probes(CONFIG_PROBES)
def test_fuzzed_config_loads_or_raises_library_error(tmp_path_factory, changes, junk):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_bytes(json_bytes(GOOD_CONFIG, changes, junk))
    try:
        config.load_config(path)
    except LadderforgeError:
        pass
