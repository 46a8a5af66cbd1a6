"""The shared CSV reader and writer, and every file type read through them.

Each reader either parses a file or raises a LadderforgeError, and
``main`` answers a bad file with exit code 2 and an ``error:`` line:
bytes that are not UTF-8, a field over the csv module's 128 KiB limit,
and nan or inf in a float column included.
"""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladderforge import bd_metrics, cli, dataset, ladder, plots
from ladderforge.cli import EXIT_DATA, main
from ladderforge.errors import LadderforgeError, SchemaError
from ladderforge.gsm_vif import TENSOR_VALUE_COUNT, feature_column_names
from ladderforge.ioutil import atomic_write_bytes, csv_text, finite_float, read_csv, write_json

FEATURE_COLUMNS = feature_column_names() + list(cli.FEATURE_ID_COLUMNS)


def feature_row(video_id, offset=0.0):
    values = [repr(0.5 + offset + 0.001 * i) for i in range(TENSOR_VALUE_COUNT)]
    return values + [video_id, "64", "48", "8", "3"]


def log_rows(video_id, shift=0.0):
    return [
        [video_id, str(w), str(h), str(crf),
         repr(2000.0 * w * 2.0 ** ((30 - crf) / 6.0)),
         repr(min(100.0, 40.0 + w / 40.0 - 2.0 * (crf - 18) + shift))]
        for w, h in ((1280, 720), (640, 360))
        for crf in range(18, 30)
    ]


LADDER_ROWS = [
    ["500000.0", "640", "360", "24", "480000.0", "61.0"],
    ["1000000.0", "640", "360", "20", "1010000.0", "70.5"],
    ["2000000.0", "1280", "720", "22", "1900000.0", "82.25"],
]
REPORT_ROWS = [
    ["a", "p", "-3.0", "1.0", "40.0", "60.0", "19.0", "21.0", ""],
    ["b", "p", "", "", "", "", "", "", "curves share no quality interval"],
    ["c", "p", "4.5", "-0.5", "45.0", "70.0", "19.5", "21.5", "narrow overlap"],
]

# name: (parse function, columns, good rows, indexes of float columns)
READERS = {
    "features": (cli.parse_features_csv, FEATURE_COLUMNS,
                 [feature_row("a"), feature_row("b", 0.25)], range(TENSOR_VALUE_COUNT)),
    "batch": (cli._parse_batch_listing, cli.BATCH_COLUMNS,
              [["a", "ladder.csv", "anchor.csv"], ["b", "anchor.csv", "ladder.csv"]], ()),
    "encode-log": (dataset.parse_encode_log, dataset.SCHEMA,
                   log_rows("a"), (4, 5)),
    "ladder": (ladder.parse_ladder_csv, ladder.LADDER_COLUMNS,
               LADDER_ROWS, (0, 4, 5)),
    "report": (bd_metrics.parse_report_csv, bd_metrics.REPORT_COLUMNS,
               REPORT_ROWS, range(2, 8)),
}


def csv_bytes(columns, rows, edits=(), drop=(), junk=b""):
    """Rows with (row, column, token) edits, rows dropped, then raw junk bytes.

    Indexes wrap around, and tokens are joined unquoted, so a token holding
    a comma, a quote or a newline changes the field count or the quoting.
    """
    rows = [list(row) for row in rows]
    for r, c, token in edits:
        row = rows[r % len(rows)]
        row[c % len(row)] = token
    dropped = {d % len(rows) for d in drop}
    lines = [",".join(columns)] + [",".join(row) for i, row in enumerate(rows) if i not in dropped]
    return ("\n".join(lines) + "\n").encode("utf-8") + junk


TOKENS = st.one_of(
    st.sampled_from(["", "0", "-1", "17", "51", "100.5", "1e-320", "1e999", "nan", "inf",
                     "-inf", "x", '"', '"a,b"', "a,b", "\n", "\r", "\x00", "é", "1_0"]),
    st.text(max_size=3),
)
EDITS = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 199), TOKENS), max_size=4)
DROPS = st.sets(st.integers(0, 99), max_size=3)
JUNK = st.binary(max_size=4)


def pin_probes(test):
    """The probes as explicit examples: non-UTF-8 bytes, a 200 000-character
    field, and nan or inf in float columns (indexes wrap per file type)."""
    probes = [example(edits=[], drop=set(), junk=b"\xff\xfe"),
              example(edits=[(0, 0, "x" * 200_000)], drop=set(), junk=b""),
              example(edits=[(0, 1, "\x00")], drop=set(), junk=b"")]  # a NUL in a batch path
    for column in [*range(9), TENSOR_VALUE_COUNT - 1]:
        for token in ("nan", "inf"):
            probes.append(example(edits=[(0, column, token)], drop=set(), junk=b""))
    for probe in probes:
        test = probe(test)
    return test


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


# ---------------------------------------------------------------------------
# read_csv and csv_text
# ---------------------------------------------------------------------------

def test_round_trip_with_blank_lines(tmp_path):
    text = csv_text(("name", "n", "x"), [["a", 1, "0.5"], ["b,c", 2, "2.0"]])
    assert text == 'name,n,x\na,1,0.5\n"b,c",2,2.0\n'
    path = tmp_path / "t.csv"
    path.write_text("\n" + text.replace("\n", "\n\n"))
    rows = list(read_csv(path, ("name", "n", "x"), (str, int, finite_float)))
    assert rows == [(4, ["a", 1, 0.5]), (6, ["b,c", 2, 2.0])]


def test_csv_text_cell_rule():
    """Floats, numpy floats included, are written by repr; None is an empty field."""
    row = [np.float32(0.1), np.float64(1e-320), 2.5, None, 3, "x,y"]
    assert csv_text("abcdef", [row]) == 'a,b,c,d,e,f\n0.10000000149011612,1e-320,2.5,,3,"x,y"\n'
    rung = ladder.LadderRung(1e6, 640, 360, 24, np.float64(9.5e5), 61.0)
    assert csv_text(ladder.LADDER_COLUMNS, [rung]) == (
        "rung_bps,width,height,crf,realized_bps,vmaf\n1000000.0,640,360,24,950000.0,61.0\n")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float32("inf")])
def test_csv_text_refuses_what_read_csv_refuses(value):
    """A non-finite float names its header column, whatever the row's type."""
    with pytest.raises(SchemaError, match=r"^b: '-?(inf|nan)' is not a finite number$"):
        csv_text(("a", "b"), [[1.0, value]])
    with pytest.raises(SchemaError, match=r"^vmaf: '-?(inf|nan)' is not a finite number$"):
        csv_text(ladder.LADDER_COLUMNS, [ladder.LadderRung(1e6, 640, 360, 24, 9.5e5, value)])


# each row type with the header it is written under
ROW_TYPES = {
    "encode-record": (dataset.SCHEMA, dataset.EncodeRecord("a", 640, 360, 24, 9.5e5, 61.0)),
    "ladder-rung": (ladder.LADDER_COLUMNS, ladder.LadderRung(1e6, 640, 360, 24, 9.5e5, 61.0)),
    "report-row": (bd_metrics.REPORT_COLUMNS, bd_metrics.ReportRow("a", "t vs a", warnings="w")),
    "bin": (plots.HISTOGRAM_COLUMNS, plots.Bin(0.0, 1.0, 3)),
}


@pytest.mark.parametrize("kind", ROW_TYPES)
def test_a_row_is_paired_with_the_header_by_position(kind):
    """A row's cells fill the header's columns in order, so under a header
    of another length the row is refused, whatever its type."""
    columns, row = ROW_TYPES[kind]
    for other in (columns[:-1], (*columns, "extra"), ("a",)):
        with pytest.raises(ValueError):
            csv_text(other, [row])
    assert csv_text(columns, [row]) == csv_text(columns, [list(row)])


def test_a_bin_edge_is_named_by_its_header_column():
    with pytest.raises(SchemaError, match=r"^bin_lo: 'nan' is not a finite number$"):
        plots.histogram_csv_text([plots.Bin(math.nan, 1.0, 3)])


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_write_json_refuses_non_finite_numbers_naming_the_path(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: Out of range float"):
        write_json(path, {"ok": 1.0, "nested": [value]})
    assert list(tmp_path.iterdir()) == []
    write_json(path, {"a": [1.5, None], "b": "x"})
    assert path.read_text() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": "x"\n}\n'


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_joins_its_chunks_under_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    old = os.umask(umask)
    try:
        atomic_write_bytes(path, b"ab", b"", b"c")
    finally:
        os.umask(old)
    assert path.read_bytes() == b"abc"
    assert oct(path.stat().st_mode & 0o777) == oct(mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_csv_text_quotes_a_carriage_return(tmp_path):
    """csv quotes only the terminator's characters, so a lone "\\r" needs the quotes too."""
    text = csv_text(("name",), [["a\rb"], ["c"]])
    assert text == 'name\n"a\rb"\nc\n'
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert list(read_csv(path, ("name",), (str,))) == [(2, ["a\rb"]), (3, ["c"])]


@pytest.mark.parametrize("data,match", [
    (b"", "empty file"),
    (b"\n\n", "empty file"),
    (b"a,b\n1,2\n", "line 1: header must be name,n"),
    (b"name,n\nx,1,2\n", "line 2: expected 2 fields, got 3"),
    (b"name,n\nx,one\n", "line 2: n: invalid literal"),
    (b"name,n\nx,1\n\xe9,2\n", "line 3: not UTF-8"),
    (b'name,n\nx,"1"2\n', "line 2: ',' expected after '\"'"),
    (b"name,n\nx\ry,1\n", "line 2: new-line character seen in unquoted field"),
    (b"name,n\n" + b"x" * 200_000 + b",1\n", "line 2: field larger than field limit"),
])
def test_reader_errors_name_path_and_line(tmp_path, data, match):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=match) as info:
        list(read_csv(path, ("name", "n"), (str, int)))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name", ["missing.csv", "nul\x00.csv"])
def test_reader_unreadable_file(tmp_path, name):
    with pytest.raises(SchemaError, match="unreadable"):
        list(read_csv(str(tmp_path / name), ("a",), (str,)))


# ---------------------------------------------------------------------------
# every reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", READERS)
def test_good_file_parses_and_blank_lines_are_ignored(tmp_path, name):
    parse, columns, rows, _ = READERS[name]
    path = tmp_path / "good.csv"
    path.write_bytes(csv_bytes(columns, rows))
    parsed = parse(path)
    path.write_bytes(csv_bytes(columns, rows).replace(b"\n", b"\n\n"))
    assert repr(parse(path)) == repr(parsed)  # feature rows hold arrays


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected_in_every_float_column(tmp_path, name, token):
    parse, columns, rows, float_columns = READERS[name]
    path = tmp_path / "bad.csv"
    for column in float_columns:
        path.write_bytes(csv_bytes(columns, rows, [(1, column, token)]))
        expected = f"line 3: {columns[column]}: '{token}' is not a finite number"
        with pytest.raises(SchemaError, match=expected):
            parse(path)


@pytest.mark.parametrize("name", ["features", "batch", "ladder"])
def test_zero_rows_is_an_error(tmp_path, name):
    parse, columns, _, _ = READERS[name]
    path = tmp_path / "empty.csv"
    path.write_bytes(csv_bytes(columns, []))
    with pytest.raises(SchemaError, match="no "):
        parse(path)


@pytest.mark.parametrize("name", ["encode-log", "report"])
def test_zero_rows_is_allowed(tmp_path, name):
    parse, columns, _, _ = READERS[name]
    path = tmp_path / "empty.csv"
    path.write_bytes(csv_bytes(columns, []))
    assert parse(path) == []


# a case's id ends with the rule it breaks: a rung rule, a range or a positive bitrate
@pytest.mark.parametrize("column,token,message", [
    pytest.param(5, "150", "150.0 outside [0, 100]", id="5-150-RangeError"),
    pytest.param(4, "0", "0.0 must be > 0", id="4-0-NonpositiveBitrate"),
    pytest.param(0, "-5", "must be finite and > 0, got -5.0", id="0--5-InvalidRungs"),
    pytest.param(0, "0", "must be finite and > 0, got 0.0", id="0-0-InvalidRungs"),
    # equal to the rung above: not increasing
    pytest.param(0, "500000.0", "strictly increasing", id="0-500000.0-InvalidRungs"),
    pytest.param(0, "400000.0", "strictly increasing", id="0-400000.0-InvalidRungs"),
    pytest.param(1, "0", "0 must be > 0", id="1-0-RangeError"),
    pytest.param(1, "-640", "-640 must be > 0", id="1--640-RangeError"),
    pytest.param(2, "0", "0 must be > 0", id="2-0-RangeError"),
    pytest.param(3, "17", "17 outside [18, 50]", id="3-17-RangeError"),
    pytest.param(3, "51", "51 outside [18, 50]", id="3-51-RangeError"),
])
def test_ladder_point_errors_name_path_line_and_column(tmp_path, capsys, column, token, message):
    path = tmp_path / "ladder.csv"
    path.write_bytes(csv_bytes(ladder.LADDER_COLUMNS, LADDER_ROWS, [(1, column, token)]))
    where = f"{path} line 3: {ladder.LADDER_COLUMNS[column]}: "
    with pytest.raises(SchemaError, match=where + ".*" + re.escape(message)):
        ladder.parse_ladder_csv(path)
    out = str(tmp_path / "report.csv")
    assert main(["compare", "--test", str(path), "--anchor", str(path), "--out", out]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {where}")


@pytest.mark.parametrize("column,token", [
    ("width", "-4"), ("width", "0"), ("height", "0"),
    ("bit_depth", "7"), ("bit_depth", "9"), ("bit_depth", "16"),
    ("frame_count", "0"), ("frame_count", "-3"),
])
def test_feature_id_errors_name_path_line_and_column(workspace, tmp_path, capsys, column, token):
    path = tmp_path / "features.csv"
    edit = (1, FEATURE_COLUMNS.index(column), token)
    path.write_bytes(csv_bytes(FEATURE_COLUMNS, [feature_row("a"), feature_row("b")], [edit]))
    where = f"{path} line 3: {column}: "
    with pytest.raises(SchemaError, match=where + ".* must be "):
        cli.parse_features_csv(path)
    code = main(_argv(workspace, "features", path))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"error: {where}") and "Traceback" not in err


def test_feature_empty_video_id_names_path_line_and_column(workspace, tmp_path, capsys):
    path = tmp_path / "features.csv"
    edit = (1, FEATURE_COLUMNS.index("video_id"), "")
    path.write_bytes(csv_bytes(FEATURE_COLUMNS, [feature_row("a"), feature_row("b")], [edit]))
    where = f"{path} line 3: video_id: "
    with pytest.raises(SchemaError, match=where):
        cli.parse_features_csv(path)
    code = main(_argv(workspace, "features", path))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"error: {where}") and "Traceback" not in err


def test_shared_columns_share_one_converter():
    """A column held by more than one file type is checked by one rule object."""
    rules = {"video_id": dataset.VIDEO_ID, "width": dataset.DIMENSION,
             "height": dataset.DIMENSION, "crf": dataset.CRF, "vmaf": dataset.VMAF,
             "bitrate_bps": dataset.BITRATE, "realized_bps": dataset.BITRATE}
    readers = {"encode-log": (dataset.SCHEMA, dataset._CONVERTERS),
               "features": (FEATURE_COLUMNS, cli._FEATURE_CONVERTERS),
               "ladder": (ladder.LADDER_COLUMNS, ladder._CONVERTERS)}
    holders = {column: [] for column in rules}
    for name, (columns, converters) in readers.items():
        assert len(columns) == len(converters), name
        for column, convert in zip(columns, converters):
            if column in rules:
                assert convert is rules[column], (name, column)
                holders[column].append(name)
    assert all(len(names) >= 2 for column, names in holders.items()
               if column not in ("bitrate_bps", "realized_bps")), holders


def test_report_result_columns_all_or_nothing(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(csv_bytes(bd_metrics.REPORT_COLUMNS, REPORT_ROWS, [(0, 5, "")]))
    with pytest.raises(SchemaError, match="line 2: result columns must be all empty"):
        bd_metrics.parse_report_csv(path)


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=50, deadline=None)
@given(edits=EDITS, drop=DROPS, junk=JUNK)
@pin_probes
def test_fuzzed_file_parses_or_raises_library_error(fuzz_dir, name, edits, drop, junk):
    parse, columns, rows, _ = READERS[name]
    path = fuzz_dir / f"{name}.csv"
    path.write_bytes(csv_bytes(columns, rows, edits, drop, junk))
    try:
        parse(path)
    except LadderforgeError:
        pass


# ---------------------------------------------------------------------------
# round trips: every row type the package writes reads back equal
# ---------------------------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
DIMENSIONS = st.integers(1, 1 << 16)
CRFS = st.integers(dataset.CRF_MIN, dataset.CRF_MAX)
VMAFS = st.floats(0.0, 100.0).map(np.float64)

ENCODE_RECORDS = st.lists(
    st.builds(dataset.EncodeRecord, st.text(min_size=1), DIMENSIONS, DIMENSIONS, CRFS,
              POSITIVE.map(np.float64), VMAFS),
    max_size=6, unique_by=lambda r: (r.video_id, r.width, r.height, r.crf),
)
LADDER_RUNGS = st.lists(POSITIVE, min_size=1, max_size=6, unique=True).flatmap(
    lambda targets: st.tuples(*[
        st.builds(ladder.LadderRung, st.just(np.float64(target)), DIMENSIONS, DIMENSIONS, CRFS,
                  POSITIVE.map(np.float64), VMAFS)
        for target in sorted(targets)
    ])
)
REPORT_ROW_LISTS = st.lists(st.builds(
    lambda video_id, pair, result, warnings: bd_metrics.ReportRow(video_id, pair, *result, warnings),
    st.text(), st.text(), st.one_of(st.just((None,) * 6), st.tuples(*[FLOATS] * 6)), st.text(),
), max_size=6)


@settings(max_examples=60, deadline=None)
@given(records=ENCODE_RECORDS)
def test_encode_log_round_trip(fuzz_dir, records):
    path = fuzz_dir / "round-trip-encodes.csv"
    path.write_text(dataset.encode_log_text(records), encoding="utf-8")
    assert dataset.parse_encode_log(path) == records


@settings(max_examples=60, deadline=None)
@given(rungs=LADDER_RUNGS)
def test_ladder_round_trip(fuzz_dir, rungs):
    path = fuzz_dir / "round-trip-ladder.csv"
    path.write_text(ladder.ladder_csv_text(rungs), encoding="utf-8")
    assert ladder.parse_ladder_csv(path) == rungs


@settings(max_examples=60, deadline=None)
@given(rows=REPORT_ROW_LISTS)
def test_report_round_trip(fuzz_dir, rows):
    path = fuzz_dir / "round-trip-report.csv"
    path.write_text(bd_metrics.report_csv_text(rows), encoding="utf-8")
    assert bd_metrics.parse_report_csv(path) == rows


# ---------------------------------------------------------------------------
# through main: exit codes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Good files of every type plus a small model, for runs of main."""
    root = tmp_path_factory.mktemp("workspace")
    (root / "features.csv").write_bytes(csv_bytes(FEATURE_COLUMNS, [
        feature_row(v, 0.1 * i) for i, v in enumerate("abcd")]))
    (root / "encodes.csv").write_bytes(csv_bytes(dataset.SCHEMA, [
        row for i, v in enumerate("abcd") for row in log_rows(v, 3.0 * i)]))
    (root / "ladder.csv").write_bytes(csv_bytes(ladder.LADDER_COLUMNS, LADDER_ROWS))
    anchor = [row[:5] + [repr(float(row[5]) - 4.0)] for row in LADDER_ROWS]
    (root / "anchor.csv").write_bytes(csv_bytes(ladder.LADDER_COLUMNS, anchor))
    (root / "clip.y4m").write_bytes(b"")
    assert main(["train", "--features", str(root / "features.csv"),
                 "--encode-log", str(root / "encodes.csv"), "--approach", "1",
                 "--n-trees", "2", "--out", str(root / "model.txt")]) == 0
    return root


def _argv(root: Path, target: str, bad: Path) -> list[str]:
    out = str(root / "out")
    good = {name: str(root / name) for name in
            ("features.csv", "encodes.csv", "ladder.csv", "anchor.csv", "model.txt", "clip.y4m")}
    ladder_argv = ["ladder", "--model", good["model.txt"], "--video", "a",
                   "--resolutions", "1280x720,640x360", "--rungs", "0.5,1,2",
                   "--reference-out", out + ".ref", "--out", out]
    return {
        "features": ladder_argv + ["--features", str(bad), "--encode-log", good["encodes.csv"]],
        "encode-log": ladder_argv + ["--features", good["features.csv"], "--encode-log", str(bad)],
        "ladder": ["compare", "--test", str(bad), "--anchor", good["anchor.csv"], "--out", out],
        "batch": ["compare", "--batch", str(bad), "--out", out],
        "report": ["plot", "--report", str(bad), "--out", out + ".svg"],
        "ladders": ["plot", "--ladders", str(bad), good["ladder.csv"], "--out", out + ".svg"],
        "journal": ["encode-sweep", "--input", good["clip.y4m"], "--out", str(bad),
                    "--resolutions", "64x36", "--crf-min", "18", "--crf-max", "18",
                    "--template", "echo {input} {width} {height} {crf} {output} >> "
                    + str(root / ENCODER_CALLS)],
    }[target]


ENCODER_CALLS = "encoder-calls.txt"  # where the sweep target's encoder logs each call

# target of main: the file type whose columns and good rows it is fuzzed with;
# "journal" is the encode log a sweep resumes from, read at the sweep's own --out
TARGETS = {
    "features": "features", "encode-log": "encode-log", "ladder": "ladder",
    "batch": "batch", "report": "report", "ladders": "ladder", "journal": "encode-log",
}


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=30, deadline=None)
@given(edits=EDITS, drop=DROPS, junk=JUNK)
@pin_probes
def test_fuzzed_inputs_to_main_give_an_exit_code(workspace, target, edits, drop, junk):
    _, columns, rows, _ = READERS[TARGETS[target]]
    bad = workspace / f"fuzzed-{target}.csv"
    bad.write_bytes(csv_bytes(columns, rows, edits, drop, junk))
    assert main(_argv(workspace, target, bad)) in (0, 1, 2, 3)


@pytest.mark.parametrize("target,probe", [
    (target, probe) for target in TARGETS
    for probe in ("not-utf8", "huge-field", "nan")
    if not (target == "batch" and probe == "nan")  # a batch listing has no float column
])
def test_probes_exit_2_with_an_error_line(workspace, capsys, target, probe):
    _, columns, rows, float_columns = READERS[TARGETS[target]]
    change = {"not-utf8": {"junk": b"\xff\xfe\n"},
              "huge-field": {"edits": [(0, 0, "x" * 200_000)]},
              "nan": {"edits": [(0, c, "nan") for c in float_columns[:1]]}}[probe]
    bad = workspace / f"probe-{target}.csv"
    bad.write_bytes(csv_bytes(columns, rows, **change))
    (workspace / ENCODER_CALLS).unlink(missing_ok=True)
    code = main(_argv(workspace, target, bad))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (workspace / ENCODER_CALLS).exists()
    bad.unlink()
