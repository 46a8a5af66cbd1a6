"""Command-line surface for the whole pipeline.

Subcommands: extract, train, ladder, compare, plot, encode-sweep.
Exit codes: 0 success, 1 usage error, 2 data error, 3 external tool
failure. Primary outputs are written atomically, and every command
drops a ``<out>.runconfig.json`` sidecar with the resolved settings so
the run can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bd_metrics import ReportRow, RqCurve, aggregate, compare_curves, parse_report_csv, report_csv_text
from .config import RunConfig, apply_overrides, config_json_dict, load_config
from .dataset import (
    EncodeRecord,
    build_training_matrix,
    encode_log_text,
    load_split,
    make_split,
    parse_encode_log,
    save_split,
)
from .errors import (
    ConfigMissing,
    DuplicateKey,
    EmptyInput,
    ExternalToolFailure,
    LadderforgeError,
    NoOverlap,
    SchemaError,
)
from .gsm_vif import (
    TENSOR_VALUE_COUNT,
    VifFeatureTensor,
    feature_column_names,
    tensor_from_values,
    tensor_to_values,
    video_features,
)
from .ioutil import atomic_write_text
from .ladder import (
    Ladder,
    fixed_ladder,
    ladder_csv_text,
    ladder_summary_text,
    parse_ladder_csv,
    predicted_ladder,
    reference_ladder,
)
from .media_io import open_y4m
from .plots import histogram_csv_text, histogram_svg_text, hull_csv_text, hull_svg_text, freedman_diaconis_bins
from .regressor import ExtraTreesConfig, load_model, predict_batch, r2_score, save_model, spearman_rho, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOOL = 3

FEATURE_ID_COLUMNS = ("video_id", "width", "height", "bit_depth", "frame_count")
TEMPLATE_PLACEHOLDERS = ("input", "width", "height", "crf", "output")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureEntry:
    tensor: VifFeatureTensor
    width: int
    height: int
    bit_depth: int
    frame_count: int


def features_csv_text(rows) -> str:
    """Rows of (video_id, header, tensor): data columns first, ids last."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(feature_column_names() + list(FEATURE_ID_COLUMNS))
    for video_id, header, tensor in rows:
        values = [repr(float(v)) for v in tensor_to_values(tensor)]
        writer.writerow(
            values
            + [video_id, header.width, header.height, header.bit_depth, tensor.frame_count]
        )
    return buf.getvalue()


def parse_features_csv(path) -> dict[str, FeatureEntry]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"unreadable features file {path}: {exc}") from None
    rows = list(csv.reader(io.StringIO(text)))
    expected = feature_column_names() + list(FEATURE_ID_COLUMNS)
    if not rows or rows[0] != expected:
        raise SchemaError(f"{path}: feature CSV header does not match the expected layout")
    entries: dict[str, FeatureEntry] = {}
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected):
            raise SchemaError(f"{path} line {line}: expected {len(expected)} fields")
        try:
            values = np.array([float(v) for v in row[:TENSOR_VALUE_COUNT]])
            video_id = row[TENSOR_VALUE_COUNT]
            width, height, bit_depth, frame_count = (
                int(v) for v in row[TENSOR_VALUE_COUNT + 1 :]
            )
        except ValueError as exc:
            raise SchemaError(f"{path} line {line}: {exc}") from None
        if video_id in entries:
            raise DuplicateKey(f"{path} line {line}: repeated video_id {video_id!r}")
        tensor = tensor_from_values(values, frame_count)
        entries[video_id] = FeatureEntry(tensor, width, height, bit_depth, frame_count)
    if not entries:
        raise SchemaError(f"{path}: no feature rows")
    return entries


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _write_sidecar(out_path, command: str, cfg: RunConfig, extra: dict | None = None) -> None:
    payload = {"command": command, "config": config_json_dict(cfg)}
    if extra:
        payload.update(extra)
    atomic_write_text(Path(str(out_path) + ".runconfig.json"), json.dumps(payload, indent=2) + "\n")


def _parse_resolutions_flag(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for token in text.split(","):
        m = re.fullmatch(r"\s*(\d+)x(\d+)\s*", token)
        if not m:
            raise UsageError(f"bad resolution {token!r}, expected WIDTHxHEIGHT")
        out.append((int(m.group(1)), int(m.group(2))))
    return tuple(out)


def _parse_rungs_flag(text: str) -> tuple[float, ...]:
    try:
        rungs = tuple(float(token) * 1e6 for token in text.split(","))
    except ValueError:
        raise UsageError(f"bad rung list {text!r}, expected comma-separated Mbps") from None
    return rungs


def _resolve_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    overrides = {}
    for field in ("sigma_n2", "approach", "seed", "n_trees", "min_samples_leaf",
                  "k_features", "workers", "crf_min", "crf_max"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "resolutions", None):
        overrides["resolutions"] = _parse_resolutions_flag(args.resolutions)
    if getattr(args, "rungs", None):
        overrides["rung_bps"] = _parse_rungs_flag(args.rungs)
    if getattr(args, "template", None):
        overrides["encoder_template"] = args.template
    try:
        return apply_overrides(cfg, **overrides)
    except ValueError as exc:  # rung ordering problems are flag misuse
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(args, cfg: RunConfig) -> int:
    rows = []
    warnings = []
    for path in args.inputs:
        path = Path(path)
        header, frames = open_y4m(path)
        tensor = video_features(frames, cfg.sigma_n2)
        if not tensor.has_motion:
            note = f"{path.name}: single frame, difference features written as zeros"
            warnings.append(note)
            print(f"warning: {note}", file=sys.stderr)
        rows.append((path.stem, header, tensor))
    out = Path(args.out)
    atomic_write_text(out, features_csv_text(rows))
    _write_sidecar(out, "extract", cfg, {"inputs": [str(p) for p in args.inputs],
                                         "warnings": warnings})
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args, cfg: RunConfig) -> int:
    entries = parse_features_csv(args.features)
    records = parse_encode_log(args.encode_log)
    out = Path(args.out)
    if args.split:
        split = load_split(args.split)
    else:
        split = make_split(sorted({r.video_id for r in records}), cfg.seed)
        save_split(split, Path(str(out) + ".split.json"))
    known = set(split.train) | set(split.validation) | set(split.test)
    for record in records:
        if record.video_id not in known:
            raise SchemaError(f"video {record.video_id!r} is not in any split part")
    held_out = set(split.validation) | set(split.test)
    leaked = set(split.train) & held_out
    if leaked:
        raise SchemaError(f"split leaks videos across parts: {sorted(leaked)}")

    tensors = {vid: entry.tensor for vid, entry in entries.items()}
    train_ids = set(split.train)
    train_rows = build_training_matrix(
        [r for r in records if r.video_id in train_ids], tensors, cfg.approach
    )
    model = train(
        train_rows,
        ExtraTreesConfig(
            n_trees=cfg.n_trees,
            min_samples_leaf=cfg.min_samples_leaf,
            k_features=cfg.k_features,
        ),
        seed=cfg.seed,
    )
    save_model(model, out)

    metrics = {
        "approach": cfg.approach,
        "n_train": len(train_rows),
        "n_validation": 0,
        "r2": None,
        "spearman": None,
    }
    validation_ids = set(split.validation)
    val_records = [r for r in records if r.video_id in validation_ids]
    if val_records:
        val_rows = build_training_matrix(val_records, tensors, cfg.approach)
        X = np.array([vec.values for vec, _ in val_rows])
        y = np.array([target for _, target in val_rows])
        preds = predict_batch(model, X)
        metrics.update(
            n_validation=len(val_rows),
            r2=r2_score(y, preds),
            spearman=spearman_rho(y, preds),
        )
    metrics_path = Path(args.metrics) if args.metrics else Path(str(out) + ".metrics.json")
    atomic_write_text(metrics_path, json.dumps(metrics, indent=2) + "\n")
    _write_sidecar(out, "train", cfg, {"split": {
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }})
    return EXIT_OK


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def _video_records(records, video_id: str) -> list[EncodeRecord]:
    rows = [r for r in records if r.video_id == video_id]
    if not rows:
        raise SchemaError(f"encode log has no rows for video {video_id!r}")
    return rows


def cmd_ladder(args, cfg: RunConfig) -> int:
    model = load_model(args.model)
    entries = parse_features_csv(args.features)
    if args.video not in entries:
        raise SchemaError(f"features file has no row for video {args.video!r}")
    records = _video_records(parse_encode_log(args.encode_log), args.video)

    predicted = predicted_ladder(
        model,
        entries[args.video].tensor,
        records,
        rungs=cfg.rung_bps,
        resolutions=cfg.resolutions,
        correct=not args.no_correction,
    )
    out = Path(args.out)
    atomic_write_text(out, ladder_csv_text(predicted))
    summary_path = Path(args.summary) if args.summary else Path(str(out) + ".summary.txt")
    summary = ladder_summary_text(predicted)

    if args.fixed_out:
        fixed = fixed_ladder(cfg.fixed_ladder_table(), records)
        atomic_write_text(Path(args.fixed_out), ladder_csv_text(fixed))
        summary += ladder_summary_text(fixed)
    if args.reference_out:
        reference = reference_ladder(records, cfg.rung_bps, correct=not args.no_correction)
        atomic_write_text(Path(args.reference_out), ladder_csv_text(reference))
        summary += ladder_summary_text(reference)
    atomic_write_text(summary_path, summary)
    _write_sidecar(out, "ladder", cfg, {"video": args.video,
                                        "correction": not args.no_correction})
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _compare_one(video_id: str, pair: str, test_path, anchor_path) -> ReportRow:
    test = RqCurve.from_ladder(parse_ladder_csv(test_path))
    anchor = RqCurve.from_ladder(parse_ladder_csv(anchor_path))
    try:
        return ReportRow(video_id, pair, compare_curves(test, anchor))
    except NoOverlap as exc:
        return ReportRow(video_id, pair, None, str(exc))


def _parse_batch_listing(path) -> list[tuple[str, Path, Path]]:
    base = Path(path).parent
    try:
        rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    except OSError as exc:
        raise SchemaError(f"unreadable batch listing {path}: {exc}") from None
    if not rows or rows[0] != ["video_id", "test", "anchor"]:
        raise SchemaError(f"{path}: batch listing must start with video_id,test,anchor")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise SchemaError(f"{path} line {line}: expected 3 fields")
        out.append((row[0], base / row[1], base / row[2]))
    if not out:
        raise SchemaError(f"{path}: batch listing has no rows")
    return out


def cmd_compare(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    if args.batch:
        listing = _parse_batch_listing(args.batch)
        rows = [
            _compare_one(video_id, args.pair, test, anchor)
            for video_id, test, anchor in listing
        ]
    else:
        if not (args.test and args.anchor):
            raise UsageError("compare needs --test and --anchor (or --batch)")
        rows = [_compare_one(args.video, args.pair, args.test, args.anchor)]
    atomic_write_text(out, report_csv_text(rows))

    results = [row.result for row in rows if row.result is not None]
    skipped = [row for row in rows if row.result is None]
    for row in skipped:
        print(f"warning: {row.video_id}: {row.note}", file=sys.stderr)
    summary: dict = {"pair": args.pair, "n_compared": len(results), "n_skipped": len(skipped)}
    if results:
        stats = aggregate(results)
        summary.update(
            bd_rate_mean=stats.bd_rate_mean,
            bd_rate_std=stats.bd_rate_std,
            bd_quality_mean=stats.bd_quality_mean,
            bd_quality_std=stats.bd_quality_std,
            table_format=stats.formatted(),
        )
    aggregate_path = Path(args.aggregate_out) if args.aggregate_out else Path(str(out) + ".aggregate.json")
    atomic_write_text(aggregate_path, json.dumps(summary, indent=2) + "\n")
    _write_sidecar(out, "compare", cfg, {"pair": args.pair})
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _csv_twin(out: Path) -> Path:
    return out.with_suffix(".csv") if out.suffix else Path(str(out) + ".csv")


def cmd_plot(args, cfg: RunConfig) -> int:
    out = Path(args.out)
    if args.report:
        rows = [row for row in parse_report_csv(args.report) if row.result is not None]
        if not rows:
            raise EmptyInput(f"{args.report}: no comparable rows to plot")
        if args.metric == "bd_rate":
            values = [row.result.bd_rate_percent for row in rows]
            xlabel, title = "BD-rate (percent)", "BD-rate distribution"
        else:
            values = [row.result.bd_quality for row in rows]
            xlabel, title = "BD-quality (points)", "BD-quality distribution"
        atomic_write_text(out, histogram_svg_text(values, title, xlabel))
        atomic_write_text(_csv_twin(out), histogram_csv_text(freedman_diaconis_bins(values)))
    else:
        labels = args.labels.split(",") if args.labels else [Path(p).stem for p in args.ladders]
        if len(labels) != len(args.ladders):
            raise UsageError(f"{len(args.ladders)} ladders but {len(labels)} labels")
        curves = []
        for label, path in zip(labels, args.ladders):
            lad = parse_ladder_csv(path)
            curves.append(
                (label, [(r.point.bitrate_bps, r.point.vmaf) for r in lad.rungs])
            )
        atomic_write_text(out, hull_svg_text(curves, args.title))
        atomic_write_text(_csv_twin(out), hull_csv_text(curves))
    _write_sidecar(out, "plot", cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# encode-sweep
# ---------------------------------------------------------------------------

_BITRATE_RE = re.compile(r"bitrate_bps=([0-9.eE+\-]+)")
_VMAF_RE = re.compile(r"vmaf=([0-9.eE+\-]+)")


def _check_template(template: str) -> None:
    for name in TEMPLATE_PLACEHOLDERS:
        if "{" + name + "}" not in template:
            raise ConfigMissing(f"encoder template missing {{{name}}} placeholder")
    try:
        template.format(input="i", width=2, height=2, crf=18, output="o")
    except (KeyError, IndexError, ValueError) as exc:
        raise ConfigMissing(f"encoder template is not formattable: {exc}") from None


def _journal_path(out: Path) -> Path:
    return Path(str(out) + ".journal.csv")


def _read_journal(path: Path) -> dict[tuple[int, int, int], EncodeRecord]:
    """Cells an earlier run finished, validated like an encode log.

    Every journal line is written with its newline, so a last line without
    one is an interrupted write: it is cut from the file and its cell runs
    again.
    """
    if not path.exists():
        return {}
    text = path.read_text()
    complete = text[: text.rfind("\n") + 1]
    if not complete:
        path.unlink()
        return {}
    if complete != text:
        atomic_write_text(path, complete)
    return {(r.width, r.height, r.crf): r for r in parse_encode_log(path)}


def _run_cell(template: str, input_path: Path, video_id: str, w: int, h: int,
              crf: int, work_dir: Path) -> EncodeRecord:
    output = work_dir / f"{video_id}_{w}x{h}_crf{crf}.out"
    command = template.format(input=str(input_path), width=w, height=h,
                              crf=crf, output=str(output))
    proc = subprocess.run(command, shell=True, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ExternalToolFailure(
            f"{w}x{h} crf {crf}: encoder exited {proc.returncode}", proc.stderr
        )
    bit_m = _BITRATE_RE.search(proc.stdout)
    vmaf_m = _VMAF_RE.search(proc.stdout)
    if not bit_m or not vmaf_m:
        raise ExternalToolFailure(
            f"{w}x{h} crf {crf}: stdout did not report bitrate_bps= and vmaf=",
            proc.stdout[-2000:],
        )
    return EncodeRecord(video_id, w, h, crf, float(bit_m.group(1)), float(vmaf_m.group(1)))


def cmd_encode_sweep(args, cfg: RunConfig) -> int:
    template = cfg.encoder_template
    if not template:
        raise ConfigMissing("no encoder template configured (--template or config file)")
    _check_template(template)
    input_path = Path(args.input)
    if not input_path.exists():
        raise SchemaError(f"input not found: {input_path}")
    video_id = input_path.stem
    out = Path(args.out)
    work_dir = Path(args.work_dir) if args.work_dir else Path(str(out) + ".work")
    work_dir.mkdir(parents=True, exist_ok=True)

    journal = _journal_path(out)
    done = _read_journal(journal)
    grid = [
        (w, h, crf)
        for (w, h) in cfg.resolutions
        for crf in range(cfg.crf_min, cfg.crf_max + 1)
    ]
    pending = [cell for cell in grid if cell not in done]

    journal_lock = threading.Lock()
    failures: list[str] = []

    def handle(cell):
        w, h, crf = cell
        try:
            record = _run_cell(template, input_path, video_id, w, h, crf, work_dir)
        except ExternalToolFailure as exc:
            with journal_lock:
                failures.append(f"{exc}\nstderr: {exc.stderr}".rstrip())
            return
        line = ",".join(
            [record.video_id, str(record.width), str(record.height),
             str(record.crf), repr(record.bitrate_bps), repr(record.vmaf)]
        )
        with journal_lock:
            new_file = not journal.exists()
            with open(journal, "a") as fh:
                if new_file:
                    fh.write("video_id,width,height,crf,bitrate_bps,vmaf\n")
                fh.write(line + "\n")
            done[cell] = record

    if pending:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(handle, pending))

    records = sorted(
        done.values(), key=lambda r: (-(r.width * r.height), r.width, r.crf)
    )
    if records:
        atomic_write_text(out, encode_log_text(records))
    failures_path = Path(str(out) + ".failures.txt")
    if failures:
        atomic_write_text(failures_path, "\n\n".join(sorted(failures)) + "\n")
        print(f"error: {len(failures)} cell(s) failed, see {failures_path}", file=sys.stderr)
    elif failures_path.exists():
        failures_path.unlink()
    _write_sidecar(out, "encode-sweep", cfg, {"input": str(input_path),
                                              "completed": len(done),
                                              "failed": len(failures)})
    return EXIT_TOOL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ladderforge",
                     description="Per-title bitrate ladders from VIF features")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config path (default: $LADDERFORGE_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", parents=[common],
                       help="compute feature rows from uncompressed Y4M videos")
    p.add_argument("inputs", nargs="+", help="Y4M files, one feature row each")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--sigma-n2", type=float, dest="sigma_n2",
                   help="noise variance of the information measure")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common], help="fit the quality regressor")
    p.add_argument("--features", required=True)
    p.add_argument("--encode-log", required=True)
    p.add_argument("--approach", type=int, help="feature set 1..9")
    p.add_argument("--split", help="split manifest JSON; derived from the log when absent")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--metrics", help="metrics JSON path (default <out>.metrics.json)")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-trees", type=int, dest="n_trees")
    p.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
    p.add_argument("--k-features", type=int, dest="k_features")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ladder", parents=[common], help="construct bitrate ladders")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--video", required=True, help="video id (feature row) to ladder")
    p.add_argument("--encode-log", required=True)
    p.add_argument("--out", required=True, help="predicted ladder CSV")
    p.add_argument("--rungs", help="comma-separated rung targets in Mbps")
    p.add_argument("--resolutions", help="comma-separated WxH candidates")
    p.add_argument("--no-correction", action="store_true",
                   help="emit the raw argmax ladder without monotonic correction")
    p.add_argument("--fixed-out", help="also realize the configured fixed ladder")
    p.add_argument("--reference-out", help="also build the exhaustive reference ladder")
    p.add_argument("--summary", help="summary text path (default <out>.summary.txt)")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("compare", parents=[common],
                       help="BD metrics between two realized ladders")
    p.add_argument("--test", help="test ladder CSV")
    p.add_argument("--anchor", help="anchor ladder CSV")
    p.add_argument("--video", default="video", help="video id for the report row")
    p.add_argument("--batch", help="CSV listing video_id,test,anchor for corpus mode")
    p.add_argument("--pair", default="test-vs-anchor", help="comparison label")
    p.add_argument("--out", required=True, help="BD report CSV")
    p.add_argument("--aggregate-out", dest="aggregate_out",
                   help="aggregate JSON path (default <out>.aggregate.json)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", parents=[common], help="emit SVG plots with CSV twins")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--report", help="BD report CSV to histogram")
    group.add_argument("--ladders", nargs="+", help="ladder CSVs to overlay")
    p.add_argument("--metric", choices=("bd_rate", "bd_vmaf"), default="bd_rate")
    p.add_argument("--labels", help="comma-separated curve labels")
    p.add_argument("--title", default="rate-quality hulls")
    p.add_argument("--out", required=True, help="SVG path (CSV twin written beside it)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("encode-sweep", parents=[common],
                       help="drive an external encoder over the resolution x CRF grid")
    p.add_argument("--input", required=True, help="source Y4M")
    p.add_argument("--out", required=True, help="encode log CSV")
    p.add_argument("--template",
                   help="shell command with {input} {width} {height} {crf} {output}")
    p.add_argument("--work-dir", dest="work_dir", help="directory for encoded outputs")
    p.add_argument("--workers", type=int)
    p.add_argument("--resolutions", help="comma-separated WxH grid")
    p.add_argument("--crf-min", type=int, dest="crf_min")
    p.add_argument("--crf-max", type=int, dest="crf_max")
    p.set_defaults(func=cmd_encode_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExternalToolFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.stderr:
            print(exc.stderr, file=sys.stderr)
        return EXIT_TOOL
    except (LadderforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
