"""Command-line surface for the whole pipeline.

Subcommands: extract, train, ladder, compare, plot, encode-sweep.
Exit codes: 0 success, 1 usage error, 2 data error, 3 external tool
failure. Every output is written atomically. Each ``cmd_*`` writes its
``--out`` file and the files beside it, each at ``--out`` plus a fixed
suffix, and returns its exit code with its sidecar extras. ``main`` then
prints the extras' warnings and writes the ``<out>.runconfig.json``
sidecar: the command, the package version, the resolved settings, the
warnings and the extras, so the run can be reproduced. Before anything is
read or written, ``main`` refuses a run in which a file it writes is a
file it reads or another file it writes, as a usage error naming both;
encode-sweep's ``--out``, the log it resumes from, is the one file both.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, ladder
from .bd_metrics import ReportRow, RqCurve, aggregate, compare_curves, parse_report_csv, report_csv_text
from .config import RunConfig, apply_overrides, config_json_dict, config_path, load_config
from .dataset import (
    BITRATE,
    DIMENSION,
    VIDEO_ID,
    VMAF,
    EncodeRecord,
    build_training_matrix,
    checked,
    encode_log_text,
    load_split,
    make_split,
    parse_encode_log,
    save_split,
)
from .errors import DegenerateCurve, ExternalToolFailure, LadderforgeError, SchemaError, located
from .gsm_vif import TENSOR_VALUE_COUNT, VifFeatureTensor, feature_column_names, video_features
from .ioutil import atomic_write_text, csv_text, finite_float, read_csv, write_json
from .ladder import (
    fixed_ladder,
    ladder_csv_text,
    ladder_from_grid,
    ladder_summary_text,
    parse_ladder_csv,
    reference_ladder,
    validate_rungs,
)
from .media_io import open_y4m
from .plots import histogram_csv_text, histogram_svg_text, hull_csv_text, hull_svg_text, freedman_diaconis_bins
from .regressor import load_model, predict_batch, r2_score, save_model, spearman_rho, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOOL = 3

FEATURE_ID_COLUMNS = ("video_id", "width", "height", "bit_depth", "frame_count")
BATCH_COLUMNS = ("video_id", "test", "anchor")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

def features_csv_text(rows) -> str:
    """Rows of (video_id, header, tensor): data columns first, ids last."""
    return csv_text(feature_column_names() + list(FEATURE_ID_COLUMNS), (
        [*tensor.values, video_id, header.width, header.height, header.bit_depth, tensor.frame_count]
        for video_id, header, tensor in rows
    ))


_FEATURE_CONVERTERS = (finite_float,) * TENSOR_VALUE_COUNT + (
    VIDEO_ID,
    DIMENSION,                                                # width
    DIMENSION,                                                # height
    checked(int, lambda v: v in (8, 10), "must be 8 or 10"),  # bit_depth
    checked(int, lambda v: v >= 1, "must be >= 1"),           # frame_count
)


def parse_features_csv(path) -> dict[str, VifFeatureTensor]:
    columns = feature_column_names() + list(FEATURE_ID_COLUMNS)
    tensors: dict[str, VifFeatureTensor] = {}
    for line, fields in read_csv(path, columns, _FEATURE_CONVERTERS):
        video_id, frame_count = fields[TENSOR_VALUE_COUNT], fields[-1]
        if video_id in tensors:
            raise SchemaError(f"{path} line {line}: repeated video_id {video_id!r}")
        tensors[video_id] = VifFeatureTensor(np.array(fields[:TENSOR_VALUE_COUNT]), frame_count)
    if not tensors:
        raise SchemaError(f"{path}: no feature rows")
    return tensors


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

# The files a command writes beside its --out, each at --out plus a suffix.
# Each parser lists its own with the flag that, when given, names that file
# in its place, and _refuse_shared_paths reads the same list.
_SPLIT, _METRICS, _SUMMARY, _AGGREGATE, _WORK, _FAILURES = (
    ".split.json", ".metrics.json", ".summary.txt", ".aggregate.json", ".work", ".failures.txt")

# every flag that names a file a command reads, then every one naming a file it writes
_INPUTS = ("inputs", "--model", "--features", "--encode-log", "--split", "--test", "--anchor",
           "--batch", "--report", "--ladders", "--input")
_OUTPUTS = ("--out", "--fixed-out", "--reference-out", "--work-dir")


def _beside(out, suffix: str) -> Path:
    """Where a command keeps a file that belongs to its --out file."""
    return Path(str(out) + suffix)


def _refuse_shared_paths(args, runconfig: str) -> None:
    """A file a run writes may be neither a file it reads nor another it writes.

    Paths are compared once resolved. encode-sweep's --out is the one file
    that a run both reads and writes: the log a sweep resumes from.
    """
    files = [("the config file", config_path(args.config), False)]
    for flag in _INPUTS + _OUTPUTS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        for one in value if isinstance(value, list) else [value]:
            files.append((flag, one, flag in _OUTPUTS))
    files += [(f"<out>{suffix}", _beside(args.out, suffix), True)
              for suffix, flag in args.beside.items()
              if flag is None or getattr(args, flag) is None]
    if args.command == "plot":
        files.append(("the CSV twin of --out", _csv_twin(Path(args.out)), True))
    files.append((f"<out>{runconfig}", _beside(args.out, runconfig), True))
    labels: dict[Path, str] = {}
    for label, value, written in files:
        if value is None:
            continue
        try:
            path = Path(value).resolve()
        except (ValueError, RuntimeError):
            continue  # a NUL byte or a symlink loop: the file's reader or writer reports it
        if written and path in labels:
            raise UsageError(f"{labels[path]} and {label} name the same file {value}")
        labels.setdefault(path, label)


def _resolutions_flag(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for token in text.split(","):
        m = re.fullmatch(r"\s*(\d+)x(\d+)\s*", token)
        if not m:
            raise argparse.ArgumentTypeError(f"bad resolution {token!r}, expected WIDTHxHEIGHT")
        out.append((int(m.group(1)), int(m.group(2))))
    return tuple(out)


def _rungs_flag(text: str) -> tuple[float, ...]:
    try:
        return validate_rungs(float(token) * 1e6 for token in text.split(","))
    except (ValueError, SchemaError) as exc:
        raise argparse.ArgumentTypeError(f"bad rung list {text!r} in Mbps: {exc}") from None


def _resolve_config(args) -> RunConfig:
    """The config file overlaid with every flag whose dest is a RunConfig field."""
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return apply_overrides(load_config(args.config), **flags)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _video_row(path: Path, noise_var: float, overlap: bool):
    """(video id, header, tensor) of one Y4M file; module-level, so a pool can send it."""
    with located(path), open_y4m(path) as (header, frames):
        return path.stem, header, video_features(frames, noise_var, overlap)


def cmd_extract(args, cfg: RunConfig) -> tuple[int, dict]:
    by_id: dict[str, Path] = {}
    for path in map(Path, args.inputs):
        if path.stem in by_id:
            raise SchemaError(f"{by_id[path.stem]} and {path} share the video id {path.stem!r}")
        by_id[path.stem] = path
    paths = list(by_id.values())
    # videos run in parallel processes, not threads: threads share the
    # interpreter lock over many small arrays, and their heaps add up in one
    # RSS. On 2 cores a thread pool here read +33% wall, +16% CPU and +26%
    # peak RSS on perfbench's extract-360p (worse in 4 of 4 pairs). map
    # keeps input order, so the first error raised is the first bad input's.
    # A process fits its difference planes on a second thread when the CPUs
    # leave one free for each process.
    cpus = min(cfg.workers, _usable_cpus())
    processes = min(cpus, len(paths))
    fit_args = (repeat(cfg.sigma_n2), repeat(2 * processes <= cpus))
    if processes == 1:
        rows = list(map(_video_row, paths, *fit_args))
    else:
        # imported only here: multiprocessing adds about 10 ms and 0.8 MiB
        # to the start of every command
        from concurrent.futures import process

        pool = process.ProcessPoolExecutor(processes)
        try:
            rows = list(pool.map(_video_row, paths, *fit_args))
        except process.BrokenProcessPool as exc:
            raise LadderforgeError(f"an extract worker process died: {exc}") from None
        finally:
            pool.shutdown(cancel_futures=True)
    atomic_write_text(Path(args.out), features_csv_text(rows))
    return EXIT_OK, {
        "inputs": args.inputs,
        "warnings": [f"{path.name}: single frame, difference features written as zeros"
                     for path, (_, _, tensor) in zip(paths, rows) if not tensor.has_motion],
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args, cfg: RunConfig) -> tuple[int, dict]:
    tensors = parse_features_csv(args.features)
    records = parse_encode_log(args.encode_log)
    out = Path(args.out)
    if args.split:
        split = load_split(args.split)
    else:
        with located(args.encode_log):
            split = make_split(sorted({r.video_id for r in records}), cfg.seed)
        save_split(split, _beside(out, _SPLIT))
    known = set(split.train) | set(split.validation) | set(split.test)
    for record in records:
        if record.video_id not in known:
            raise SchemaError(f"{args.split}: video {record.video_id!r} is not in any split part")
    with located(args.features):
        (X, y), (X_val, y_val) = [
            build_training_matrix([r for r in records if r.video_id in ids], tensors, cfg.approach)
            for ids in (set(split.train), set(split.validation))
        ]
    # a split without training rows is the manifest's fault, or the log's when derived from it
    with located(args.split or args.encode_log):
        model = train(X, y, cfg.approach, n_trees=cfg.n_trees, min_samples_leaf=cfg.min_samples_leaf,
                      k_features=cfg.k_features, seed=cfg.seed)
    save_model(model, out)

    metrics = {
        "approach": cfg.approach,
        "n_train": len(y),
        "n_validation": 0,
        "r2": None,
        "spearman": None,
    }
    if len(y_val):
        preds = predict_batch(model, X_val)
        metrics.update(
            n_validation=len(y_val),
            r2=r2_score(y_val, preds),
            spearman=spearman_rho(y_val, preds),
        )
    write_json(_beside(out, _METRICS), metrics)
    return EXIT_OK, {"split": {
        "train": list(split.train),
        "validation": list(split.validation),
        "test": list(split.test),
    }}


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def cmd_ladder(args, cfg: RunConfig) -> tuple[int, dict]:
    model = load_model(args.model)
    tensors = parse_features_csv(args.features)
    if args.video not in tensors:
        raise SchemaError(f"{args.features}: no row for video {args.video!r}")
    records = [r for r in parse_encode_log(args.encode_log) if r.video_id == args.video]
    if not records:
        raise SchemaError(f"{args.encode_log}: no rows for video {args.video!r}")
    # called through its module, where perfbench/layers.py wraps it
    with located(f"{args.features}: video {args.video!r}"):
        grid = ladder.predict_quality_grid(model, tensors[args.video], cfg.resolutions,
                                           cfg.rung_bitrates_bps)

    # every ladder is built before any is written; what can still fail is the log
    correct = not args.no_correction
    with located(f"{args.encode_log}: video {args.video!r}"):
        ladders = [(args.out, "predicted", ladder_from_grid(
            grid, cfg.resolutions, cfg.rung_bitrates_bps, records, correct))]
        if args.fixed_out:
            ladders.append((args.fixed_out, "fixed", fixed_ladder(cfg.fixed_ladder, records)))
        if args.reference_out:
            ladders.append((args.reference_out, "reference",
                            reference_ladder(records, cfg.rung_bitrates_bps, correct=correct)))
    for path, _, rungs in ladders:
        atomic_write_text(Path(path), ladder_csv_text(rungs))
    atomic_write_text(_beside(args.out, _SUMMARY),
                      "".join(ladder_summary_text(name, rungs) for _, name, rungs in ladders))
    return EXIT_OK, {"video": args.video, "correction": correct}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _compare_one(video_id: str, pair: str, test_path, anchor_path) -> ReportRow:
    """A report row; curves that cannot be compared give a warning row instead."""
    test, anchor = parse_ladder_csv(test_path), parse_ladder_csv(anchor_path)
    try:
        return compare_curves(RqCurve.from_ladder(test), RqCurve.from_ladder(anchor), video_id, pair)
    except DegenerateCurve as exc:
        return ReportRow(video_id, pair, warnings=str(exc))


def _parse_batch_listing(path) -> list[tuple[str, Path, Path]]:
    base = Path(path).parent
    # video_id is a label only; an empty path would name the listing's directory
    rows = read_csv(path, BATCH_COLUMNS, (str, VIDEO_ID, VIDEO_ID))
    out = [(video_id, base / test, base / anchor) for _, (video_id, test, anchor) in rows]
    if not out:
        raise SchemaError(f"{path}: batch listing has no rows")
    return out


def cmd_compare(args, cfg: RunConfig) -> tuple[int, dict]:
    out = Path(args.out)
    if args.batch:
        if args.test or args.anchor:
            raise UsageError("compare takes --batch or --test and --anchor, not both")
        if args.video is not None:
            raise UsageError("--video does not apply to compare --batch")
        listing = _parse_batch_listing(args.batch)
        rows = [
            _compare_one(video_id, args.pair, test, anchor)
            for video_id, test, anchor in listing
        ]
    else:
        if not (args.test and args.anchor):
            raise UsageError("compare needs --test and --anchor (or --batch)")
        video_id = "video" if args.video is None else args.video
        rows = [_compare_one(video_id, args.pair, args.test, args.anchor)]
    atomic_write_text(out, report_csv_text(rows))

    results = [row for row in rows if row.bd_rate_percent is not None]
    skipped = [f"{row.video_id}: {row.warnings}" for row in rows if row.bd_rate_percent is None]
    summary: dict = {"pair": args.pair, "n_compared": len(results), "n_skipped": len(skipped)}
    if results:
        summary.update(aggregate(results))
    write_json(_beside(out, _AGGREGATE), summary)
    return EXIT_OK, {"pair": args.pair, "warnings": skipped}


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _csv_twin(out: Path) -> Path:
    return out.with_suffix(".csv") if out.suffix else Path(str(out) + ".csv")


def cmd_plot(args, cfg: RunConfig) -> tuple[int, dict]:
    out = Path(args.out)
    if args.report:
        for flag, value in (("--labels", args.labels), ("--title", args.title)):
            if value is not None:
                raise UsageError(f"{flag} does not apply to plot --report")
        rows = [row for row in parse_report_csv(args.report) if row.bd_rate_percent is not None]
        if not rows:
            raise SchemaError(f"{args.report}: no comparable rows to plot")
        if args.metric in (None, "bd_rate"):
            values = [row.bd_rate_percent for row in rows]
            xlabel, title = "BD-rate (percent)", "BD-rate distribution"
        else:
            values = [row.bd_vmaf for row in rows]
            xlabel, title = "BD-quality (points)", "BD-quality distribution"
        bins = freedman_diaconis_bins(values)
        atomic_write_text(out, histogram_svg_text(bins, title, xlabel))
        atomic_write_text(_csv_twin(out), histogram_csv_text(bins))
    else:
        if args.metric is not None:
            raise UsageError("--metric does not apply to plot --ladders")
        labels = args.labels.split(",") if args.labels else [Path(p).stem for p in args.ladders]
        if len(labels) != len(args.ladders):
            raise UsageError(f"{len(args.ladders)} ladders but {len(labels)} labels")
        curves = [
            (label, [(r.realized_bps, r.vmaf) for r in parse_ladder_csv(path)])
            for label, path in zip(labels, args.ladders)
        ]
        title = "rate-quality hulls" if args.title is None else args.title
        atomic_write_text(out, hull_svg_text(curves, title))
        atomic_write_text(_csv_twin(out), hull_csv_text(curves))
    return EXIT_OK, {}


# ---------------------------------------------------------------------------
# encode-sweep
# ---------------------------------------------------------------------------

_BITRATE_RE = re.compile(r"bitrate_bps=([0-9.eE+\-]+)")
_VMAF_RE = re.compile(r"vmaf=([0-9.eE+\-]+)")


def _run_cell(template: str, input_path: Path, video_id: str, w: int, h: int,
              crf: int, work_dir: Path) -> EncodeRecord:
    cell = f"{w}x{h} crf {crf}"
    output = work_dir / f"{video_id}_{w}x{h}_crf{crf}.out"
    command = template.format(input=shlex.quote(str(input_path)), width=w, height=h,
                              crf=crf, output=shlex.quote(str(output)))
    proc = subprocess.run(command, shell=True, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ExternalToolFailure(f"{cell}: encoder exited {proc.returncode}", proc.stderr)
    bit_m = _BITRATE_RE.search(proc.stdout)
    vmaf_m = _VMAF_RE.search(proc.stdout)
    if not bit_m or not vmaf_m:
        raise ExternalToolFailure(
            f"{cell}: stdout did not report bitrate_bps= and vmaf=", proc.stdout[-2000:]
        )
    try:
        bitrate, vmaf = BITRATE(bit_m.group(1)), VMAF(vmaf_m.group(1))
    except (ValueError, SchemaError) as exc:
        raise ExternalToolFailure(f"{cell}: encoder output: {exc}", proc.stdout[-2000:]) from None
    return EncodeRecord(video_id, w, h, crf, bitrate, vmaf)


def cmd_encode_sweep(args, cfg: RunConfig) -> tuple[int, dict]:
    template = cfg.encoder_template
    if template is None:
        raise SchemaError("no encoder template configured (--template or config file)")
    input_path = Path(args.input)
    if not input_path.exists():
        raise SchemaError(f"input not found: {input_path}")
    video_id = input_path.stem
    out = Path(args.out)
    # the log is the sweep's record: a resume skips the cells it holds
    done = {}
    if out.exists():
        for r in parse_encode_log(out):
            if r.video_id != video_id:
                raise SchemaError(f"{out}: row for video {r.video_id!r}, not {video_id!r}")
            done[(r.width, r.height, r.crf)] = r
    work_dir = Path(args.work_dir) if args.work_dir else _beside(out, _WORK)
    work_dir.mkdir(parents=True, exist_ok=True)

    grid = [
        (w, h, crf)
        for (w, h) in cfg.resolutions
        for crf in range(cfg.crf_min, cfg.crf_max + 1)
    ]
    pending = [cell for cell in grid if cell not in done]

    def attempt(cell):
        try:
            return _run_cell(template, input_path, video_id, *cell, work_dir)
        except ExternalToolFailure as exc:
            return exc

    # cells run in parallel but are logged here, in grid order, so a kill
    # loses only cells not yet logged; the log is rewritten whole each time
    failures: list[str] = []
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for cell, outcome in zip(pending, pool.map(attempt, pending)):
            if isinstance(outcome, ExternalToolFailure):
                failures.append(f"{outcome}\nstderr: {outcome.stderr}".rstrip())
                continue
            done[cell] = outcome
            atomic_write_text(out, encode_log_text(sorted(
                done.values(), key=lambda r: (-(r.width * r.height), r.width, r.crf))))

    failures_path = _beside(out, _FAILURES)
    if failures:
        atomic_write_text(failures_path, "\n\n".join(sorted(failures)) + "\n")
        print(f"error: {len(failures)} cell(s) failed, see {failures_path}", file=sys.stderr)
    elif failures_path.exists():
        failures_path.unlink()
    return (EXIT_TOOL if failures else EXIT_OK), {"input": str(input_path),
                                                  "completed": len(done), "failed": len(failures)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="ladderforge",
                     description="Per-title bitrate ladders from VIF features")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = _Parser(add_help=False)
    common.set_defaults(beside={})
    common.add_argument("--config", help="JSON config path (default: $LADDERFORGE_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", parents=[common],
                       help="compute feature rows from uncompressed Y4M videos")
    p.add_argument("inputs", nargs="+", help="Y4M files, one feature row each")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--sigma-n2", type=float, dest="sigma_n2",
                   help="noise variance of the information measure")
    p.add_argument("--workers", type=int,
                   help="processes, at most one per input and per usable CPU")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common], help="fit the quality regressor")
    p.add_argument("--features", required=True)
    p.add_argument("--encode-log", required=True)
    p.add_argument("--approach", type=int, help="feature set 1..9")
    p.add_argument("--split", help="split manifest JSON; derived from the log when absent")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-trees", type=int, dest="n_trees")
    p.add_argument("--min-samples-leaf", type=int, dest="min_samples_leaf")
    p.add_argument("--k-features", type=int, dest="k_features")
    p.set_defaults(func=cmd_train, beside={_METRICS: None, _SPLIT: "split"})

    p = sub.add_parser("ladder", parents=[common], help="construct bitrate ladders")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--video", required=True, help="video id (feature row) to ladder")
    p.add_argument("--encode-log", required=True)
    p.add_argument("--out", required=True, help="predicted ladder CSV")
    p.add_argument("--rungs", type=_rungs_flag, dest="rung_bitrates_bps", metavar="RUNGS",
                   help="comma-separated rung targets in Mbps")
    p.add_argument("--resolutions", type=_resolutions_flag,
                   help="comma-separated WxH candidates")
    p.add_argument("--no-correction", action="store_true",
                   help="emit the raw argmax ladder without monotonic correction")
    p.add_argument("--fixed-out", help="also realize the configured fixed ladder")
    p.add_argument("--reference-out", help="also build the exhaustive reference ladder")
    p.set_defaults(func=cmd_ladder, beside={_SUMMARY: None})

    p = sub.add_parser("compare", parents=[common],
                       help="BD metrics between two realized ladders")
    p.add_argument("--test", help="test ladder CSV")
    p.add_argument("--anchor", help="anchor ladder CSV")
    p.add_argument("--video", help="video id for the report row (default video)")
    p.add_argument("--batch", help="CSV listing video_id,test,anchor for corpus mode")
    p.add_argument("--pair", default="test-vs-anchor", help="comparison label")
    p.add_argument("--out", required=True, help="BD report CSV")
    p.set_defaults(func=cmd_compare, beside={_AGGREGATE: None})

    p = sub.add_parser("plot", parents=[common], help="emit SVG plots with CSV twins")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--report", help="BD report CSV to histogram")
    group.add_argument("--ladders", nargs="+", help="ladder CSVs to overlay")
    p.add_argument("--metric", choices=("bd_rate", "bd_vmaf"),
                   help="report metric to histogram (default bd_rate)")
    p.add_argument("--labels", help="comma-separated curve labels")
    p.add_argument("--title", help="hull plot title (default rate-quality hulls)")
    p.add_argument("--out", required=True, help="SVG path (CSV twin written beside it)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("encode-sweep", parents=[common],
                       help="drive an external encoder over the resolution x CRF grid")
    p.add_argument("--input", required=True, help="source Y4M")
    p.add_argument("--out", required=True, help="encode log CSV")
    p.add_argument("--template", dest="encoder_template", metavar="TEMPLATE",
                   help="shell command with {input} {width} {height} {crf} {output}")
    p.add_argument("--work-dir", dest="work_dir", help="directory for encoded outputs")
    p.add_argument("--workers", type=int)
    p.add_argument("--resolutions", type=_resolutions_flag, help="comma-separated WxH grid")
    p.add_argument("--crf-min", type=int, dest="crf_min")
    p.add_argument("--crf-max", type=int, dest="crf_max")
    p.set_defaults(func=cmd_encode_sweep, beside={_WORK: "work_dir", _FAILURES: None})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        runconfig = ".runconfig.json"
        _refuse_shared_paths(args, runconfig)
        cfg = _resolve_config(args)
        code, extras = args.func(args, cfg)
        sidecar = {"command": args.command, "version": __version__,
                   "config": config_json_dict(cfg), "warnings": [], **extras}
        for note in sidecar["warnings"]:
            print(f"warning: {note}", file=sys.stderr)
        write_json(_beside(args.out, runconfig), sidecar)
        return code
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


if __name__ == "__main__":
    sys.exit(main())
