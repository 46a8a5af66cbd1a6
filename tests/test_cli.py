import csv
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import process
from pathlib import Path

import numpy as np
import pytest

from ladderforge import __version__, cli, config, dataset, gsm_vif, ladder
from ladderforge.bd_metrics import parse_report_csv
from ladderforge.cli import EXIT_DATA, EXIT_OK, EXIT_TOOL, EXIT_USAGE, main
from ladderforge.errors import SchemaError
from ladderforge.ioutil import read_json

from helpers import is_monotone, random_plane, rung_resolutions, write_y4m

RESOLUTIONS = ((1920, 1080), (1280, 720), (960, 540))
RUNGS_MBPS = "0.5,1,2,4"
RUNG_BPS = (0.5e6, 1e6, 2e6, 4e6)


def make_clip(directory, name, frames=3, size=32, seed=0, bit_depth=8):
    rng = np.random.default_rng(seed)
    planes = [random_plane(rng, size, size, bit_depth) for _ in range(frames)]
    return write_y4m(directory / f"{name}.y4m", planes, bit_depth=bit_depth)


def synth_vmaf(video_seed, width, height, bitrate_bps):
    pixels = width * height / (1920 * 1080)
    value = 38.0 + 9.0 * math.log2(bitrate_bps / 1e6) + 6.0 * pixels + video_seed
    return max(0.0, min(100.0, value))


def synth_records(video_id, video_seed, resolutions=RESOLUTIONS):
    records = []
    for width, height in resolutions:
        base = 0.35e6 * (width * height) / (960 * 540)
        for crf in range(18, 30):
            bitrate = base * 2.0 ** ((29 - crf) / 4.0)
            records.append(
                dataset.EncodeRecord(
                    video_id, width, height, crf, bitrate,
                    synth_vmaf(video_seed, width, height, bitrate),
                )
            )
    return records


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end workspace: clips, features, log, split, model."""
    root = tmp_path_factory.mktemp("pipeline")
    names = ["v0", "v1", "v2", "v3"]
    clips = [make_clip(root, name, seed=i) for i, name in enumerate(names)]

    features = root / "features.csv"
    assert main(["extract", *map(str, clips), "--out", str(features)]) == EXIT_OK

    records = []
    for i, name in enumerate(names):
        records.extend(synth_records(name, 1.5 * i))
    log = root / "encodes.csv"
    log.write_text(dataset.encode_log_text(records))

    split = dataset.SplitManifest(0, ("v0", "v1"), ("v2",), ("v3",))
    split_path = root / "split.json"
    dataset.save_split(split, split_path)

    model = root / "model.txt"
    code = main([
        "train", "--features", str(features), "--encode-log", str(log),
        "--split", str(split_path), "--approach", "1", "--n-trees", "20",
        "--seed", "7", "--out", str(model),
    ])
    assert code == EXIT_OK
    return {
        "root": root, "clips": clips, "features": features, "log": log,
        "split": split_path, "model": model, "names": names,
    }


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    assert main(["extract", "clip.y4m"]) == EXIT_USAGE


def test_bad_rung_flag_is_usage_error(pipeline):
    code = main([
        "ladder", "--model", str(pipeline["model"]),
        "--features", str(pipeline["features"]), "--video", "v0",
        "--encode-log", str(pipeline["log"]), "--out", "x.csv",
        "--rungs", "2,1",
    ])
    assert code == EXIT_USAGE


def test_bad_resolution_flag_is_usage_error(pipeline):
    code = main([
        "ladder", "--model", str(pipeline["model"]),
        "--features", str(pipeline["features"]), "--video", "v0",
        "--encode-log", str(pipeline["log"]), "--out", "x.csv",
        "--resolutions", "1920by1080",
    ])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_layout_and_order(pipeline):
    text = pipeline["features"].read_text()
    rows = list(csv.reader(text.splitlines()))
    assert len(rows[0]) == 169 + 5
    assert rows[0][-5:] == list(cli.FEATURE_ID_COLUMNS)
    assert [r[169] for r in rows[1:]] == pipeline["names"]
    assert rows[1][170:] == ["32", "32", "8", "3"]


def test_extract_deterministic(tmp_path, pipeline):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    clip = str(pipeline["clips"][0])
    assert main(["extract", clip, "--out", str(out_a)]) == EXIT_OK
    assert main(["extract", clip, "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_extract_writes_runconfig_sidecar(tmp_path, pipeline):
    out = tmp_path / "f.csv"
    assert main(["extract", str(pipeline["clips"][0]), "--out", str(out)]) == EXIT_OK
    sidecar = json.loads((tmp_path / "f.csv.runconfig.json").read_text())
    assert sidecar["command"] == "extract"
    assert sidecar["config"]["sigma_n2"] == 2.0


def test_extract_single_frame_warns(tmp_path, capsys):
    clip = make_clip(tmp_path, "still", frames=1, seed=5)
    out = tmp_path / "still.csv"
    assert main(["extract", str(clip), "--out", str(out)]) == EXIT_OK
    assert "single frame" in capsys.readouterr().err
    sidecar = json.loads((tmp_path / "still.csv.runconfig.json").read_text())
    assert sidecar["warnings"]
    tensors = cli.parse_features_csv(out)
    assert tensors["still"].frame_count == 1
    assert not tensors["still"].has_motion


def test_extract_missing_input_no_partial_output(tmp_path, capsys):
    out = tmp_path / "missing.csv"
    assert main(["extract", str(tmp_path / "nope.y4m"), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_extract_non_finite_feature_exits_2_writing_nothing(tmp_path, capsys):
    """A noise floor this small makes information terms overflow to inf; the
    fit names the video and the noise floor instead, with no numpy warning,
    which pytest.ini makes an error."""
    clip = make_clip(tmp_path, "a", frames=2, seed=1)
    out = tmp_path / "features.csv"
    assert main(["extract", str(clip), "--sigma-n2", "1e-320", "--out", str(out)]) == EXIT_DATA
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: {clip}: sigma_n2 1e-320 is too small: the information overflows"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.y4m"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_extract_outputs_take_the_umask(tmp_path, umask, mode):
    clip = make_clip(tmp_path, "a", seed=2)
    out = tmp_path / "f.csv"
    old = os.umask(umask)
    try:
        assert main(["extract", str(clip), "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    for path in (out, tmp_path / "f.csv.runconfig.json"):
        assert oct(path.stat().st_mode & 0o777) == oct(mode), path.name


def test_extract_rejects_repeated_video_ids_before_reading(tmp_path, capsys, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = make_clip(tmp_path / "a", "x", seed=1)
    second = make_clip(tmp_path / "b", "x", seed=2)
    opened = []
    monkeypatch.setattr(cli, "open_y4m", lambda path: opened.append(path))
    out = tmp_path / "features.csv"
    assert main(["extract", str(first), str(second), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {first} and {second} share the video id 'x'\n"
    assert opened == []
    assert list(tmp_path.glob("features.csv*")) == []


@pytest.mark.parametrize("defect,message", [
    ("truncated", "frame 0: luma plane truncated"),  # raised while frames are read
    ("c444", "colourspace C444 not supported"),     # raised by the header
], ids=["truncated", "c444"])
def test_extract_y4m_errors_name_the_file(tmp_path, capsys, defect, message):
    good = make_clip(tmp_path, "a", seed=1)
    bad = make_clip(tmp_path, "b", seed=2)
    data = bad.read_bytes()
    if defect == "truncated":
        bad.write_bytes(data[:data.index(b"FRAME\n") + 6 + 100])
    else:
        bad.write_bytes(data.replace(b" C420", b" C444", 1))
    out = tmp_path / "features.csv"
    assert main(["extract", str(good), str(bad), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


# A patched _video_row reaches the workers only when they are forked.
fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="workers are not forked on this platform")

_real_video_row = cli._video_row


def _pid_video_row(path, noise_var, overlap):
    """_video_row that leaves a file named after the process running it."""
    (path.parent / f"pid-{os.getpid()}").touch()
    return _real_video_row(path, noise_var, overlap)


def _overlap_video_row(path, noise_var, overlap):
    """_video_row that leaves a file saying whether it overlaps its fits."""
    (path.parent / f"overlap-{path.stem}-{overlap}").touch()
    return _real_video_row(path, noise_var, overlap)


def _dying_video_row(path, noise_var, overlap):
    os._exit(1)


def extract(clips, out, workers):
    return main(["extract", *map(str, clips), "--out", str(out), "--workers", str(workers)])


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the machine, so --workers 2 starts a pool."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


def test_extract_output_is_the_same_for_any_worker_count(tmp_path, capsys, two_cpus):
    clips = [
        make_clip(tmp_path, "deep", frames=3, seed=11, bit_depth=10),
        make_clip(tmp_path, "still", frames=1, seed=12),
        make_clip(tmp_path, "moving", frames=4, seed=13),
        make_clip(tmp_path, "dark", frames=1, seed=14, bit_depth=10),
    ]
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.csv"
        assert extract(clips, out, workers) == EXIT_OK
        assert multiprocessing.active_children() == []
        runs.append((out.read_bytes(), capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][1] == "".join(
        f"warning: {name}.y4m: single frame, difference features written as zeros\n"
        for name in ("still", "dark"))


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_bad_clip_between_good_ones_exits_2(tmp_path, capsys, two_cpus, workers):
    clips = [make_clip(tmp_path, name, seed=i) for i, name in enumerate("abc")]
    data = clips[1].read_bytes()
    clips[1].write_bytes(data[:data.index(b"FRAME\n") + 6 + 100])
    out = tmp_path / "features.csv"
    assert extract(clips, out, workers) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {clips[1]}: frame 0: luma plane truncated\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_names_the_first_bad_clip_in_input_order(tmp_path, capsys, two_cpus, workers):
    # the first bad clip fails in its last frame, the second in its header,
    # so in a pool the second fails first
    slow = make_clip(tmp_path, "slow", frames=6, size=96, seed=3)
    slow.write_bytes(slow.read_bytes()[:-10])
    fast = make_clip(tmp_path, "fast", seed=4)
    fast.write_bytes(fast.read_bytes().replace(b" C420", b" C444", 1))
    assert extract([slow, fast], tmp_path / "features.csv", workers) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {slow}: frame 5: chroma planes truncated\n"
    assert multiprocessing.active_children() == []


@fork_only
def test_extract_worker_death_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                          two_cpus):
    monkeypatch.setattr(cli, "_video_row", _dying_video_row)
    clips = [make_clip(tmp_path, name, seed=i) for i, name in enumerate("abc")]
    out = tmp_path / "features.csv"
    assert extract(clips, out, 2) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: an extract worker process died: ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers,cpus,started", [
    (4, 2, [2]),   # capped at the usable CPUs
    (4, 8, [3]),   # capped at the inputs
    (2, 8, [2]),   # the setting itself
    (4, 1, []),    # one CPU: no pool, the rows are made in this process
])
def test_extract_pool_size_is_capped(tmp_path, monkeypatch, workers, cpus, started):
    sizes = []

    class Recording(process.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    clips = [make_clip(tmp_path, f"c{i}", seed=i) for i in range(3)]
    assert extract(clips, tmp_path / "features.csv", workers) == EXIT_OK
    assert sizes == started


@fork_only
def test_extract_rows_come_from_at_most_one_process_per_usable_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_video_row", _pid_video_row)
    clips = [make_clip(tmp_path, f"c{i}", seed=i) for i in range(4)]
    assert extract(clips, tmp_path / "features.csv", 4) == EXIT_OK
    pids = {int(path.name[4:]) for path in tmp_path.glob("pid-*")}
    cpus = cli._usable_cpus()
    assert 1 <= len(pids) <= cpus
    assert (os.getpid() in pids) == (cpus == 1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers,cpus,inputs,overlap", [
    (4, 2, 1, True),    # the default on two CPUs: one process, a free CPU
    (1, 2, 1, False),   # --workers 1 leaves no second CPU
    (4, 1, 1, False),   # nor does one usable CPU
    (3, 3, 1, True),
    pytest.param(4, 2, 2, False, marks=fork_only),  # one CPU per pool process
    pytest.param(4, 3, 2, False, marks=fork_only),
    pytest.param(4, 4, 2, True, marks=fork_only),   # two CPUs per pool process
])
def test_extract_overlaps_difference_fits_only_with_a_cpu_to_spare(
        tmp_path, monkeypatch, workers, cpus, inputs, overlap):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_video_row", _overlap_video_row)
    clips = [make_clip(tmp_path, f"c{i}", seed=i) for i in range(inputs)]
    assert extract(clips, tmp_path / "features.csv", workers) == EXIT_OK
    assert sorted(path.name for path in tmp_path.glob("overlap-*")) == [
        f"overlap-c{i}-{overlap}" for i in range(inputs)]


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_extract_one_input_gives_the_same_bytes_serial_and_overlapped(tmp_path, two_cpus,
                                                                       bit_depth):
    clip = make_clip(tmp_path, "v", frames=4, size=48, seed=15, bit_depth=bit_depth)
    serial, overlapped = tmp_path / "serial.csv", tmp_path / "overlapped.csv"
    assert extract([clip], serial, 1) == EXIT_OK
    assert main(["extract", str(clip), "--out", str(overlapped)]) == EXIT_OK
    assert serial.read_bytes() == overlapped.read_bytes()


def test_extract_error_on_the_difference_thread_exits_2_naming_the_file(
        tmp_path, capsys, monkeypatch, two_cpus):
    fit = gsm_vif.frame_vif_features
    failed_on = []

    def failing_difference_fit(frame, *args):
        if frame.raw.dtype.kind == "i":  # a difference plane's samples are signed
            failed_on.append(threading.current_thread())
            raise SchemaError("planted difference-plane failure")
        return fit(frame, *args)

    monkeypatch.setattr(gsm_vif, "frame_vif_features", failing_difference_fit)
    clip = make_clip(tmp_path, "v", frames=3, seed=16)
    out = tmp_path / "features.csv"
    threads = threading.enumerate()
    assert main(["extract", str(clip), "--out", str(out)]) == EXIT_DATA
    assert threading.enumerate() == threads
    assert len(failed_on) == 1 and failed_on[0] not in threads
    assert capsys.readouterr().err == f"error: {clip}: planted difference-plane failure\n"
    assert not out.exists()


def test_extract_sigma_flag_changes_features(tmp_path, pipeline):
    clip = str(pipeline["clips"][0])
    out_a = tmp_path / "s2.csv"
    out_b = tmp_path / "s50.csv"
    assert main(["extract", clip, "--out", str(out_a)]) == EXIT_OK
    assert main(["extract", clip, "--out", str(out_b), "--sigma-n2", "50"]) == EXIT_OK
    assert out_a.read_bytes() != out_b.read_bytes()


def test_config_env_var_used(tmp_path, monkeypatch, pipeline):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sigma_n2": 50.0}))
    monkeypatch.setenv("LADDERFORGE_CONFIG", str(conf))
    out = tmp_path / "env.csv"
    assert main(["extract", str(pipeline["clips"][0]), "--out", str(out)]) == EXIT_OK
    sidecar = json.loads((tmp_path / "env.csv.runconfig.json").read_text())
    assert sidecar["config"]["sigma_n2"] == 50.0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs_and_metrics(pipeline):
    model_path = pipeline["model"]
    assert model_path.exists()
    metrics = json.loads(Path(str(model_path) + ".metrics.json").read_text())
    assert metrics["approach"] == 1
    assert metrics["n_train"] == 72  # 2 videos x 3 resolutions x 12 crf
    assert metrics["n_validation"] == 36
    assert isinstance(metrics["r2"], float)
    assert isinstance(metrics["spearman"], float)


def test_train_deterministic_bytes(tmp_path, pipeline):
    out_a = tmp_path / "m1.txt"
    out_b = tmp_path / "m2.txt"
    base = [
        "train", "--features", str(pipeline["features"]),
        "--encode-log", str(pipeline["log"]), "--split", str(pipeline["split"]),
        "--approach", "1", "--n-trees", "20", "--seed", "7",
    ]
    assert main(base + ["--out", str(out_a)]) == EXIT_OK
    assert main(base + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() == pipeline["model"].read_bytes()


def test_train_rejects_overlapping_split(tmp_path, pipeline, capsys):
    bad_split = tmp_path / "bad_split.json"
    payload = json.loads(pipeline["split"].read_text())
    payload["train"] = payload["train"] + payload["test"]  # v3 leaks into train
    bad_split.write_text(json.dumps(payload))
    code = main([
        "train", "--features", str(pipeline["features"]),
        "--encode-log", str(pipeline["log"]), "--split", str(bad_split),
        "--approach", "1", "--out", str(tmp_path / "m.txt"),
    ])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {bad_split}: split manifest parts overlap\n"


def test_train_rejects_unassigned_video(tmp_path, pipeline, capsys):
    extra = synth_records("v9", 0.0)
    log = tmp_path / "log_extra.csv"
    log.write_text(dataset.encode_log_text(
        dataset.parse_encode_log(pipeline["log"]) + extra))
    code = main([
        "train", "--features", str(pipeline["features"]), "--encode-log", str(log),
        "--split", str(pipeline["split"]), "--approach", "1",
        "--out", str(tmp_path / "m.txt"),
    ])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {pipeline['split']}: video 'v9' is not in any split part\n"


def test_split_and_cross_file_errors_name_their_files(tmp_path, pipeline, capsys):
    """Each error of train and ladder that concerns one file names that file."""
    def run(argv):
        assert main([str(a) for a in argv]) == EXIT_DATA
        return capsys.readouterr().err

    train = ["train", "--approach", "1", "--n-trees", "2", "--out", tmp_path / "m.txt"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(pipeline["split"].read_text()), "format": "other"}))
    err = run(train + ["--features", pipeline["features"], "--encode-log", pipeline["log"],
                       "--split", other])
    assert err == f"error: {other}: unknown split manifest format 'other'\n"

    no_v0 = tmp_path / "features_no_v0.csv"
    lines = pipeline["features"].read_text().splitlines(keepends=True)
    no_v0.write_text("".join(line for line in lines if ",v0," not in line))
    err = run(train + ["--features", no_v0, "--encode-log", pipeline["log"],
                       "--split", pipeline["split"]])
    assert err == f"error: {no_v0}: no feature tensor for video 'v0'\n"

    records = dataset.parse_encode_log(pipeline["log"])
    two_videos = tmp_path / "two_videos.csv"
    two_videos.write_text(dataset.encode_log_text(
        [r for r in records if r.video_id in ("v0", "v1")]))
    err = run(train + ["--features", pipeline["features"], "--encode-log", two_videos])
    assert err == f"error: {two_videos}: need at least 3 distinct videos, got 2\n"

    no_v3 = tmp_path / "log_no_v3.csv"
    no_v3.write_text(dataset.encode_log_text([r for r in records if r.video_id != "v3"]))
    argv = ladder_args(pipeline, tmp_path / "l.csv")
    argv[argv.index("--encode-log") + 1] = str(no_v3)
    assert run(argv) == f"error: {no_v3}: no rows for video 'v3'\n"


def test_train_without_split_writes_manifest(tmp_path, pipeline):
    out = tmp_path / "m.txt"
    code = main([
        "train", "--features", str(pipeline["features"]),
        "--encode-log", str(pipeline["log"]), "--approach", "1",
        "--n-trees", "5", "--out", str(out),
    ])
    assert code == EXIT_OK
    manifest = dataset.load_split(Path(str(out) + ".split.json"))
    assert set(manifest.train) | set(manifest.validation) | set(manifest.test) == set(pipeline["names"])


def test_train_split_without_training_rows_names_the_manifest(tmp_path, pipeline, capsys):
    payload = json.loads(pipeline["split"].read_text())
    payload["validation"] += payload["train"]
    payload["train"] = []
    split = tmp_path / "split.json"
    split.write_text(json.dumps(payload))
    out = tmp_path / "m.txt"
    assert main(["train", "--features", str(pipeline["features"]),
                 "--encode-log", str(pipeline["log"]), "--split", str(split),
                 "--approach", "1", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {split}: no training rows\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["split.json"]


def test_train_names_the_single_frame_video_under_a_motion_approach(tmp_path, pipeline, capsys):
    clips = list(pipeline["clips"])
    clips[1] = make_clip(tmp_path, "v1", frames=1, seed=1)
    features = tmp_path / "features.csv"
    assert main(["extract", *map(str, clips), "--out", str(features)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "m.txt"
    assert main(["train", "--features", str(features), "--encode-log", str(pipeline["log"]),
                 "--split", str(pipeline["split"]), "--approach", "8",
                 "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {features}: video 'v1': approach 8 needs frame-difference features; "
        "video has 1 frame(s)\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

def ladder_args(pipeline, out, video="v3", extra=()):
    return [
        "ladder", "--model", str(pipeline["model"]),
        "--features", str(pipeline["features"]), "--video", video,
        "--encode-log", str(pipeline["log"]), "--out", str(out),
        "--rungs", RUNGS_MBPS,
        "--resolutions", "1920x1080,1280x720,960x540",
        *extra,
    ]


def test_ladder_monotone_output(tmp_path, pipeline):
    out = tmp_path / "ladder.csv"
    assert main(ladder_args(pipeline, out)) == EXIT_OK
    lad = ladder.parse_ladder_csv(out)
    assert len(lad) == 4
    assert is_monotone(lad)
    assert [r.rung_bps for r in lad] == list(RUNG_BPS)
    summary = Path(str(out) + ".summary.txt").read_text()
    assert "monotone: yes" in summary


def test_ladder_no_correction_flag(tmp_path, pipeline):
    out = tmp_path / "raw.csv"
    assert main(ladder_args(pipeline, out, extra=["--no-correction"])) == EXIT_OK
    assert Path(str(out) + ".summary.txt").exists()
    sidecar = json.loads(Path(str(out) + ".runconfig.json").read_text())
    assert sidecar["correction"] is False


def test_ladder_fixed_and_reference_outputs(tmp_path, pipeline):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "fixed_ladder": [
            {"bitrate_bps": 0.5e6, "width": 960, "height": 540},
            {"bitrate_bps": 1e6, "width": 1280, "height": 720},
            {"bitrate_bps": 2e6, "width": 1920, "height": 1080},
            {"bitrate_bps": 4e6, "width": 1920, "height": 1080},
        ]
    }))
    out = tmp_path / "pred.csv"
    fixed_out = tmp_path / "fixed.csv"
    ref_out = tmp_path / "ref.csv"
    code = main(ladder_args(
        pipeline, out,
        extra=["--config", str(conf), "--fixed-out", str(fixed_out),
               "--reference-out", str(ref_out)],
    ))
    assert code == EXIT_OK
    fixed = ladder.parse_ladder_csv(fixed_out)
    assert rung_resolutions(fixed) == [(960, 540), (1280, 720), (1920, 1080), (1920, 1080)]
    ref = ladder.parse_ladder_csv(ref_out)
    assert is_monotone(ref)
    summary = Path(str(out) + ".summary.txt").read_text()
    assert summary.count("provenance:") == 3
    provenances = [line for line in summary.splitlines() if line.startswith("provenance:")]
    assert provenances == ["provenance: predicted", "provenance: fixed", "provenance: reference"]


def test_ladder_missing_resolution_sweep(tmp_path, pipeline, capsys):
    # the only candidate resolution has no rows in the encode log, so the
    # winning rung cannot be realized
    records = [r for r in dataset.parse_encode_log(pipeline["log"])
               if (r.width, r.height) != (960, 540)]
    log = tmp_path / "partial.csv"
    log.write_text(dataset.encode_log_text(records))
    out = tmp_path / "l.csv"
    code = main([
        "ladder", "--model", str(pipeline["model"]),
        "--features", str(pipeline["features"]), "--video", "v3",
        "--encode-log", str(log), "--out", str(out),
        "--rungs", RUNGS_MBPS, "--resolutions", "960x540",
    ])
    assert code == EXIT_DATA
    assert "960x540" in capsys.readouterr().err
    assert not out.exists()


def test_ladder_single_frame_row_under_a_motion_model_names_features_and_video(
        tmp_path, pipeline, capsys):
    model = tmp_path / "a8.txt"
    assert main(["train", "--features", str(pipeline["features"]),
                 "--encode-log", str(pipeline["log"]), "--split", str(pipeline["split"]),
                 "--approach", "8", "--n-trees", "2", "--out", str(model)]) == EXIT_OK
    features = tmp_path / "still.csv"
    assert main(["extract", str(make_clip(tmp_path, "still", frames=1)),
                 "--out", str(features)]) == EXIT_OK
    log = tmp_path / "still_log.csv"
    log.write_text(dataset.encode_log_text(synth_records("still", 0.0)))
    capsys.readouterr()
    out = tmp_path / "l.csv"
    assert main(["ladder", "--model", str(model), "--features", str(features), "--video", "still",
                 "--encode-log", str(log), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {features}: video 'still': approach 8 needs frame-difference features; "
        "video has 1 frame(s)\n")
    assert not out.exists()


@pytest.mark.parametrize("family", ["predicted", "fixed"])
def test_ladder_missing_log_points_name_the_log_and_video(tmp_path, pipeline, capsys, family):
    log = tmp_path / "partial.csv"
    log.write_text(dataset.encode_log_text([r for r in dataset.parse_encode_log(pipeline["log"])
                                            if (r.width, r.height) != (960, 540)]))
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"fixed_ladder": [{"bitrate_bps": 5e5, "width": 960, "height": 540}]}))
    out, fixed = tmp_path / "l.csv", tmp_path / "fixed.csv"
    argv = ladder_args(pipeline, out, extra=["--config", str(conf), "--fixed-out", str(fixed)])
    argv[argv.index("--encode-log") + 1] = str(log)
    if family == "predicted":
        argv[argv.index("--resolutions") + 1] = "960x540"
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {log}: video 'v3': encode log has no points at 960x540 for rung 500000 bps\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["conf.json", "partial.csv"]


def test_ladder_sidecar_config_reproduces_the_run(tmp_path, pipeline):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "sigma_n2": 3.5, "rung_bitrates_bps": [1e6, 3e6], "k_features": 2,
        "fixed_ladder": [{"bitrate_bps": 1e6, "width": 960, "height": 540}],
        "encoder_template": "enc {input} {width} {height} {crf} {output}",
    }))
    out = tmp_path / "ladder.csv"
    assert main(ladder_args(pipeline, out, extra=["--config", str(conf)])) == EXIT_OK
    sidecar = json.loads(Path(str(out) + ".runconfig.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(sidecar["config"]))
    used = config.apply_overrides(config.load_config(conf), rung_bitrates_bps=RUNG_BPS,
                                  resolutions=RESOLUTIONS)
    assert used != config.load_config(conf)
    assert config.load_config(replay) == used


def test_default_ladder_sidecar_records_the_fixed_table_it_used(tmp_path, pipeline):
    # a log at every default resolution, so the default fixed table realizes
    log = tmp_path / "encodes.csv"
    log.write_text(dataset.encode_log_text(synth_records("v3", 4.5, ladder.DEFAULT_RESOLUTIONS)))
    out, fixed = tmp_path / "ladder.csv", tmp_path / "fixed.csv"
    args = ["ladder", "--model", str(pipeline["model"]), "--features", str(pipeline["features"]),
            "--video", "v3", "--encode-log", str(log), "--out", str(out), "--fixed-out", str(fixed)]
    assert main(args) == EXIT_OK
    sidecar = json.loads(Path(str(out) + ".runconfig.json").read_text())
    assert len(ladder.DEFAULT_FIXED_LADDER) == 12
    assert sidecar["config"]["fixed_ladder"] == [
        {"bitrate_bps": bps, "width": w, "height": h} for bps, (w, h) in ladder.DEFAULT_FIXED_LADDER]
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(sidecar["config"]))
    replayed = tmp_path / "replayed.csv"
    assert main(args[:-4] + ["--out", str(tmp_path / "again.csv"), "--fixed-out", str(replayed),
                             "--config", str(replay)]) == EXIT_OK
    assert replayed.read_bytes() == fixed.read_bytes()
    assert [r.rung_bps for r in ladder.parse_ladder_csv(fixed)] == [
        bps for bps, _ in ladder.DEFAULT_FIXED_LADDER]


def test_json_inputs_that_are_not_objects_exit_2(tmp_path, pipeline, capsys):
    conf, split = tmp_path / "conf.json", tmp_path / "split.json"
    conf.write_text("[]")
    split.write_text("[]")
    assert main(ladder_args(pipeline, tmp_path / "l.csv", extra=["--config", str(conf)])) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {conf}: config must be a JSON object\n"
    assert main(["train", "--features", str(pipeline["features"]),
                 "--encode-log", str(pipeline["log"]), "--split", str(split),
                 "--out", str(tmp_path / "m.txt")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {split}: split manifest must be a JSON object\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["conf.json", "split.json"]


def test_ladder_unknown_video(tmp_path, pipeline, capsys):
    out = tmp_path / "l.csv"
    assert main(ladder_args(pipeline, out, video="nope")) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {pipeline['features']}: no row for video 'nope'\n"


@pytest.mark.parametrize("first, second", [
    ("--out", "--reference-out"),
    ("--out", "--fixed-out"),
    ("--fixed-out", "--reference-out"),
    ("--encode-log", "--out"),
    ("--model", "--fixed-out"),
    ("--features", "--reference-out"),
])
def test_ladder_outputs_naming_one_file_are_a_usage_error(tmp_path, pipeline, capsys,
                                                          monkeypatch, first, second):
    for name in ("model", "features", "log"):
        (tmp_path / pipeline[name].name).write_bytes(pipeline[name].read_bytes())
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"fixed_ladder": [{"bitrate_bps": 5e5, "width": 960, "height": 540}]}))
    paths = {"--model": tmp_path / pipeline["model"].name,
             "--features": tmp_path / pipeline["features"].name,
             "--encode-log": tmp_path / pipeline["log"].name,
             "--out": tmp_path / "pred.csv", "--fixed-out": tmp_path / "fixed.csv",
             "--reference-out": tmp_path / "ref.csv"}
    monkeypatch.chdir(tmp_path)
    paths[second] = Path(".", paths[first].name)  # the same file, spelled otherwise
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv = ["ladder", "--video", "v3", "--config", str(conf), "--rungs", RUNGS_MBPS,
            "--resolutions", "1920x1080,1280x720,960x540"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: {first} and {second} name the same file {paths[second]}\n")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ladders(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("ladders")
    paths = {}
    for video in ("v2", "v3"):
        pred = root / f"{video}_pred.csv"
        ref = root / f"{video}_ref.csv"
        code = main(ladder_args(pipeline, pred, video=video,
                                extra=["--reference-out", str(ref)]))
        assert code == EXIT_OK
        paths[video] = {"pred": pred, "ref": ref}
    return root, paths


COLLISIONS = {  # a run whose output names a file it reads or writes -> the message
    "extract": (["extract", "a.y4m", "--out", "a.y4m"],
                "inputs and --out name the same file a.y4m"),
    "train": (["train", "--features", "f.csv", "--encode-log", "log.csv", "--approach", "1",
               "--n-trees", "2", "--out", "f.csv"],
              "--features and --out name the same file f.csv"),
    "compare": (["compare", "--test", "a.csv", "--anchor", "a.csv", "--out", "a.csv"],
                "--test and --out name the same file a.csv"),
    "plot": (["plot", "--ladders", "a.csv", "--out", "hull.csv"],
             "--out and the CSV twin of --out name the same file hull.csv"),
    "ladder": (["ladder", "--model", "model.txt", "--features", "f.csv", "--video", "v3",
                "--encode-log", "log.csv", "--rungs", RUNGS_MBPS, "--out", "pred.csv",
                "--reference-out", "pred.csv.summary.txt"],
               "--reference-out and <out>.summary.txt name the same file pred.csv.summary.txt"),
    "config": (["compare", "--test", "a.csv", "--anchor", "a.csv", "--config", "conf.json",
                "--out", "conf.json"],
               "the config file and --out name the same file conf.json"),
}


@pytest.mark.parametrize("command", COLLISIONS)
def test_outputs_naming_a_file_the_run_reads_or_writes_are_a_usage_error(
        tmp_path, pipeline, ladders, capsys, monkeypatch, command):
    for name, source in (("a.y4m", pipeline["clips"][0]), ("f.csv", pipeline["features"]),
                         ("log.csv", pipeline["log"]), ("model.txt", pipeline["model"]),
                         ("a.csv", ladders[1]["v3"]["pred"])):
        (tmp_path / name).write_bytes(source.read_bytes())
    (tmp_path / "conf.json").write_text("{}\n")
    monkeypatch.chdir(tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    argv, message = COLLISIONS[command]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


LOOPED = {  # a run one of whose files is the symlink loop "loop"
    "compare": ["compare", "--test", "loop", "--anchor", "a.csv", "--out", "o.csv"],
    "plot": ["plot", "--ladders", "loop", "--out", "hull.png"],
    "train": ["train", "--features", "loop", "--encode-log", "log.csv", "--approach", "1",
              "--n-trees", "2", "--out", "model.txt"],
    "extract": ["extract", "loop", "--out", "o.csv"],
    "config": ["compare", "--test", "a.csv", "--anchor", "a.csv", "--config", "loop",
               "--out", "o.csv"],
}


@pytest.mark.parametrize("command", LOOPED)
def test_a_symlink_loop_is_reported_by_its_reader(tmp_path, capsys, monkeypatch, command):
    (tmp_path / "loop").symlink_to("loop")
    monkeypatch.chdir(tmp_path)
    assert main(LOOPED[command]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "loop" in lines[0], err


@pytest.mark.parametrize("parent", ["nodir", "a.csv"])
def test_an_output_that_cannot_be_created_is_named_as_given(tmp_path, ladders, capsys,
                                                            monkeypatch, parent):
    (tmp_path / "a.csv").write_bytes(ladders[1]["v3"]["pred"].read_bytes())
    monkeypatch.chdir(tmp_path)
    out = f"{parent}/r.csv"
    assert main(["compare", "--test", "a.csv", "--anchor", "a.csv", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n")
    assert ".r.csv." not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv"]


def test_an_output_that_cannot_be_renamed_into_place_is_named_as_given(tmp_path, ladders, capsys,
                                                                      monkeypatch):
    (tmp_path / "a.csv").write_bytes(ladders[1]["v3"]["pred"].read_bytes())
    (tmp_path / "adir").mkdir()
    (tmp_path / "adir" / "kept").write_bytes(b"x")
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--test", "a.csv", "--anchor", "a.csv", "--out", "adir"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(": 'adir'\n")
    assert ".adir." not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "adir"]
    assert [path.name for path in (tmp_path / "adir").iterdir()] == ["kept"]


def test_compare_self_is_zero(tmp_path, ladders):
    _, paths = ladders
    out = tmp_path / "self.csv"
    code = main([
        "compare", "--test", str(paths["v3"]["pred"]),
        "--anchor", str(paths["v3"]["pred"]), "--video", "v3",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "video_id"
    assert float(rows[1][2]) == 0.0
    assert float(rows[1][3]) == 0.0


def test_compare_batch_aggregates(tmp_path, ladders):
    root, paths = ladders
    listing = tmp_path / "batch.csv"
    listing.write_text(
        "video_id,test,anchor\n"
        f"v2,{paths['v2']['pred']},{paths['v2']['ref']}\n"
        f"v3,{paths['v3']['pred']},{paths['v3']['ref']}\n"
    )
    out = tmp_path / "report.csv"
    code = main(["compare", "--batch", str(listing), "--pair",
                 "predicted-vs-reference", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads(Path(str(out) + ".aggregate.json").read_text())
    assert summary["n_compared"] == 2
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    rates = [float(r[2]) for r in rows]
    quals = [float(r[3]) for r in rows]
    mean = sum(rates) / 2
    std = math.sqrt(sum((r - mean) ** 2 for r in rates) / 2)
    assert summary["bd_rate_mean"] == pytest.approx(mean, abs=1e-12)
    assert summary["bd_rate_std"] == pytest.approx(std, abs=1e-12)
    assert summary["table_format"]["bd_rate"] == f"{mean:g}/{std:g}"
    qmean = sum(quals) / 2
    assert summary["bd_quality_mean"] == pytest.approx(qmean, abs=1e-12)


@pytest.mark.parametrize("pair_flags", [["--test"], ["--anchor"], ["--test", "--anchor"]])
def test_compare_batch_with_test_or_anchor_is_usage_error(tmp_path, ladders, capsys, pair_flags):
    _, paths = ladders
    listing = tmp_path / "batch.csv"
    listing.write_text(f"video_id,test,anchor\nv2,{paths['v2']['pred']},{paths['v2']['ref']}\n")
    out = tmp_path / "report.csv"
    argv = ["compare", "--batch", str(listing), "--out", str(out)]
    for flag in pair_flags:
        argv += [flag, str(paths["v3"]["pred"])]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_compare_batch_with_video_is_usage_error(tmp_path, ladders, capsys):
    _, paths = ladders
    listing = tmp_path / "batch.csv"
    listing.write_text(f"video_id,test,anchor\nv2,{paths['v2']['pred']},{paths['v2']['ref']}\n")
    out = tmp_path / "report.csv"
    argv = ["compare", "--batch", str(listing), "--video", "zz", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--video" in err
    assert not out.exists()


@pytest.mark.parametrize("row, column", [("x,,b.csv", "test"), ("x,a.csv,", "anchor")])
def test_compare_batch_empty_path_exits_2_naming_listing_and_line(tmp_path, capsys, row, column):
    listing = tmp_path / "batch.csv"
    listing.write_text(f"video_id,test,anchor\n{row}\n")
    out = tmp_path / "report.csv"
    assert main(["compare", "--batch", str(listing), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: {listing} line 2: {column}: '' must not be empty\n"
    assert not out.exists()


def test_compare_batch_empty_video_id_is_a_label(tmp_path, ladders):
    _, paths = ladders
    listing = tmp_path / "batch.csv"
    listing.write_text(f"video_id,test,anchor\n,{paths['v2']['pred']},{paths['v2']['ref']}\n")
    out = tmp_path / "report.csv"
    assert main(["compare", "--batch", str(listing), "--out", str(out)]) == EXIT_OK
    assert list(csv.reader(out.read_text().splitlines()))[1][0] == ""


def test_compare_pair_without_video_names_its_row_video(tmp_path, ladders):
    _, paths = ladders
    out = tmp_path / "report.csv"
    assert main(["compare", "--test", str(paths["v3"]["pred"]), "--anchor", str(paths["v3"]["ref"]),
                 "--out", str(out)]) == EXIT_OK
    assert list(csv.reader(out.read_text().splitlines()))[1][0] == "video"


def test_compare_disjoint_is_warning_row(tmp_path, capsys):
    low = [dataset.EncodeRecord("v", 1280, 720, 18 + i, (1 + i) * 1e5, 5.0 + i)
           for i in range(4)]
    high = [dataset.EncodeRecord("v", 1280, 720, 18 + i, (1 + i) * 1e5, 60.0 + i)
            for i in range(4)]
    res = [(1280, 720)] * 2
    rungs = [1e5, 3e5]
    a = tmp_path / "low.csv"
    b = tmp_path / "high.csv"
    a.write_text(ladder.ladder_csv_text(ladder.realize_ladder(res, rungs, low)))
    b.write_text(ladder.ladder_csv_text(ladder.realize_ladder(res, rungs, high)))
    out = tmp_path / "report.csv"
    code = main(["compare", "--test", str(a), "--anchor", str(b),
                 "--video", "v", "--out", str(out)])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "no quality interval" in err
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][2] == ""
    summary = json.loads(Path(str(out) + ".aggregate.json").read_text())
    assert summary["n_skipped"] == 1
    sidecar = json.loads(Path(str(out) + ".runconfig.json").read_text())
    assert err == "".join(f"warning: {note}\n" for note in sidecar["warnings"])
    assert sidecar["warnings"] == [f"v: {rows[1][-1]}"]


def _write_ladder(path, points):
    path.write_text("rung_bps,width,height,crf,realized_bps,vmaf\n" + "".join(
        f"{1e6 * (i + 1)!r},640,360,30,{bps!r},{vmaf!r}\n" for i, (bps, vmaf) in enumerate(points)))
    return path


@pytest.mark.parametrize("anchor", [
    [(5e-324, 10.0), (1e-300, 90.0)],  # 2 ** gap overflows
    [(1.0, 10.0), (2.0, 90.0)],        # 2 ** gap is finite, times 100 is not
], ids=["pow-overflows", "percent-overflows"])
def test_compare_bd_rate_beyond_float_range_is_warning_row(tmp_path, capsys, anchor):
    test = _write_ladder(tmp_path / "test.csv", [(5e-324, 10.0), (4.49e307, 10.0001),
                                                 (8.98e307, 90.0)])
    out = tmp_path / "report.csv"
    assert main(["compare", "--test", str(test), "--anchor",
                 str(_write_ladder(tmp_path / "anchor.csv", anchor)), "--out", str(out)]) == EXIT_OK
    assert "warning: video: BD-rate is not a finite number" in capsys.readouterr().err
    [row] = parse_report_csv(out)
    assert row.bd_rate_percent is None and "BD-rate is not a finite number" in row.warnings
    summary = read_json(Path(str(out) + ".aggregate.json"), "aggregate")
    assert (summary["n_compared"], summary["n_skipped"]) == (0, 1)


def test_compare_batch_degenerate_pair_is_warning_row(tmp_path, ladders, capsys):
    _, paths = ladders
    flat = tmp_path / "flat.csv"  # every rung realized by one encode: one point after pruning
    flat.write_text("rung_bps,width,height,crf,realized_bps,vmaf\n"
                    "500000.0,640,360,24,480000.0,61.0\n"
                    "1000000.0,640,360,24,480000.0,61.0\n")
    listing = tmp_path / "batch.csv"
    listing.write_text(
        "video_id,test,anchor\n"
        f"v2,{paths['v2']['pred']},{paths['v2']['ref']}\n"
        f"v3,{flat},{paths['v3']['ref']}\n"
    )
    out = tmp_path / "report.csv"
    assert main(["compare", "--batch", str(listing), "--out", str(out)]) == EXIT_OK
    assert "v3: curve needs >= 2 points" in capsys.readouterr().err
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    assert [r[0] for r in rows] == ["v2", "v3"]
    assert rows[0][2] != "" and rows[1][2] == ""
    summary = json.loads(Path(str(out) + ".aggregate.json").read_text())
    assert (summary["n_compared"], summary["n_skipped"]) == (1, 1)


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report(ladders, tmp_path_factory):
    root, paths = ladders
    listing = root / "batch.csv"
    listing.write_text(
        "video_id,test,anchor\n"
        f"v2,{paths['v2']['pred']},{paths['v2']['ref']}\n"
        f"v3,{paths['v3']['pred']},{paths['v3']['ref']}\n"
    )
    out = root / "report.csv"
    assert main(["compare", "--batch", str(listing), "--out", str(out)]) == EXIT_OK
    return out


def test_plot_histogram_and_twin(tmp_path, report):
    out = tmp_path / "hist.svg"
    assert main(["plot", "--report", str(report), "--metric", "bd_rate",
                 "--out", str(out)]) == EXIT_OK
    svg = out.read_text()
    assert svg.startswith("<svg ")
    twin = tmp_path / "hist.csv"
    assert twin.read_text().startswith("bin_lo,bin_hi,count")


def test_plot_deterministic(tmp_path, report):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for out in (a, b):
        assert main(["plot", "--report", str(report), "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_plot_empty_report_fails(tmp_path):
    report_path = tmp_path / "empty.csv"
    report_path.write_text(
        "video_id,pair,bd_rate_percent,bd_vmaf,quality_lo,quality_hi,"
        "log2_rate_lo,log2_rate_hi,warnings\n"
    )
    out = tmp_path / "h.svg"
    assert main(["plot", "--report", str(report_path), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


def write_report(path, bd_rates):
    path.write_text(
        "video_id,pair,bd_rate_percent,bd_vmaf,quality_lo,quality_hi,"
        "log2_rate_lo,log2_rate_hi,warnings\n"
        + "".join(f"v{i},p,{r!r},1.0,40.0,60.0,19.0,21.0,\n" for i, r in enumerate(bd_rates))
    )


def test_plot_uneven_report_uses_at_most_n_bins(tmp_path):
    # a zero IQR under a huge range: the Freedman-Diaconis count would be ~1e21
    report_path = tmp_path / "report.csv"
    write_report(report_path, [0.0, 0.0, 0.0, 1e-12, 1e9])
    out = tmp_path / "h.svg"
    assert main(["plot", "--report", str(report_path), "--out", str(out)]) == EXIT_OK
    bins = list(csv.DictReader((tmp_path / "h.csv").read_text().splitlines()))
    assert 1 <= len(bins) <= 5
    assert sum(int(b["count"]) for b in bins) == 5


def test_plot_report_wider_than_a_float_fails(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    write_report(report_path, [-1e308, 0.0, 1e308])
    out = tmp_path / "h.svg"
    assert main(["plot", "--report", str(report_path), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_plot_hulls(tmp_path, ladders):
    _, paths = ladders
    out = tmp_path / "hulls.svg"
    code = main([
        "plot", "--ladders", str(paths["v3"]["pred"]), str(paths["v3"]["ref"]),
        "--labels", "predicted,reference", "--title", "v3 hulls",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    svg = out.read_text()
    assert svg.count("<polyline ") == 2
    assert "predicted" in svg and "reference" in svg
    twin = tmp_path / "hulls.csv"
    assert twin.read_text().startswith("label,bitrate_bps,quality")


def test_plot_label_count_mismatch(tmp_path, ladders):
    _, paths = ladders
    code = main([
        "plot", "--ladders", str(paths["v3"]["pred"]),
        "--labels", "a,b", "--out", str(tmp_path / "x.svg"),
    ])
    assert code == EXIT_USAGE


def test_plot_ladders_with_metric_is_usage_error(tmp_path, ladders, capsys):
    _, paths = ladders
    out = tmp_path / "hulls.svg"
    code = main(["plot", "--ladders", str(paths["v3"]["pred"]), "--metric", "bd_vmaf",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--metric" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--labels", "a,b"), ("--title", "T")])
def test_plot_report_with_hull_flags_is_usage_error(tmp_path, report, capsys, flag, value):
    out = tmp_path / "hist.svg"
    assert main(["plot", "--report", str(report), flag, value, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# encode-sweep
# ---------------------------------------------------------------------------

FAKE_ENCODER = """\
import sys
inp, w, h, crf, out = sys.argv[1:6]
with open(out, "w") as fh:
    fh.write("encoded")
with open({counter!r}, "a") as fh:
    fh.write(f"{{w}}x{{h}}:{{crf}}\\n")
crf_i = int(crf); w_i = int(w)
{clause}
bitrate = 1000.0 * w_i * 2.0 ** ((30 - crf_i) / 6.0)
vmaf = max(0.0, min(100.0, 90.0 - 2.0 * (crf_i - 18) + w_i / 500.0))
print(f"bitrate_bps={{bitrate}}")
print(f"vmaf={{vmaf}}")
"""


def write_fake_encoder(tmp_path, fail_crf=None, slow=False, stall_at=None):
    """A template running a fake encoder, and the file it logs each call to.

    fail_crf makes that crf's cells crash; slow makes a cell take longer the
    lower its crf, so cells finish out of grid order; the call numbered
    stall_at creates the file "stalled" beside the encoder and sleeps.
    """
    counter = tmp_path / "calls.txt"
    counter.write_text("")
    clause = ""
    if fail_crf is not None:
        clause = (
            f"if crf_i == {fail_crf}:\n"
            f"    print('simulated encoder crash', file=sys.stderr)\n"
            f"    sys.exit(1)"
        )
    if slow:
        clause = "import time; time.sleep(0.15 * (21 - crf_i))"
    if stall_at is not None:
        clause = (
            f"if len(open({str(counter)!r}).read().splitlines()) == {stall_at}:\n"
            f"    open({str(tmp_path / 'stalled')!r}, 'w').close()\n"
            f"    import time; time.sleep(60)"
        )
    script = tmp_path / "fake_encoder.py"
    script.write_text(FAKE_ENCODER.format(counter=str(counter), clause=clause))
    template = (
        f"python3 {script} {{input}} {{width}} {{height}} {{crf}} {{output}}"
    )
    return template, counter


def sweep_args(pipeline, tmp_path, out, template):
    return [
        "encode-sweep", "--input", str(pipeline["clips"][0]),
        "--out", str(out), "--template", template,
        "--resolutions", "64x36,32x18", "--crf-min", "18", "--crf-max", "20",
        "--workers", "2",
    ]


def test_sweep_full_grid(tmp_path, pipeline):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    records = dataset.parse_encode_log(out)
    assert len(records) == 6  # 2 resolutions x 3 crf values
    assert len(counter.read_text().splitlines()) == 6
    keys = {(r.width, r.height, r.crf) for r in records}
    assert keys == {(w, h, c) for (w, h) in ((64, 36), (32, 18)) for c in (18, 19, 20)}
    # canonical ordering: larger resolutions first, then ascending crf
    assert [(r.width, r.crf) for r in records][:3] == [(64, 18), (64, 19), (64, 20)]


def test_sweep_resume_skips_done_cells(tmp_path, pipeline):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    first_calls = len(counter.read_text().splitlines())

    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:4]) + "\n")  # keep header + 3 cells

    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    records = dataset.parse_encode_log(out)
    assert len(records) == 6
    total_calls = len(counter.read_text().splitlines())
    assert total_calls == first_calls + 3  # only the missing cells re-ran


def test_sweep_rejects_out_of_range_journal_row(tmp_path, pipeline, capsys):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    out.write_text("video_id,width,height,crf,bitrate_bps,vmaf\n"
                   "v0,64,36,18,inf,80.0\n")
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {out} line 2: bitrate_bps: 'inf' is not a finite number\n")
    assert counter.read_text() == ""
    assert not Path(str(out) + ".work").exists()


def test_sweep_rejects_journal_of_another_video(tmp_path, pipeline, capsys):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    out.write_text("video_id,width,height,crf,bitrate_bps,vmaf\n"
                   "other,64,36,18,1000.0,80.0\n")
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {out}: row for video 'other', not 'v0'\n"
    assert counter.read_text() == ""
    assert not Path(str(out) + ".work").exists()


@pytest.mark.parametrize("report", [
    "bitrate_bps=1e999 vmaf=50",   # overflows to inf
    "bitrate_bps=1000 vmaf=150",   # quality above 100
    "bitrate_bps=1.2.3 vmaf=50",   # not a number
])
def test_sweep_rejects_bad_encoder_output(tmp_path, pipeline, report):
    script = tmp_path / "bad_encoder.py"
    script.write_text(f"print({report!r})\n")
    template = f"python3 {script} {{input}} {{width}} {{height}} {{crf}} {{output}}"
    out = tmp_path / "log.csv"
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_TOOL
    assert "64x36 crf 18" in Path(str(out) + ".failures.txt").read_text()
    assert not out.exists()

    template_ok, _ = write_fake_encoder(tmp_path)
    assert main(sweep_args(pipeline, tmp_path, out, template_ok)) == EXIT_OK
    assert len(dataset.parse_encode_log(out)) == 6


def test_sweep_quotes_paths_for_the_shell(tmp_path, pipeline, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where an unquoted command would leave files
    source = tmp_path / "my clip;touch stray.y4m"
    source.write_bytes(Path(pipeline["clips"][0]).read_bytes())
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    argv = sweep_args(pipeline, tmp_path, out, template)
    argv[argv.index("--input") + 1] = str(source)
    assert main(argv) == EXIT_OK
    assert {r.video_id for r in dataset.parse_encode_log(out)} == {"my clip;touch stray"}
    work = Path(str(out) + ".work")
    assert (work / "my clip;touch stray_64x36_crf18.out").read_text() == "encoded"
    assert len(list(work.iterdir())) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        source.name, "calls.txt", "fake_encoder.py", out.name, work.name,
        out.name + ".runconfig.json",
    ])


def test_sweep_failures_recorded_and_resumable(tmp_path, pipeline, capsys):
    template, counter = write_fake_encoder(tmp_path, fail_crf=19)
    out = tmp_path / "log.csv"
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_TOOL
    failures = Path(str(out) + ".failures.txt").read_text()
    assert "crf 19" in failures
    assert "simulated encoder crash" in failures
    records = dataset.parse_encode_log(out)
    assert len(records) == 4  # crf 19 failed at both resolutions

    template_ok, _ = write_fake_encoder(tmp_path)
    assert main(sweep_args(pipeline, tmp_path, out, template_ok)) == EXIT_OK
    assert len(dataset.parse_encode_log(out)) == 6
    assert not Path(str(out) + ".failures.txt").exists()


def test_sweep_journal_is_in_grid_order_for_any_finish_order(tmp_path, pipeline):
    template, _ = write_fake_encoder(tmp_path, slow=True)
    logs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        argv = sweep_args(pipeline, tmp_path, out, template)
        argv[argv.index("--workers") + 1] = "3"
        assert main(argv) == EXIT_OK
        logs.append(out)
    # canonical order: larger resolutions first, then ascending crf
    canonical = [(w, h, crf) for w, h in ((64, 36), (32, 18)) for crf in (18, 19, 20)]
    assert [(r.width, r.height, r.crf) for r in dataset.parse_encode_log(logs[0])] == canonical
    assert logs[0].read_bytes() == logs[1].read_bytes()


def _wait_for(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs os.killpg")
def test_a_killed_sweep_resumes_from_its_log(tmp_path, pipeline):
    template, counter = write_fake_encoder(tmp_path, stall_at=4)
    out = tmp_path / "log.csv"
    argv = sweep_args(pipeline, tmp_path, out, template)
    argv[argv.index("--workers") + 1] = "1"
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from ladderforge.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)

    def logged():
        return out.exists() and len(dataset.parse_encode_log(out)) == 3

    try:
        _wait_for((tmp_path / "stalled").exists, 60)  # the 4th encode is running
        _wait_for(logged, 10)  # and the 3rd cell is logged, or never will be
    finally:
        os.killpg(child.pid, signal.SIGKILL)  # the sweep and its sleeping encoder
        child.wait(timeout=30)
    assert (tmp_path / "stalled").exists()
    cells = [(r.width, r.height, r.crf) for r in dataset.parse_encode_log(out)]
    assert cells == [(64, 36, 18), (64, 36, 19), (64, 36, 20)]

    calls = len(counter.read_text().splitlines())
    assert main(argv) == EXIT_OK
    assert len(counter.read_text().splitlines()) == calls + 3
    whole = tmp_path / "whole.csv"
    assert main(sweep_args(pipeline, tmp_path, whole, template)) == EXIT_OK
    assert out.read_bytes() == whole.read_bytes()


TEMPLATE_DEFECTS = {  # a good template -> a bad one, and the error it gives
    "missing-crf": (lambda t: t.replace("{crf}", "18"), "missing {crf} placeholder"),
    "positional": (lambda t: t + " {0}", "encoder template is not formattable"),
    "unclosed": (lambda t: t + " {bad", "encoder template is not formattable"),
    "absent": (lambda t: None, "no encoder template configured"),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("defect", TEMPLATE_DEFECTS)
def test_sweep_template_rule_runs_nothing(tmp_path, pipeline, capsys, source, defect):
    good, counter = write_fake_encoder(tmp_path)
    edit, message = TEMPLATE_DEFECTS[defect]
    template = edit(good)
    out = tmp_path / "log.csv"
    argv = sweep_args(pipeline, tmp_path, out, good)
    at = argv.index("--template")
    del argv[at:at + 2]
    if source == "flag" and template is not None:
        argv += ["--template", template]
    if source == "config":
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"encoder_template": template}))
        argv += ["--config", str(conf)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert counter.read_text() == ""
    assert not out.exists()


def test_sweep_template_validated_before_running(tmp_path, pipeline, capsys):
    _, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    bad = "encode {input} {width} {height} {output}"  # no {crf}
    assert main(sweep_args(pipeline, tmp_path, out, bad)) == EXIT_DATA
    assert "{crf}" in capsys.readouterr().err
    assert counter.read_text() == ""
    assert not out.exists()


def test_sweep_requires_template(tmp_path, pipeline, capsys):
    out = tmp_path / "log.csv"
    code = main([
        "encode-sweep", "--input", str(pipeline["clips"][0]), "--out", str(out),
    ])
    assert code == EXIT_DATA
    assert "template" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,default_suffix", [
    ("encode-sweep", "--work-dir", ".work"),
])
def test_output_path_flag_replaces_the_default_path(tmp_path, pipeline, command, flag,
                                                    default_suffix):
    out, given = tmp_path / "out.csv", tmp_path / "given"
    argv = sweep_args(pipeline, tmp_path, out, write_fake_encoder(tmp_path)[0])
    assert main([*argv, flag, str(given)]) == EXIT_OK
    assert given.exists()
    assert not Path(str(out) + default_suffix).exists()


def _default_run_argv(command, out, pipeline, ladders, tmp_path):
    pred = str(ladders[1]["v3"]["pred"])
    return {
        "extract": lambda: ["extract", str(pipeline["clips"][0]), "--out", str(out)],
        "train": lambda: ["train", "--features", str(pipeline["features"]),
                          "--encode-log", str(pipeline["log"]), "--approach", "1",
                          "--n-trees", "2", "--out", str(out)],
        "ladder": lambda: ladder_args(pipeline, out),
        "compare": lambda: ["compare", "--test", pred, "--anchor", pred, "--out", str(out)],
        "plot": lambda: ["plot", "--ladders", pred, "--out", str(out)],
        "encode-sweep": lambda: sweep_args(pipeline, tmp_path, out, write_fake_encoder(tmp_path)[0]),
    }[command]()


@pytest.mark.parametrize("command,out_name,beside,removed_flag", [
    ("extract", "out.csv", ["out.csv.runconfig.json"], None),
    ("train", "out.csv",
     ["out.csv.metrics.json", "out.csv.runconfig.json", "out.csv.split.json"], "--metrics"),
    ("ladder", "out.csv", ["out.csv.runconfig.json", "out.csv.summary.txt"], "--summary"),
    ("compare", "out.csv", ["out.csv.aggregate.json", "out.csv.runconfig.json"], "--aggregate-out"),
    ("plot", "out.svg", ["out.csv", "out.svg.runconfig.json"], None),
    ("encode-sweep", "out.csv",
     ["out.csv.runconfig.json", "out.csv.work"], None),
], ids=["extract", "train", "ladder", "compare", "plot", "encode-sweep"])
def test_default_run_leaves_fixed_suffix_files_beside_out(tmp_path, pipeline, ladders, capsys,
                                                          command, out_name, beside, removed_flag):
    run = tmp_path / "run"
    run.mkdir()
    out = run / out_name
    argv = _default_run_argv(command, out, pipeline, ladders, tmp_path)
    if removed_flag is not None:
        assert main([*argv, removed_flag, str(run / "given")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(run.iterdir()) == []
    assert main(argv) == EXIT_OK
    assert sorted(path.name for path in run.iterdir()) == sorted([out_name, *beside])
    sidecar = json.loads(Path(str(out) + ".runconfig.json").read_text())
    assert list(sidecar)[:4] == ["command", "version", "config", "warnings"]
    assert (sidecar["command"], sidecar["version"]) == (command, __version__)
