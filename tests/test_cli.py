import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ladderforge import cli, dataset, ladder
from ladderforge.cli import EXIT_DATA, EXIT_OK, EXIT_TOOL, EXIT_USAGE, main

from helpers import random_plane, write_y4m

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


def synth_records(video_id, video_seed):
    records = []
    for width, height in RESOLUTIONS:
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
    dataset.write_encode_log(records, log)

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
    entries = cli.parse_features_csv(out)
    assert entries["still"].frame_count == 1
    assert not entries["still"].tensor.has_motion


def test_extract_missing_input_no_partial_output(tmp_path, capsys):
    out = tmp_path / "missing.csv"
    assert main(["extract", str(tmp_path / "nope.y4m"), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert "error" in capsys.readouterr().err


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
    assert "overlap" in capsys.readouterr().err


def test_train_rejects_unassigned_video(tmp_path, pipeline, capsys):
    extra = synth_records("v9", 0.0)
    log = tmp_path / "log_extra.csv"
    dataset.write_encode_log(
        dataset.parse_encode_log(pipeline["log"]) + extra, log
    )
    code = main([
        "train", "--features", str(pipeline["features"]), "--encode-log", str(log),
        "--split", str(pipeline["split"]), "--approach", "1",
        "--out", str(tmp_path / "m.txt"),
    ])
    assert code == EXIT_DATA
    assert "v9" in capsys.readouterr().err


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
    assert len(lad.rungs) == 4
    assert lad.is_monotone()
    assert [r.target_bps for r in lad.rungs] == list(RUNG_BPS)
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
    assert fixed.resolutions() == [(960, 540), (1280, 720), (1920, 1080), (1920, 1080)]
    ref = ladder.parse_ladder_csv(ref_out)
    assert ref.is_monotone()
    summary = Path(str(out) + ".summary.txt").read_text()
    assert summary.count("provenance:") == 3


def test_ladder_missing_resolution_sweep(tmp_path, pipeline, capsys):
    # the only candidate resolution has no rows in the encode log, so the
    # winning rung cannot be realized
    records = [r for r in dataset.parse_encode_log(pipeline["log"])
               if (r.width, r.height) != (960, 540)]
    log = tmp_path / "partial.csv"
    dataset.write_encode_log(records, log)
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


def test_ladder_unknown_video(tmp_path, pipeline, capsys):
    out = tmp_path / "l.csv"
    assert main(ladder_args(pipeline, out, video="nope")) == EXIT_DATA
    assert "nope" in capsys.readouterr().err


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
    assert "no quality interval" in capsys.readouterr().err
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][2] == ""
    summary = json.loads(Path(str(out) + ".aggregate.json").read_text())
    assert summary["n_skipped"] == 1


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
{fail_clause}
bitrate = 1000.0 * w_i * 2.0 ** ((30 - crf_i) / 6.0)
vmaf = max(0.0, min(100.0, 90.0 - 2.0 * (crf_i - 18) + w_i / 500.0))
print(f"bitrate_bps={{bitrate}}")
print(f"vmaf={{vmaf}}")
"""


def write_fake_encoder(tmp_path, fail_crf=None):
    counter = tmp_path / "calls.txt"
    counter.write_text("")
    fail_clause = ""
    if fail_crf is not None:
        fail_clause = (
            f"if crf_i == {fail_crf}:\n"
            f"    print('simulated encoder crash', file=sys.stderr)\n"
            f"    sys.exit(1)"
        )
    script = tmp_path / "fake_encoder.py"
    script.write_text(FAKE_ENCODER.format(counter=str(counter), fail_clause=fail_clause))
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

    journal = Path(str(out) + ".journal.csv")
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:4]) + "\n")  # keep header + 3 cells
    out.unlink()

    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    records = dataset.parse_encode_log(out)
    assert len(records) == 6
    total_calls = len(counter.read_text().splitlines())
    assert total_calls == first_calls + 3  # only the missing cells re-ran


def test_sweep_resumes_after_truncated_journal_line(tmp_path, pipeline):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    first_calls = len(counter.read_text().splitlines())

    journal = Path(str(out) + ".journal.csv")
    lines = journal.read_text().splitlines()
    partial = ",".join(lines[4].split(",")[:4]) + ",10"  # a write cut inside the bitrate
    journal.write_text("\n".join(lines[:4]) + "\n" + partial)
    out.unlink()

    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_OK
    assert len(dataset.parse_encode_log(out)) == 6
    assert len(dataset.parse_encode_log(journal)) == 6
    assert len(counter.read_text().splitlines()) == first_calls + 3


def test_sweep_rejects_out_of_range_journal_row(tmp_path, pipeline, capsys):
    template, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    journal = Path(str(out) + ".journal.csv")
    journal.write_text("video_id,width,height,crf,bitrate_bps,vmaf\n"
                       "clip0,64,36,18,inf,80.0\n")
    assert main(sweep_args(pipeline, tmp_path, out, template)) == EXIT_DATA
    assert "bitrate" in capsys.readouterr().err
    assert counter.read_text() == ""


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


def test_sweep_template_validated_before_running(tmp_path, pipeline, capsys):
    _, counter = write_fake_encoder(tmp_path)
    out = tmp_path / "log.csv"
    bad = "encode {input} {width} {height} {output}"  # no {crf}
    assert main(sweep_args(pipeline, tmp_path, out, bad)) == EXIT_DATA
    assert "{crf}" in capsys.readouterr().err
    assert counter.read_text() == ""
    assert not Path(str(out) + ".journal.csv").exists()


def test_sweep_requires_template(tmp_path, pipeline, capsys):
    out = tmp_path / "log.csv"
    code = main([
        "encode-sweep", "--input", str(pipeline["clips"][0]), "--out", str(out),
    ])
    assert code == EXIT_DATA
    assert "template" in capsys.readouterr().err
