"""Tests for the benchmark's own checks and inputs.

    python3 -m pytest perfbench -q

Each check is run on a genuine small output of the program, where it must
pass, and on a copy broken in one place, where it must fail.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from ladderforge import cli, gsm_vif, regressor  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return inputs.write_corpus(tmp_path_factory.mktemp("corpus"), seed=3, n_titles=8)


@pytest.fixture(scope="module")
def model(corpus):
    out = corpus.features.parent / "model.txt"
    assert cli.main([str(a) for a in workloads.train_argv(corpus, 8, 2, out)]) == 0
    return out


def test_inputs_repeat_for_a_seed(tmp_path):
    a = inputs.procedural_clip(tmp_path / "a.y4m", 5, (64, 48), 3, bit_depth=10)
    b = inputs.procedural_clip(tmp_path / "b.y4m", 5, (64, 48), 3, bit_depth=10)
    assert a.path.read_bytes() == b.path.read_bytes() and a.motion == b.motion
    one = inputs.write_corpus(tmp_path / "one", 9, 4)
    two = inputs.write_corpus(tmp_path / "two", 9, 4)
    for name in ("features", "encode_log", "split", "config"):
        assert getattr(one, name).read_bytes() == getattr(two, name).read_bytes()


def test_feature_checks_pass_then_catch_a_broken_band_total(tmp_path):
    clip = inputs.procedural_clip(tmp_path / "c.y4m", 1, (64, 48), 3)
    out = tmp_path / "f.csv"
    assert cli.main(["extract", str(clip.path), "--out", str(out)]) == 0
    rows = checks.read_csv(out)
    checks.features_match_clips(rows, [clip])

    broken = copy.deepcopy(rows)
    broken[0]["frame_info_s2_b1"] = repr(float(broken[0]["frame_info_s2_b1"]) + 1e-6)
    with pytest.raises(checks.CheckFailed, match="eigenchannels sum"):
        checks.features_match_clips(broken, [clip])

    broken = copy.deepcopy(rows)
    broken[0]["motion_mean_abs"] = repr(float(broken[0]["motion_mean_abs"]) * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="motion"):
        checks.features_match_clips(broken, [clip])


def test_reference_route_agrees_with_the_package():
    for depth, size in ((8, (96, 64)), (10, (80, 48))):
        plane = inputs.clip_plane(4, size, 2, depth, 1)
        peak = float((1 << depth) - 1)
        want = reference.frame_features(plane, peak)
        got = gsm_vif.frame_vif_features(plane / peak).flatten()
        row = dict(zip(inputs.feature_columns(), got), video_id="p")
        checks.features_agree(row, want, reference.RTOL)
        row["frame_info_s3_b2_e4"] *= 1 + 1e-5
        with pytest.raises(checks.CheckFailed, match="reference"):
            checks.features_agree(row, want, reference.RTOL)


def test_model_check_catches_a_prediction_off_its_target(corpus, model):
    loaded = regressor.load_model(model)
    X, y = workloads.training_rows(corpus, loaded.columns)
    predictions = regressor.predict_batch(loaded, X)
    checks.model_interpolates(predictions, y)
    predictions[17] += 1e-9
    with pytest.raises(checks.CheckFailed, match="training row 17"):
        checks.model_interpolates(predictions, y)


def _ladder(corpus, model, tmp_path, title):
    out = tmp_path / "predicted.csv"
    assert cli.main([
        "ladder", "--model", str(model), "--features", str(corpus.features),
        "--video", title, "--encode-log", str(corpus.encode_log),
        "--config", str(corpus.config), "--resolutions", inputs.resolutions_flag(),
        "--out", str(out), "--reference-out", str(tmp_path / "reference.csv"),
    ]) == 0
    return checks.read_csv(out), checks.read_csv(tmp_path / "reference.csv")


def test_ladder_check_catches_a_non_monotone_ladder(corpus, model, tmp_path):
    title = corpus.titles[0]
    predicted, _ = _ladder(corpus, model, tmp_path, title)
    points = corpus.log_rows[title]
    checks.ladder_realized(predicted, points, inputs.RUNG_BPS)

    # put the top rung's point at the bottom rung: realized, but not monotone
    broken = copy.deepcopy(predicted)
    top = broken[-1]
    broken[0].update({k: top[k] for k in ("width", "height")})
    assert broken[0]["width"] != predicted[0]["width"], "needs a ladder that climbs"
    w, h = int(top["width"]), int(top["height"])
    crf, bitrate, vmaf = checks.closest_point(
        [p for p in points if (p[0], p[1]) == (w, h)], inputs.RUNG_BPS[0])[2:]
    broken[0].update(crf=str(crf), realized_bps=repr(bitrate), vmaf=repr(vmaf))
    with pytest.raises(checks.CheckFailed, match="fewer pixels"):
        checks.ladder_realized(broken, points, inputs.RUNG_BPS)

    # a rung snapped to a point other than the closest one
    broken = copy.deepcopy(predicted)
    broken[3]["realized_bps"] = repr(float(broken[3]["realized_bps"]) * 1.5)
    with pytest.raises(checks.CheckFailed, match="closest"):
        checks.ladder_realized(broken, points, inputs.RUNG_BPS)


def test_bd_report_check(corpus, model, tmp_path):
    title = corpus.titles[1]
    _ladder(corpus, model, tmp_path, title)
    listing = tmp_path / "batch.csv"
    listing.write_text(
        "video_id,test,anchor\n"
        f"{title},predicted.csv,predicted.csv\n{title},predicted.csv,reference.csv\n"
        f"{title},reference.csv,predicted.csv\n{title},predicted.csv,reference.csv\n")
    report = tmp_path / "report.csv"
    assert cli.main(["compare", "--batch", str(listing), "--out", str(report)]) == 0
    rows = checks.read_csv(report)
    rows[3]["bd_rate_percent"] = "-5.0"   # stands in for the inverted table
    checks.bd_report(rows, [title])

    for index, value, match in ((0, "0.001", "against itself"),
                                (2, "3.0", "swapped"),
                                (3, "0.5", "inverted")):
        broken = copy.deepcopy(rows)
        broken[index]["bd_rate_percent"] = value
        with pytest.raises(checks.CheckFailed, match=match):
            checks.bd_report(broken, [title])


def test_corpus_training_rows_are_distinct(corpus, model):
    # the interpolation check needs every training row to be unique
    X, _ = workloads.training_rows(corpus, regressor.load_model(model).columns)
    assert len(np.unique(X, axis=0)) == len(X)
