"""Ladder, summary, report and aggregate bytes of a seeded run pinned as sha256 digests.

The digests were computed once, with an earlier version of the package.
Other tests check single values and that a run repeats within one
version; these catch any change to the evaluation path (rung
realization, the ladder CSV and summary, the PCHIP integral and the BD
deltas) that moves output bytes across versions. A change to the PCHIP
slope rule or to how a rung picks its logged point is expected to change
them, and must say so when it re-pins them.
"""

import hashlib
import json

from ladderforge.cli import EXIT_OK, main

from test_frozen_model import write_corpus

VIDEO = "clip03"
LADDER_HEADER = "rung_bps,width,height,crf,realized_bps,vmaf\n"

FROZEN_LADDER = {
    "predicted.csv": "d4749d93c04cd82e4ec6e4dd2632bb1bc5af21d4b88d8b7539f84fd14e6c103f",
    "reference.csv": "1cf031fd810fbb97fdb6c132a7884917b5958f90831fc3fcd6ac073e8be3c6b7",
    "fixed.csv": "7523723f90e77c537bd143de7b97d09ed9ef07872c5d16245935b801a4094739",
    "predicted.csv.summary.txt": "70b1400553b5bfc8227fd9e00e80a34a421b22916e06429c07c9f84edd08cc30",
}
FROZEN_COMPARE = {
    "report.csv": "96d475bad490e1b3c9956d16a4dbe4032c2b614caf18193aa163abc07fae1b56",
    "report.csv.aggregate.json": "66c5bede6914875aa42bb3505ffd98f271c47e9ba67b569a55b79da3f8ede86e",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_ladders(root):
    """Predicted, reference and fixed ladders of one clip, from a seeded 6-tree model."""
    write_corpus(root)
    features, log = str(root / "features.csv"), str(root / "encodes.csv")
    assert main(["train", "--features", features, "--encode-log", log, "--approach", "8",
                 "--n-trees", "6", "--seed", "5", "--out", str(root / "model.txt")]) == EXIT_OK
    # an inverted table, so the fixed ladder is not monotone
    (root / "config.json").write_text(json.dumps({"fixed_ladder": [
        {"bitrate_bps": bps, "width": w, "height": h}
        for bps, (w, h) in ((5e5, (1280, 720)), (1e6, (1280, 720)), (2e6, (640, 360)),
                            (4e6, (640, 360)), (8e6, (640, 360)))
    ]}))
    assert main(["ladder", "--model", str(root / "model.txt"), "--features", features,
                 "--video", VIDEO, "--encode-log", log, "--config", str(root / "config.json"),
                 "--rungs", "0.5,1,2,4,8", "--resolutions", "1280x720,640x360",
                 "--out", str(root / "predicted.csv"),
                 "--reference-out", str(root / "reference.csv"),
                 "--fixed-out", str(root / "fixed.csv")]) == EXIT_OK


def test_seeded_ladder_run_matches_frozen_digests(tmp_path):
    write_ladders(tmp_path)
    assert {name: digest(tmp_path / name) for name in FROZEN_LADDER} == FROZEN_LADDER


def test_seeded_batch_compare_matches_frozen_digests(tmp_path):
    write_ladders(tmp_path)
    # a seven-knot curve whose neighbouring secants differ up to 19-fold, one
    # inside a sliver of the reference's span, and one with a single Pareto point
    dense = zip((0.5, 0.6, 0.9, 1.5, 2.5, 4.0, 7.0), (0.55, 0.7, 1.0, 1.6, 5.0, 6.0, 12.0),
                (60.0, 66.0, 66.5, 79.0, 85.0, 85.5, 95.0))
    (tmp_path / "dense.csv").write_text(LADDER_HEADER + "".join(
        f"{rung * 1e6!r},1280,720,30,{bps * 1e6!r},{vmaf!r}\n" for rung, bps, vmaf in dense))
    (tmp_path / "narrow.csv").write_text(
        LADDER_HEADER + "1000000.0,640,360,30,3000000.0,80.0\n2000000.0,640,360,28,3300000.0,81.0\n")
    (tmp_path / "flat.csv").write_text(
        LADDER_HEADER + "1000000.0,640,360,30,1000000.0,60.0\n2000000.0,640,360,28,2000000.0,60.0\n")
    pairs = [("predicted", "reference"), ("predicted", "fixed"), ("reference", "fixed"),
             ("fixed", "predicted"), ("dense", "predicted"), ("reference", "dense"),
             ("reference", "narrow"), ("flat", "reference")]
    (tmp_path / "batch.csv").write_text("video_id,test,anchor\n" + "".join(
        f"{VIDEO},{test}.csv,{anchor}.csv\n" for test, anchor in pairs))
    assert main(["compare", "--batch", str(tmp_path / "batch.csv"), "--pair", "frozen",
                 "--out", str(tmp_path / "report.csv")]) == EXIT_OK
    # reference against the inverted fixed ladder shares no quality interval
    # and the flat ladder keeps one point: two warning rows; the narrow pair
    # gets one note per axis
    report = (tmp_path / "report.csv").read_text()
    assert report.count("share no quality interval") == 1
    assert report.count("dominance pruning") == 1
    assert report.count("overlap covers") == 2
    assert {name: digest(tmp_path / name) for name in FROZEN_COMPARE} == FROZEN_COMPARE
