"""The README's pipeline walkthrough, run command by command.

Every ``ladderforge ...`` line of the walkthrough's shell blocks runs
through ``main`` in a directory holding the inputs those commands name:
two clips, an encode log, a split, a batch listing, two ladders and an
``encode.sh`` stub encoder on PATH.
"""

import csv
import math
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from ladderforge import dataset
from ladderforge.cli import EXIT_OK, main
from ladderforge.ioutil import csv_text
from ladderforge.ladder import LADDER_COLUMNS

from helpers import random_plane, write_y4m

STUB_ENCODER = """#!{python}
import math, sys
_, source, width, height, crf, output = sys.argv
pixels = int(width) * int(height)
bitrate = 0.35e6 * pixels / (960 * 540) * 2.0 ** ((42 - int(crf)) / 6.0)
vmaf = 30.0 + 9.0 * math.log2(bitrate / 1e6) + 6.0 * pixels / (1920 * 1080)
print(f"bitrate_bps={{bitrate!r}}")
print(f"vmaf={{max(0.0, min(100.0, vmaf))!r}}")
"""


def walkthrough_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Pipeline walkthrough"):readme.index("## CSV files")]
    commands = []
    for block in section.split("```sh\n")[1:]:
        text = block[:block.index("```")].replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in text.splitlines()
                     if line.startswith("ladderforge ")]
    return commands


def encode_records(video_id, offset):
    records = []
    for width, height in ((1920, 1080), (1280, 720), (960, 540)):
        base = 0.35e6 * width * height / (960 * 540)
        for crf in range(18, 30):
            bitrate = base * 2.0 ** ((29 - crf) / 4.0)
            vmaf = 38.0 + 9.0 * math.log2(bitrate / 1e6) + 6.0 * width * height / (1920 * 1080)
            records.append(dataset.EncodeRecord(
                video_id, width, height, crf, bitrate, max(0.0, min(100.0, vmaf + offset))))
    return records


def ladder_text(vmaf_shift):
    rows = [[rung, w, h, crf, realized, vmaf + vmaf_shift] for rung, w, h, crf, realized, vmaf in (
        (500000.0, 640, 360, 24, 480000.0, 61.0),
        (1000000.0, 960, 540, 22, 1010000.0, 70.5),
        (2000000.0, 1280, 720, 22, 1900000.0, 82.25),
    )]
    return csv_text(LADDER_COLUMNS, rows)


def test_walkthrough_runs(tmp_path, monkeypatch):
    commands = walkthrough_commands()
    assert [argv[0] for argv in commands] == [
        "extract", "train", "ladder", "compare", "compare", "plot", "plot", "encode-sweep"]

    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        write_y4m(tmp_path / f"{name}.y4m", [random_plane(rng, 32, 32) for _ in range(3)])
    log = dataset.encode_log_text(encode_records("a", 0.0) + encode_records("b", 2.0))
    (tmp_path / "encodes.csv").write_text(log)
    dataset.save_split(dataset.SplitManifest(0, ("a", "b"), (), ()), tmp_path / "split.json")
    (tmp_path / "pairs.csv").write_text("video_id,test,anchor\na,ladder.csv,reference.csv\n")
    (tmp_path / "a.csv").write_text(ladder_text(0.0))
    (tmp_path / "b.csv").write_text(ladder_text(-3.0))
    encoder = tmp_path / "encode.sh"
    encoder.write_text(STUB_ENCODER.format(python=sys.executable))
    encoder.chmod(0o755)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.delenv("LADDERFORGE_CONFIG", raising=False)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv

    for name in ("features.csv", "model.txt", "model.txt.metrics.json", "ladder.csv",
                 "ladder.csv.summary.txt", "reference.csv", "report.csv",
                 "report.csv.aggregate.json", "hist.svg", "hist.csv", "hulls.svg", "hulls.csv"):
        assert (tmp_path / name).is_file(), name
    with open(tmp_path / "report.csv", newline="") as fh:
        (report,) = csv.DictReader(fh)
    assert report["video_id"] == "a" and report["bd_rate_percent"]
    sweep = dataset.parse_encode_log(tmp_path / "sweep.csv")
    assert len(sweep) == 2 * 25
    assert {r.video_id for r in sweep} == {"a"}
    assert (tmp_path / "encodes.csv").read_text() == log  # the log train and ladder read
