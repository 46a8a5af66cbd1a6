"""The four workloads: what each sets up, what one timed round runs, and
how its outputs are checked.

A round is a fixed list of ``ladderforge.cli.main`` calls, the way a user
invokes the commands, so every round of a workload does the same work.
"""

from __future__ import annotations

import csv
import math
import shutil
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
from ladderforge import cli, regressor

HD_FRAMES = 6          # one 1080p clip: per-pixel layers dominate
SD_CLIPS = 6           # many short clips: fixed per-plane costs dominate
SD_FRAMES = 3
CORPUS_TITLES = 24
# approach -> trees per call; growth cost varies from tree to tree, so a
# round grows enough trees for the seeds to cost about the same
TRAIN_TREES = {8: 16, 9: 6}
LADDER_TREES = 100     # the program's default n_trees


class Workload:
    name = ""
    unit = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.failed = 0
        self.attempted = 0

    def call(self, argv: list[str]) -> None:
        self.attempted += 1
        if cli.main([str(a) for a in argv]) != 0:
            self.failed += 1

    def prepare(self) -> None:
        """Work done once per run, before the set-ups; it counts in setup_s."""

    def setup(self) -> None:
        """Generate the inputs into a clean directory and warm up."""
        raise NotImplementedError

    def round(self) -> float:
        """Run the timed operations; return the units of work done."""
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """The files a round writes."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove the outputs of the previous round, so that the checks
        only ever read what the last round wrote."""
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def check(self) -> None:
        """Raise checks.CheckFailed if the last round's outputs are wrong."""
        raise NotImplementedError

    def fresh(self) -> Path:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        return self.work


# --- extract ----------------------------------------------------------------------

class _Extract(Workload):
    unit = "source frame"

    def clip_specs(self):
        """(name, seed, size, frames, bit depth) of each clip in the call."""
        raise NotImplementedError

    def setup(self):
        work = self.fresh()
        specs = self.clip_specs()
        self.clips = [inputs.procedural_clip(work / f"{name}.y4m", seed, size, frames, depth)
                      for name, seed, size, frames, depth in specs]
        # one plane per run goes through the independent reference; its
        # single-frame extract doubles as the warm-up
        name, seed, size, frames, depth = specs[self.seed % len(specs)]
        self.check_plane = inputs.clip_plane(seed, size, frames, depth, self.seed % frames)
        self.check_clip = inputs.write_clip(work / "check.y4m", [self.check_plane], depth)
        self.call(["extract", self.check_clip.path, "--out", work / "check.csv"])

    def round(self):
        self.call(["extract", *(c.path for c in self.clips), "--out", self.work / "features.csv"])
        return sum(c.frames for c in self.clips)

    def outputs(self):
        return [self.work / "features.csv"]

    def check(self):
        checks.features_match_clips(checks.read_csv(self.work / "features.csv"), self.clips)
        (row,) = checks.read_csv(self.work / "check.csv")
        checks.features_match_clips([row], [self.check_clip])
        peak = float((1 << self.check_clip.bit_depth) - 1)
        want = reference.frame_features(self.check_plane, peak)
        checks.features_agree(row, want, reference.RTOL)


class Extract1080p(_Extract):
    name = "extract-1080p"

    def clip_specs(self):
        return [("hd", self.seed, inputs.HD, HD_FRAMES, 8)]


class Extract360p(_Extract):
    name = "extract-360p"

    def clip_specs(self):
        # every third clip is 10-bit
        return [(f"sd{i:02d}", self.seed * 100 + i, inputs.SD, SD_FRAMES, 10 if i % 3 == 2 else 8)
                for i in range(SD_CLIPS)]


# --- train and ladder ---------------------------------------------------------------

def training_rows(corpus: inputs.Corpus, columns):
    """(X, y) of the train split, assembled here from the model's column names."""
    X, y = [], []
    for title in corpus.train_titles:
        feats = corpus.feature_rows[title]
        for width, height, _crf, bitrate, vmaf in corpus.log_rows[title]:
            meta = {"log2_bitrate": math.log2(bitrate), "width_scaled": width / 3840.0,
                    "height_scaled": height / 3840.0}
            X.append([meta[c] if c in meta else feats[c] for c in columns])
            y.append(vmaf / 100.0)
    return np.array(X), np.array(y)


def check_model(path: Path, corpus: inputs.Corpus) -> None:
    """The model reloads and returns every training target exactly."""
    model = regressor.load_model(path)
    X, y = training_rows(corpus, model.columns)
    checks.model_interpolates(regressor.predict_batch(model, X), y)


def train_argv(corpus: inputs.Corpus, approach: int, trees: int, out: Path) -> list:
    return ["train", "--features", corpus.features, "--encode-log", corpus.encode_log,
            "--split", corpus.split, "--approach", approach, "--n-trees", trees,
            "--seed", 7, "--out", out]


class TrainCorpus(Workload):
    name = "train-corpus"
    unit = "1k training rows x one tree"

    def setup(self):
        work = self.fresh()
        self.corpus = inputs.write_corpus(work, self.seed, CORPUS_TITLES)
        for approach in TRAIN_TREES:
            self.call(train_argv(self.corpus, approach, 1, work / "warm.txt"))

    def round(self):
        for approach, trees in TRAIN_TREES.items():
            self.call(train_argv(self.corpus, approach, trees, self.work / f"model_a{approach}.txt"))
        rows = sum(len(self.corpus.log_rows[t]) for t in self.corpus.train_titles)
        return rows * sum(TRAIN_TREES.values()) / 1000.0

    def outputs(self):
        return [self.work / f"model_a{approach}.txt" for approach in TRAIN_TREES]

    def check(self):
        for path in self.outputs():
            check_model(path, self.corpus)


class LadderCorpus(Workload):
    name = "ladder-corpus"
    unit = "title"

    def prepare(self):
        # The default model takes far longer to grow than the rest of a
        # set-up, so it is grown once per run and each set-up writes the
        # same bytes into its fresh directory.
        work = self.fresh()
        corpus = inputs.write_corpus(work, self.seed, CORPUS_TITLES)
        self.call(train_argv(corpus, 8, LADDER_TREES, work / "model.txt"))
        self.model_text = (work / "model.txt").read_bytes()

    def setup(self):
        work = self.fresh()
        self.corpus = corpus = inputs.write_corpus(work, self.seed, CORPUS_TITLES)
        # ladders are built for the titles the model was not trained on
        self.titles = [t for t in corpus.titles if t not in corpus.train_titles]
        self.model = work / "model.txt"
        self.model.write_bytes(self.model_text)
        inverted = inputs.FIXED_TABLE[::-1]
        with open(work / "batch.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["video_id", "test", "anchor"])
            for title in self.titles:
                self.write_ladder(work / f"{title}.inverted.csv", title, inverted)
                pred, ref = f"{title}.predicted.csv", f"{title}.reference.csv"
                writer.writerows([(title, pred, pred), (title, pred, ref), (title, ref, pred),
                                  (title, pred, f"{title}.inverted.csv")])
        self.ladder(self.titles[0])

    def write_ladder(self, path: Path, title: str, table) -> None:
        """Realize a rung -> resolution table against the title's log points."""
        points = self.corpus.log_rows[title]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rung_bps", "width", "height", "crf", "realized_bps", "vmaf"])
            for bps, (w, h) in zip(inputs.RUNG_BPS, table):
                _, _, crf, bitrate, vmaf = checks.closest_point(
                    [p for p in points if (p[0], p[1]) == (w, h)], bps)
                writer.writerow([repr(bps), w, h, crf, repr(bitrate), repr(vmaf)])

    def ladder(self, title: str) -> None:
        c, w = self.corpus, self.work
        self.call(["ladder", "--model", self.model, "--features", c.features,
                   "--video", title, "--encode-log", c.encode_log, "--config", c.config,
                   "--resolutions", inputs.resolutions_flag(),
                   "--out", w / f"{title}.predicted.csv",
                   "--reference-out", w / f"{title}.reference.csv",
                   "--fixed-out", w / f"{title}.fixed.csv"])

    def round(self):
        for title in self.titles:
            self.ladder(title)
        self.call(["compare", "--batch", self.work / "batch.csv", "--pair", "bench",
                   "--out", self.work / "report.csv"])
        return len(self.titles)

    def outputs(self):
        return [self.work / f"{title}.{kind}.csv" for title in self.titles
                for kind in ("predicted", "reference", "fixed")] + [self.work / "report.csv"]

    def check(self):
        check_model(self.model, self.corpus)
        for title in self.titles:
            for kind in ("predicted", "reference", "fixed"):
                rungs = checks.read_csv(self.work / f"{title}.{kind}.csv")
                checks.ladder_realized(rungs, self.corpus.log_rows[title], inputs.RUNG_BPS)
            fixed = checks.read_csv(self.work / f"{title}.fixed.csv")
            if [(int(r["width"]), int(r["height"])) for r in fixed] != list(inputs.FIXED_TABLE):
                raise checks.CheckFailed(f"{title}: fixed ladder ignores the configured table")
        checks.bd_report(checks.read_csv(self.work / "report.csv"), self.titles)


WORKLOADS = {w.name: w for w in (Extract1080p, Extract360p, TrainCorpus, LadderCorpus)}
