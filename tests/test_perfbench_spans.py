"""Every span perfbench times is reached by the command that owns it.

perfbench/layers.py wraps package functions by module attribute. A span
whose function is renamed, or no longer called through the wrapped
attribute, reads 0 in every traced run without failing anything; so the
small train, ladder and compare runs here go through ``main`` under the
tracer, and every span they own must be called.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ladderforge.cli import EXIT_OK, main

from test_cli import ladder_args, pipeline  # noqa: F401  (pipeline is a fixture)

ROOT = Path(__file__).resolve().parent.parent
SPANS = ("build_matrix", "save", "load", "predict", "assemble", "parse_features",
         "parse_encode_log", "grid", "realize", "reference", "compare")


def _layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_ladder_and_compare_reach_every_span(tmp_path, pipeline, monkeypatch):
    layers = _layers(monkeypatch)
    model = tmp_path / "model.txt"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"fixed_ladder": [
        {"bitrate_bps": 5e5, "width": 960, "height": 540},
        {"bitrate_bps": 4e6, "width": 1920, "height": 1080},
    ]}))
    with layers.traced(layers.Tracer()) as tracer:
        assert main(["train", "--features", str(pipeline["features"]),
                     "--encode-log", str(pipeline["log"]), "--split", str(pipeline["split"]),
                     "--approach", "1", "--n-trees", "2", "--out", str(model)]) == EXIT_OK
        pred, ref = tmp_path / "pred.csv", tmp_path / "ref.csv"
        argv = ladder_args(pipeline, pred, extra=["--config", str(conf),
                                                  "--reference-out", str(ref),
                                                  "--fixed-out", str(tmp_path / "fixed.csv")])
        argv[argv.index("--model") + 1] = str(model)
        assert main(argv) == EXIT_OK
        batch = tmp_path / "batch.csv"
        batch.write_text(f"video_id,test,anchor\nv3,{pred.name},{ref.name}\n")
        assert main(["compare", "--batch", str(batch), "--out", str(tmp_path / "report.csv")]) \
            == EXIT_OK
    assert {span: tracer.calls[span] for span in SPANS if not tracer.calls[span]} == {}
    assert [label for label in tracer.calls if label.startswith("grow.a")] == ["grow.a1"]
