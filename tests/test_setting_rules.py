"""Each setting rule, applied by every way a value can arrive.

One table per rule: a bad value gets the same message from a config file
(after the file's path), from a command-line flag and from each library
entry point that takes the setting. The config file is checked on its own,
under the default approach 8, whose d is 20 columns.
"""

import json
import math

import numpy as np
import pytest

from ladderforge import gsm_vif, ladder, regressor
from ladderforge.cli import EXIT_DATA, main
from ladderforge.errors import SchemaError
from ladderforge.feature_assembly import column_names

from test_feature_assembly import make_tensor

D = len(column_names(8))

FOREST_CASES = {
    "n_trees-0": ({"n_trees": 0}, "n_trees must be >= 1, got 0"),
    "min_samples_leaf-0": ({"min_samples_leaf": 0}, "min_samples_leaf must be >= 1, got 0"),
    "k_features-0": ({"k_features": 0}, f"k_features must be in [1, {D}], got 0"),
    "k_features-past-d": ({"k_features": D + 1}, f"k_features must be in [1, {D}], got {D + 1}"),
    "seed-negative": ({"seed": -1}, "seed must be >= 0, got -1"),
    "approach-10": ({"approach": 10}, "approach must be 1..9, got 10"),
}
FOREST_FLAGS = {"n_trees": "--n-trees", "min_samples_leaf": "--min-samples-leaf",
                "k_features": "--k-features", "seed": "--seed", "approach": "--approach"}


def exits_2_with(capsys, argv, message):
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {message}\n"


def config_file(tmp_path, payload):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def approach_8_model(tmp_path_factory):
    rng = np.random.default_rng(4)
    model = regressor.train(rng.random((12, D)), rng.random(12), 8, n_trees=2, seed=5)
    path = tmp_path_factory.mktemp("model") / "a8.model"
    regressor.save_model(model, path)
    return model, path.read_text()


@pytest.mark.parametrize("case", FOREST_CASES)
def test_forest_setting_rule(tmp_path, capsys, approach_8_model, case):
    setting, message = FOREST_CASES[case]
    (key, value), = setting.items()
    train = ["train", "--features", str(tmp_path / "f.csv"),
             "--encode-log", str(tmp_path / "log.csv"), "--out", str(tmp_path / "m.model")]
    path = config_file(tmp_path, setting)
    exits_2_with(capsys, train + ["--config", str(path)], f"{path}: {message}")
    exits_2_with(capsys, train + [FOREST_FLAGS[key], str(value)], message)
    assert not (tmp_path / "m.model").exists()

    rng = np.random.default_rng(0)
    X, y = rng.random((6, D)), rng.random(6)
    settings = {"n_trees": 1, "min_samples_leaf": 1, "k_features": None, "seed": 0} | setting
    approach = settings.pop("approach", 8)
    with pytest.raises(SchemaError) as raised:
        regressor.train(X, y, approach, **settings)
    assert str(raised.value) == message

    _, text = approach_8_model
    header = {"n_trees": "n_trees 2", "min_samples_leaf": "min_samples_leaf 1",
              "k_features": "k_features 7", "seed": "seed 5", "approach": "approach 8"}[key]
    model = tmp_path / "header.model"
    model.write_text(text.replace(f"\n{header}\n", f"\n{key} {value}\n", 1))
    with pytest.raises(SchemaError) as raised:
        regressor.load_model(model)
    assert str(raised.value) == f"{model}: {message}"


NOISE_CASES = [0.0, -1.0, math.inf, math.nan]


@pytest.mark.parametrize("noise_var", NOISE_CASES, ids=str)
def test_noise_floor_rule(tmp_path, capsys, noise_var):
    message = f"sigma_n2 must be finite and > 0, got {noise_var}"
    extract = ["extract", str(tmp_path / "in.y4m"), "--out", str(tmp_path / "f.csv")]
    path = config_file(tmp_path, {"sigma_n2": noise_var})
    if math.isfinite(noise_var):
        exits_2_with(capsys, extract + ["--config", str(path)], f"{path}: {message}")
    else:  # a config file cannot hold the value: its JSON reader rejects it first
        assert main(extract + ["--config", str(path)]) == EXIT_DATA
        assert "is not a finite number" in capsys.readouterr().err
    exits_2_with(capsys, extract + ["--sigma-n2", str(noise_var)], message)
    assert not (tmp_path / "f.csv").exists()

    for call in (lambda: gsm_vif.frame_vif_features(np.zeros((16, 16)), noise_var),
                 lambda: gsm_vif.subband_information(np.ones(3), np.ones(9), noise_var)):
        with pytest.raises(SchemaError) as raised:
            call()
        assert str(raised.value) == message


RESOLUTION_CASES = {
    "empty": ([], "resolution list is empty", None),
    "odd-width": ([[641, 360]], "resolutions need positive even dims, got 641x360", "641x360"),
}


@pytest.mark.parametrize("case", RESOLUTION_CASES)
def test_resolution_list_rule(tmp_path, capsys, approach_8_model, case):
    resolutions, message, flag = RESOLUTION_CASES[case]
    ladder_argv = ["ladder", "--model", "m", "--features", "f", "--video", "v",
                   "--encode-log", "log", "--out", str(tmp_path / "ladder.csv")]
    path = config_file(tmp_path, {"resolutions": resolutions})
    exits_2_with(capsys, ladder_argv + ["--config", str(path)], f"{path}: {message}")
    if flag is not None:  # the flag's WxH list cannot spell an empty list
        exits_2_with(capsys, ladder_argv + ["--resolutions", flag], message)
    fixed = config_file(tmp_path, {"fixed_ladder": [
        {"bitrate_bps": 1e6, "width": w, "height": h} for w, h in resolutions]})
    if resolutions:  # an empty fixed ladder is an empty rung list first
        exits_2_with(capsys, ladder_argv + ["--config", str(fixed)],
                     f"{fixed}: fixed_ladder: {message}")

    model, _ = approach_8_model
    with pytest.raises(SchemaError) as raised:
        ladder.predict_quality_grid(model, make_tensor(), resolutions, [1e6])
    assert str(raised.value) == message
