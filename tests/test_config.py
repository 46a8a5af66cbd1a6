import json
from dataclasses import fields
from pathlib import Path

import pytest

from ladderforge import config as cfg
from ladderforge.cli import EXIT_DATA, main
from ladderforge.errors import SchemaError
from ladderforge.ladder import DEFAULT_FIXED_LADDER


def test_defaults():
    c = cfg.load_config(env={})
    assert c.sigma_n2 == 2.0
    assert c.approach == 8
    assert len(c.resolutions) == 8
    assert len(c.rung_bitrates_bps) == 12
    assert c.crf_min == 18 and c.crf_max == 50


def test_default_fixed_ladder_is_twelve_rungs_ascending():
    table = DEFAULT_FIXED_LADDER
    assert len(table) == 12
    bps = [b for b, _ in table]
    assert bps == sorted(bps)
    assert table[0] == (250_000.0, (512, 288))
    assert table[-1] == (10_500_000.0, (3840, 2160))
    # resolutions never shrink as the rung bitrate grows
    pixels = [w * h for _, (w, h) in table]
    assert pixels == sorted(pixels)


def test_default_fixed_ladder_is_a_valid_config_value(tmp_path):
    # the rules a config's fixed_ladder key must meet, and its JSON round trip
    c = cfg.validate_config(cfg.RunConfig(fixed_ladder=DEFAULT_FIXED_LADDER))
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(cfg.config_json_dict(c)))
    assert cfg.load_config(path).fixed_ladder == DEFAULT_FIXED_LADDER


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"sigma_n2": 5.0, "approach": 1, "seed": 9}))
    c = cfg.load_config(path)
    assert c.sigma_n2 == 5.0 and c.approach == 1 and c.seed == 9
    assert c.n_trees == 100  # untouched default


def test_env_var_points_at_config(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"n_trees": 7}))
    c = cfg.load_config(env={cfg.ENV_CONFIG: str(path)})
    assert c.n_trees == 7


def test_explicit_path_beats_env(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"n_trees": 3}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"n_trees": 5}))
    c = cfg.load_config(a, env={cfg.ENV_CONFIG: str(b)})
    assert c.n_trees == 3


def test_missing_config_file(tmp_path, capsys):
    # the JSON reader's rule reports a missing file, as it does an unreadable one
    path = tmp_path / "absent.json"
    with pytest.raises(SchemaError, match=rf"^unreadable config {path}: \[Errno 2\] "):
        cfg.load_config(path)
    code = main(["plot", "--ladders", "missing.csv", "--config", str(path),
                 "--out", str(tmp_path / "hulls.svg")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: unreadable config {path}: [Errno 2] ")


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"sigma": 1.0}))
    with pytest.raises(SchemaError, match="sigma"):
        cfg.load_config(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        cfg.load_config(path)


def test_overrides_validate():
    base = cfg.RunConfig()
    c = cfg.apply_overrides(base, approach=3, seed=None)
    assert c.approach == 3 and c.seed == base.seed
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        cfg.apply_overrides(base, approach=10)
    with pytest.raises(SchemaError, match="sigma_n2 must be finite and > 0"):
        cfg.apply_overrides(base, sigma_n2=0.0)
    with pytest.raises(SchemaError):
        cfg.apply_overrides(base, crf_min=40, crf_max=20)
    with pytest.raises(SchemaError):
        cfg.apply_overrides(base, crf_min=10)  # encode logs only accept 18..50
    with pytest.raises(SchemaError):
        cfg.apply_overrides(base, resolutions=((15, 10),))


def test_config_round_trip_through_json(tmp_path):
    base = cfg.apply_overrides(
        cfg.RunConfig(),
        approach=5,
        rung_bitrates_bps=(1e6, 2e6),
        resolutions=((1280, 720), (1920, 1080)),
        fixed_ladder=((1e6, (1280, 720)), (2e6, (1920, 1080))),
        encoder_template="encode {input} {width} {height} {crf} {output}",
    )
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(cfg.config_json_dict(base)))
    assert cfg.load_config(path) == base


def test_fixed_ladder_falls_back_to_default(tmp_path):
    assert cfg.RunConfig().fixed_ladder == DEFAULT_FIXED_LADDER
    assert cfg.config_json_dict(cfg.RunConfig())["fixed_ladder"][0] == {
        "bitrate_bps": 250000.0, "width": 512, "height": 288}
    custom = ((1e6, (1280, 720)), (2e6, (1920, 1080)))
    assert cfg.RunConfig(fixed_ladder=custom).fixed_ladder == custom
    # older config files and sidecars wrote null for the default table
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"fixed_ladder": None, "n_trees": 7}))
    assert cfg.load_config(path) == cfg.RunConfig(n_trees=7)


def test_fixed_ladder_must_ascend(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(
        json.dumps(
            {
                "fixed_ladder": [
                    {"bitrate_bps": 2e6, "width": 1920, "height": 1080},
                    {"bitrate_bps": 1e6, "width": 1280, "height": 720},
                ]
            }
        )
    )
    with pytest.raises(SchemaError, match="strictly increasing"):
        cfg.load_config(path)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    start = section.index("```json\n") + len("```json\n")
    path = tmp_path / "readme.json"
    path.write_text(section[start:section.index("```", start)])
    assert list(json.loads(path.read_text())) == [f.name for f in fields(cfg.RunConfig)]
    c = cfg.load_config(path)
    assert c.rung_bitrates_bps == (250000.0, 500000.0)
    assert c.resolutions == ((3840, 2160), (1920, 1080))
    assert c.fixed_ladder == ((250000.0, (512, 288)),)


INTEGER, NUMBER = "must be a JSON integer", "must be a JSON number"


# a case's id is the key its message names
@pytest.mark.parametrize("payload,message", [
    ({"n_trees": 2.7}, f"n_trees {INTEGER}"), ({"approach": True}, f"approach {INTEGER}"),
    ({"seed": -4.9}, f"seed {INTEGER}"), ({"seed": 3.0}, f"seed {INTEGER}"),
    ({"min_samples_leaf": "2"}, f"min_samples_leaf {INTEGER}"),
    ({"workers": False}, f"workers {INTEGER}"),
    ({"crf_min": 18.5}, f"crf_min {INTEGER}"), ({"crf_max": "50"}, f"crf_max {INTEGER}"),
    ({"k_features": 1.5}, f"k_features {INTEGER}"),
    ({"resolutions": [[1920, 1080.5]]}, f"resolutions {INTEGER}"),
    ({"resolutions": [[True, 2]]}, f"resolutions {INTEGER}"),
    ({"fixed_ladder": [{"bitrate_bps": 1e6, "width": 640.5, "height": 360}]},
     f"fixed_ladder width {INTEGER}"),
    ({"sigma_n2": "2.5"}, f"sigma_n2 {NUMBER}"),
    ({"sigma_n2": True}, f"sigma_n2 {NUMBER}"),
    ({"rung_bitrates_bps": [250000, "500000"]}, f"rung_bitrates_bps {NUMBER}"),
    ({"rung_bitrates_bps": [False, 500000]}, f"rung_bitrates_bps {NUMBER}"),
    ({"fixed_ladder": [{"bitrate_bps": "1e6", "width": 640, "height": 360}]},
     f"fixed_ladder bitrate_bps {NUMBER}"),
    ({"fixed_ladder": [{"bitrate_bps": True, "width": 640, "height": 360}]},
     f"fixed_ladder bitrate_bps {NUMBER}"),
    ({"encoder_template": 5}, "encoder_template must be a JSON string or null"),
    ({"resolutions": 5}, "resolutions must be a JSON array, got 5"),
    ({"resolutions": [[1920, 1080, 3]]}, "resolutions must be pairs of a width and a height"),
    ({"resolutions": [5]}, "resolutions must be pairs of a width and a height, got 5"),
    ({"rung_bitrates_bps": 5}, "rung_bitrates_bps must be a JSON array, got 5"),
    ({"fixed_ladder": 5}, "fixed_ladder must be a JSON array, got 5"),
    ({"fixed_ladder": "ab"}, 'fixed_ladder must be a JSON array, got "ab"'),
    ({"fixed_ladder": {"a": 1}}, 'fixed_ladder must be a JSON array, got {"a": 1}'),
    ({"fixed_ladder": [5]}, "malformed fixed_ladder entry: 5 is not a JSON object"),
    ({"fixed_ladder": [{"bitrate_bps": 1e6, "width": 640}]},
     '"width": 640} must have exactly the keys bitrate_bps, width, height'),
    ({"fixed_ladder": [{"bitrate_bps": 1e6, "width": 640, "height": 360, "fps": 30}]},
     '"fps": 30} must have exactly the keys bitrate_bps, width, height'),
], ids=lambda value: value.split(" must be")[0] if isinstance(value, str) else None)
def test_integer_keys_accept_only_json_integers(tmp_path, capsys, payload, message):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=message):
        cfg.load_config(path)
    code = main(["plot", "--ladders", "missing.csv", "--config", str(path),
                 "--out", str(tmp_path / "hulls.svg")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("entry", [
    {"bitrate_bps": 1e6, "width": 640.5, "height": 360},
    {"bitrate_bps": 1e6, "width": 640},
    [1e6, 640, 360],
])
def test_fixed_ladder_errors_name_the_config_path(tmp_path, capsys, entry):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"fixed_ladder": [entry]}))
    code = main(["plot", "--ladders", "missing.csv", "--config", str(path),
                 "--out", str(tmp_path / "hulls.svg")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"error: {path}: malformed fixed_ladder entry") and "Traceback" not in err


@pytest.mark.parametrize("payload,message", [
    ({"crf_min": 40, "crf_max": 20}, "crf range must satisfy 18 <= min <= max <= 50, got [40, 20]"),
    ({"approach": 12}, "approach must be 1..9, got 12"),
    ({"encoder_template": "x {input}"}, "encoder template missing {width} placeholder"),
    ({"fixed_ladder": [{"bitrate_bps": 1e6, "width": 0, "height": 361}]},
     "fixed_ladder: resolutions need positive even dims, got 0x361"),
    ({"fixed_ladder": []}, "fixed_ladder: rung list is empty"),
], ids=["crf_range", "approach", "encoder_template", "fixed_ladder_dims", "fixed_ladder_empty"])
def test_config_rule_errors_name_the_config_path(tmp_path, capsys, payload, message):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(payload))
    code = main(["plot", "--ladders", "missing.csv", "--config", str(path),
                 "--out", str(tmp_path / "hulls.svg")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_negative_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"seed": -1}))
    train = ["train", "--features", str(tmp_path / "features.csv"),
             "--encode-log", str(tmp_path / "encodes.csv"), "--out", str(tmp_path / "m.model")]
    assert main(train + ["--seed", "-1"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert main(train + ["--config", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}: seed must be >= 0, got -1\n"
    assert cfg.apply_overrides(cfg.RunConfig(), seed=0).seed == 0
