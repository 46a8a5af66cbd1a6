import json
from pathlib import Path

import pytest

from ladderforge import config as cfg
from ladderforge.errors import (
    ConfigMissing,
    InvalidNoiseVariance,
    SchemaError,
    UnknownApproach,
)


def test_defaults():
    c = cfg.load_config(env={})
    assert c.sigma_n2 == 2.0
    assert c.approach == 8
    assert len(c.resolutions) == 8
    assert len(c.rung_bps) == 12
    assert c.crf_min == 18 and c.crf_max == 50


def test_default_fixed_ladder_is_twelve_rungs_ascending():
    table = cfg.default_fixed_ladder()
    assert len(table) == 12
    bps = [b for b, _ in table]
    assert bps == sorted(bps)
    assert table[0] == (250_000.0, (512, 288))
    assert table[-1] == (10_500_000.0, (3840, 2160))
    # resolutions never shrink as the rung bitrate grows
    pixels = [w * h for _, (w, h) in table]
    assert pixels == sorted(pixels)


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


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigMissing):
        cfg.load_config(tmp_path / "absent.json")


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
    with pytest.raises(UnknownApproach):
        cfg.apply_overrides(base, approach=10)
    with pytest.raises(InvalidNoiseVariance):
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
        rung_bps=(1e6, 2e6),
        resolutions=((1280, 720), (1920, 1080)),
        fixed_ladder=((1e6, (1280, 720)), (2e6, (1920, 1080))),
        encoder_template="encode {input} {width} {height} {crf} {output}",
    )
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(cfg.config_json_dict(base)))
    assert cfg.load_config(path) == base


def test_fixed_ladder_table_falls_back_to_default():
    assert cfg.RunConfig().fixed_ladder_table() == cfg.default_fixed_ladder()
    custom = ((1e6, (1280, 720)), (2e6, (1920, 1080)))
    assert cfg.RunConfig(fixed_ladder=custom).fixed_ladder_table() == custom


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
    with pytest.raises(ValueError):
        cfg.load_config(path)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    start = section.index("```json\n") + len("```json\n")
    path = tmp_path / "readme.json"
    path.write_text(section[start:section.index("```", start)])
    c = cfg.load_config(path)
    assert c.rung_bps == (250000.0, 500000.0)
    assert c.resolutions == ((3840, 2160), (1920, 1080))
    assert c.fixed_ladder == ((250000.0, (512, 288)),)
