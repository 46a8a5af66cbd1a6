"""Run configuration: defaults, config-file loading, CLI overrides.

Precedence is defaults, then the JSON config file (given explicitly or
via the LADDERFORGE_CONFIG environment variable), then command-line
flags. Each setting has one name: the RunConfig field, its JSON key, the
dest of the flag that sets it and its key in the sidecar. Every command
writes the fully resolved configuration beside its outputs, and that
object is itself a valid config file, so a run can be reproduced from
the sidecar alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace

from .dataset import CRF_MAX, CRF_MIN
from .errors import SchemaError, located
from .gsm_vif import DEFAULT_NOISE_VAR, validate_noise_var
from .ioutil import read_json
from .ladder import (
    DEFAULT_FIXED_LADDER,
    DEFAULT_RESOLUTIONS,
    DEFAULT_RUNG_BPS,
    validate_resolutions,
    validate_rungs,
)
from .regressor import validate_forest

ENV_CONFIG = "LADDERFORGE_CONFIG"
TEMPLATE_PLACEHOLDERS = ("input", "width", "height", "crf", "output")


@dataclass(frozen=True)
class RunConfig:
    sigma_n2: float = DEFAULT_NOISE_VAR
    approach: int = 8
    resolutions: tuple[tuple[int, int], ...] = DEFAULT_RESOLUTIONS
    rung_bitrates_bps: tuple[float, ...] = tuple(float(b) for b in DEFAULT_RUNG_BPS)
    n_trees: int = 100
    min_samples_leaf: int = 1
    k_features: int | None = None
    seed: int = 0
    fixed_ladder: tuple[tuple[float, tuple[int, int]], ...] = DEFAULT_FIXED_LADDER
    encoder_template: str | None = None
    workers: int = 4
    crf_min: int = CRF_MIN
    crf_max: int = CRF_MAX


def validate_config(config: RunConfig) -> RunConfig:
    validate_noise_var(config.sigma_n2)
    validate_forest(config.approach, config.n_trees, config.min_samples_leaf,
                    config.k_features, config.seed)
    validate_resolutions(config.resolutions)
    validate_rungs(config.rung_bitrates_bps)
    if config.workers < 1:
        raise SchemaError(f"workers must be >= 1, got {config.workers}")
    if not CRF_MIN <= config.crf_min <= config.crf_max <= CRF_MAX:
        raise SchemaError(
            f"crf range must satisfy {CRF_MIN} <= min <= max <= {CRF_MAX}, "
            f"got [{config.crf_min}, {config.crf_max}]"
        )
    with located("fixed_ladder"):
        validate_rungs([bps for bps, _ in config.fixed_ladder])
        validate_resolutions([res for _, res in config.fixed_ladder])
    if config.encoder_template is not None:
        for name in TEMPLATE_PLACEHOLDERS:
            if "{" + name + "}" not in config.encoder_template:
                raise SchemaError(f"encoder template missing {{{name}}} placeholder")
        try:
            config.encoder_template.format(input="i", width=2, height=2, crf=18, output="o")
        except (KeyError, IndexError, ValueError) as exc:
            raise SchemaError(f"encoder template is not formattable: {exc}") from None
    return config


# JSON converters: (value, key) -> field value; a TypeError or ValueError
# is a malformed value and names the key
def _json_int(value, key: str) -> int:
    # bool is a subclass of int, and a JSON fraction arrives as a float
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_number(value, key: str) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a JSON number, got {json.dumps(value)}")
    return float(value)  # OverflowError past the float range


def _json_str(value, key: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{key} must be a JSON string or null, got {json.dumps(value)}")
    return value


def _json_array(value, key: str) -> list:
    if type(value) is not list:
        raise TypeError(f"{key} must be a JSON array, got {json.dumps(value)}")
    return value


def _json_size(value, key: str) -> tuple[int, int]:
    if type(value) is not list or len(value) != 2:
        raise TypeError(f"{key} must be pairs of a width and a height, got {json.dumps(value)}")
    return _json_int(value[0], key), _json_int(value[1], key)


def _optional(convert):
    return lambda value, key: None if value is None else convert(value, key)


def _fixed_rung(row, key: str) -> tuple[float, tuple[int, int]]:
    if type(row) is not dict:
        raise TypeError(f"{json.dumps(row)} is not a JSON object")
    if row.keys() != {"bitrate_bps", "width", "height"}:
        raise TypeError(f"{json.dumps(row)} must have exactly the keys bitrate_bps, width, height")
    return (_json_number(row["bitrate_bps"], f"{key} bitrate_bps"),
            (_json_int(row["width"], f"{key} width"), _json_int(row["height"], f"{key} height")))


def _fixed_ladder(rows, key: str) -> tuple[tuple[float, tuple[int, int]], ...]:
    if rows is None:  # older files and sidecars wrote null for the default table
        return DEFAULT_FIXED_LADDER
    rows = _json_array(rows, key)
    try:
        return tuple(_fixed_rung(row, key) for row in rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TypeError(f"malformed {key} entry: {exc}") from None


_FROM_JSON = {
    "sigma_n2": _json_number,
    "approach": _json_int,
    "resolutions": lambda pairs, key: tuple(_json_size(p, key) for p in _json_array(pairs, key)),
    "rung_bitrates_bps": lambda rungs, key: tuple(
        _json_number(b, key) for b in _json_array(rungs, key)),
    "n_trees": _json_int,
    "min_samples_leaf": _json_int,
    "k_features": _optional(_json_int),
    "seed": _json_int,
    "fixed_ladder": _fixed_ladder,
    "encoder_template": _optional(_json_str),
    "workers": _json_int,
    "crf_min": _json_int,
    "crf_max": _json_int,
}


def _config_from_dict(payload: dict, origin: str) -> RunConfig:
    unknown = set(payload) - set(_FROM_JSON)
    if unknown:
        raise SchemaError(f"{origin}: unknown config keys {sorted(unknown)}")
    try:
        fields = {key: _FROM_JSON[key](value, key) for key, value in payload.items()}
        return validate_config(RunConfig(**fields))
    except (TypeError, ValueError, OverflowError, SchemaError) as exc:
        raise SchemaError(f"{origin}: {exc}") from None


def config_path(path=None, env=None):
    """The config file a run reads: path if given, else $LADDERFORGE_CONFIG, else None."""
    if path is not None:
        return path
    return (os.environ if env is None else env).get(ENV_CONFIG) or None


def load_config(path=None, env=None) -> RunConfig:
    """Defaults, optionally overlaid with a JSON config file."""
    path = config_path(path, env)
    if path is None:
        return RunConfig()
    return _config_from_dict(read_json(path, "config"), str(path))


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Replace fields whose override value is not None, then re-validate."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(replace(config, **changes)) if changes else config


def config_json_dict(config: RunConfig) -> dict:
    """The config as a JSON object: field names are the keys, in field order."""
    payload = asdict(config)
    payload["fixed_ladder"] = [
        {"bitrate_bps": bps, "width": w, "height": h} for bps, (w, h) in config.fixed_ladder
    ]
    return payload
