"""Run configuration: defaults, config-file loading, CLI overrides.

Precedence is defaults, then the JSON config file (given explicitly or
via the LADDERFORGE_CONFIG environment variable), then command-line
flags. Every command writes the fully resolved configuration beside its
outputs so a run can be reproduced from the sidecar alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .dataset import CRF_MAX, CRF_MIN
from .errors import ConfigMissing, InvalidNoiseVariance, SchemaError, UnknownApproach
from .feature_assembly import APPROACH_FEATURE_LENGTHS
from .gsm_vif import DEFAULT_NOISE_VAR
from .ioutil import read_json
from .ladder import DEFAULT_RESOLUTIONS, DEFAULT_RUNG_BPS, validate_rungs

ENV_CONFIG = "LADDERFORGE_CONFIG"

_KNOWN_KEYS = {
    "sigma_n2",
    "approach",
    "resolutions",
    "rung_bitrates_bps",
    "n_trees",
    "min_samples_leaf",
    "k_features",
    "seed",
    "fixed_ladder",
    "encoder_template",
    "workers",
    "crf_min",
    "crf_max",
}


def default_fixed_ladder() -> tuple[tuple[float, tuple[int, int]], ...]:
    """The shipped rung -> resolution table (see data/fixed_ladder.json)."""
    resource = resources.files("ladderforge").joinpath("data/fixed_ladder.json")
    return _parse_fixed_ladder(json.loads(resource.read_text())["rungs"], str(resource))


@dataclass(frozen=True)
class RunConfig:
    sigma_n2: float = DEFAULT_NOISE_VAR
    approach: int = 8
    resolutions: tuple[tuple[int, int], ...] = DEFAULT_RESOLUTIONS
    rung_bps: tuple[float, ...] = tuple(float(b) for b in DEFAULT_RUNG_BPS)
    n_trees: int = 100
    min_samples_leaf: int = 1
    k_features: int | None = None
    seed: int = 0
    fixed_ladder: tuple[tuple[float, tuple[int, int]], ...] | None = None
    encoder_template: str | None = None
    workers: int = 4
    crf_min: int = 18
    crf_max: int = 50

    def fixed_ladder_table(self) -> tuple[tuple[float, tuple[int, int]], ...]:
        if self.fixed_ladder is not None:
            return self.fixed_ladder
        return default_fixed_ladder()


def validate_config(config: RunConfig) -> RunConfig:
    if not 0 < config.sigma_n2 < math.inf:
        raise InvalidNoiseVariance(f"sigma_n2 must be finite and > 0, got {config.sigma_n2}")
    if config.approach not in APPROACH_FEATURE_LENGTHS:
        raise UnknownApproach(f"approach must be 1..9, got {config.approach}")
    if not config.resolutions:
        raise SchemaError("resolution list is empty")
    for w, h in config.resolutions:
        if w <= 0 or h <= 0 or w % 2 or h % 2:
            raise SchemaError(f"resolutions need positive even dims, got {w}x{h}")
    validate_rungs(config.rung_bps)
    if config.n_trees < 1:
        raise SchemaError(f"n_trees must be >= 1, got {config.n_trees}")
    if config.min_samples_leaf < 1:
        raise SchemaError(f"min_samples_leaf must be >= 1, got {config.min_samples_leaf}")
    if config.k_features is not None and config.k_features < 1:
        raise SchemaError(f"k_features must be >= 1, got {config.k_features}")
    if config.workers < 1:
        raise SchemaError(f"workers must be >= 1, got {config.workers}")
    if not CRF_MIN <= config.crf_min <= config.crf_max <= CRF_MAX:
        raise SchemaError(
            f"crf range must satisfy {CRF_MIN} <= min <= max <= {CRF_MAX}, "
            f"got [{config.crf_min}, {config.crf_max}]"
        )
    if config.fixed_ladder is not None:
        validate_rungs([bps for bps, _ in config.fixed_ladder])
    return config


def _parse_fixed_ladder(raw, origin: str) -> tuple[tuple[float, tuple[int, int]], ...]:
    try:
        return tuple(
            (float(row["bitrate_bps"]),
             (_json_int(row["width"], "fixed_ladder width"),
              _json_int(row["height"], "fixed_ladder height")))
            for row in raw
        )
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(f"{origin}: malformed fixed_ladder entry: {exc}") from None


def _json_int(value, key: str) -> int:
    # bool is a subclass of int, and a JSON fraction arrives as a float
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def _config_from_dict(payload: dict, origin: str) -> RunConfig:
    unknown = set(payload) - _KNOWN_KEYS
    if unknown:
        raise SchemaError(f"{origin}: unknown config keys {sorted(unknown)}")
    kwargs = {}
    try:
        if "sigma_n2" in payload:
            kwargs["sigma_n2"] = float(payload["sigma_n2"])
        if "approach" in payload:
            kwargs["approach"] = _json_int(payload["approach"], "approach")
        if "resolutions" in payload:
            kwargs["resolutions"] = tuple(
                (_json_int(w, "resolutions"), _json_int(h, "resolutions"))
                for w, h in payload["resolutions"]
            )
        if "rung_bitrates_bps" in payload:
            kwargs["rung_bps"] = tuple(float(b) for b in payload["rung_bitrates_bps"])
        for key in ("n_trees", "min_samples_leaf", "seed", "workers", "crf_min", "crf_max"):
            if key in payload:
                kwargs[key] = _json_int(payload[key], key)
        if "k_features" in payload and payload["k_features"] is not None:
            kwargs["k_features"] = _json_int(payload["k_features"], "k_features")
        if "fixed_ladder" in payload and payload["fixed_ladder"] is not None:
            kwargs["fixed_ladder"] = _parse_fixed_ladder(payload["fixed_ladder"], origin)
        if "encoder_template" in payload and payload["encoder_template"] is not None:
            kwargs["encoder_template"] = str(payload["encoder_template"])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: float(10**400)
        raise SchemaError(f"{origin}: {exc}") from None
    return validate_config(RunConfig(**kwargs))


def load_config(path=None, env=None) -> RunConfig:
    """Defaults, optionally overlaid with a JSON config file."""
    env = os.environ if env is None else env
    if path is None:
        path = env.get(ENV_CONFIG) or None
    if path is None:
        return RunConfig()
    path = Path(path)
    if not path.exists():
        raise ConfigMissing(f"config file not found: {path}")
    payload = read_json(path, "config")
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return _config_from_dict(payload, str(path))


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Replace fields whose override value is not None, then re-validate."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(replace(config, **changes)) if changes else config


def config_json_dict(config: RunConfig) -> dict:
    return {
        "sigma_n2": config.sigma_n2,
        "approach": config.approach,
        "resolutions": [list(r) for r in config.resolutions],
        "rung_bitrates_bps": list(config.rung_bps),
        "n_trees": config.n_trees,
        "min_samples_leaf": config.min_samples_leaf,
        "k_features": config.k_features,
        "seed": config.seed,
        "fixed_ladder": None
        if config.fixed_ladder is None
        else [
            {"bitrate_bps": bps, "width": w, "height": h}
            for bps, (w, h) in config.fixed_ladder
        ],
        "encoder_template": config.encoder_template,
        "workers": config.workers,
        "crf_min": config.crf_min,
        "crf_max": config.crf_max,
    }
