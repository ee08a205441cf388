"""Flat dotted-key run configuration.

Config files are plain text, one `key = value` per line with `#`
comments; values are JSON scalars or lists, and a value that is not JSON
is taken as a string. Command-line flags override file values, which
override the defaults below. The resolved config is
rendered to sorted lines whose hash stamps every output file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import DataError, number, read_text, shown

DEFAULTS: dict[str, object] = {
    "run.seed": 0,
    "run.threads": 1,
    "corpus.val_fraction": 0.1,
    "schedule.T": 100,
    "schedule.beta_start": 0.01,
    "schedule.beta_end": 0.13,
    "sde.beta_min": 0.1,
    "sde.beta_max": 20.0,
    "sde.steps": 500,
    "sde.t_eps": 0.001,
    "train.mask.steps": 60000,
    "train.mask.batch_size": 64,
    "train.mask.learning_rate": 0.001,
    "train.mask.final_learning_rate": 0.00005,
    "train.mask.ema_decay": 0.9995,
    "train.mask.hidden_width": 32,
    "train.mask.hidden_depth": 3,
    "train.mask.val_interval": 10000,
    "train.quantity.steps": 25000,
    "train.quantity.batch_size": 64,
    "train.quantity.learning_rate": 0.001,
    "train.quantity.final_learning_rate": 0.0,
    "train.quantity.ema_decay": 0.0,
    "train.quantity.hidden_width": 32,
    "train.quantity.hidden_depth": 3,
    "train.quantity.val_interval": 5000,
    "sample.count": 10000,
    "sample.chunk_size": 2048,
    "synth.count_override": 0,
    "select.min_sds": 3,
    "select.top_fraction": 0.05,
    "select.required": [],
    "select.meal_fraction": 0.3333333333333333,
    "rediscover.budget": 10000,
    "rediscover.chunk_size": 64,
    "fidelity.sample_count": 100000,
    "fidelity.top_k": 10,
    "profile.age": 30.0,
    "profile.sex": "male",
    "profile.height_cm": 175.0,
    "profile.weight_kg": 75.0,
    "profile.activity": "moderate",
    # paths are recorded so a persisted config reproduces the run
    "paths.corpus": "",
    "paths.vocabulary": "",
    "paths.spec": "",
    "paths.samples": "",
    "paths.mask_model": "",
    "paths.quantity_model": "",
    "paths.impact_table": "",
    "paths.impact_norms": "",
    "paths.nutrient_table": "",
    "paths.hei_standards": "",
    "paths.reference": "",
    "paths.out": "",
    "run.command": "",
}


# the interval of every numeric key; a key whose default is an int takes integers only
_RANGES = {
    "run.seed": "[0, inf)", "run.threads": "[1, inf)", "corpus.val_fraction": "[0, 1)",
    "schedule.T": "[1, inf)", "schedule.beta_start": "(0, 1)", "schedule.beta_end": "(0, 1)",
    "sde.beta_min": "(0, inf)", "sde.beta_max": "(0, inf)", "sde.steps": "[1, inf)",
    "sde.t_eps": "(0, 1)", "sample.count": "[0, inf)", "sample.chunk_size": "[1, inf)",
    "synth.count_override": "[0, inf)", "select.min_sds": "[0, inf)",
    "select.top_fraction": "(0, 1]", "select.meal_fraction": "(0, 1]",
    "rediscover.budget": "[0, inf)", "rediscover.chunk_size": "[1, inf)",
    "fidelity.sample_count": "[2, inf)", "fidelity.top_k": "[0, inf)",
    **dict.fromkeys(("profile.age", "profile.height_cm", "profile.weight_kg"), "(0, inf)"),
    **{f"train.{model}.{key}": interval for model in ("mask", "quantity") for key, interval in (
        ("steps", "[1, inf)"), ("batch_size", "[1, inf)"), ("learning_rate", "[0, inf)"),
        ("final_learning_rate", "[0, inf)"), ("ema_decay", "[0, 1)"),
        ("hidden_width", "[1, inf)"), ("hidden_depth", "[0, inf)"), ("val_interval", "[1, inf)"))},
}


def _coerce(key: str, value: object) -> object:
    default = DEFAULTS[key]
    if isinstance(default, (int, float)):
        return number(value, f"config key {key}", _RANGES[key], integer=isinstance(default, int))
    if isinstance(default, str):
        return str(value)
    if not isinstance(value, list):  # the default is a list of strings
        raise DataError(f"config key {key} is {shown(value)}, expected a list")
    return [str(v) for v in value]


def _strip_comment(line: str) -> str:
    """The line up to the first '#' that is not inside a double-quoted string."""
    quoted = escaped = False
    for i, ch in enumerate(line):
        if escaped:
            escaped = False
        elif quoted and ch == "\\":
            escaped = True
        elif ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def parse_value(text: str) -> object:
    """A config value as written in a file, a --set or the environment."""
    try:
        return json.loads(text.strip())
    except json.JSONDecodeError:
        return text.strip()


def parse_config_file(path: str | Path) -> dict[str, object]:
    out: dict[str, object] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        out[key.strip()] = parse_value(val)
    return out


def resolve_config(file_values: dict[str, object] | None = None,
                   overrides: dict[str, object] | None = None) -> dict[str, object]:
    """Defaults, then file values, then overrides; unknown keys are errors."""
    cfg = dict(DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise DataError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    return cfg


def render_config(cfg: dict[str, object]) -> str:
    lines = [f"{k} = {json.dumps(cfg[k])}" for k in sorted(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict[str, object]) -> str:
    return hashlib.sha256(render_config(cfg).encode()).hexdigest()[:16]
