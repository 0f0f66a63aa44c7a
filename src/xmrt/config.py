"""Run configuration: a strict, typed JSON schema.

`load_config` checks every value once against its leaf's JSON type and
rejects unknown keys, so typos and mistyped values (null included) fail
with a ConfigError naming the dotted key, list entries by index
(`ensemble.matrices[0].path`); an entry object holds exactly its
schema's keys.  A bool is never an int or a float; an int given for a
float key loads as a float, and a float must be finite (JSON NaN and
Infinity are rejected).  Absent keys keep the defaults of the engine
object they feed; the config holds no defaults of its own.  Relative
paths resolve against the config file's own directory, which keeps run
directories relocatable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError

_STAGE = {"epochs": int, "batch_size": int}

_SCHEMA = {
    "seed": int,
    "out_dir": str,
    "data": {"manifest": str, "relevance": {"train": str, "val": str,
                                            "test": str}},
    "model": {"d_emb": int},
    "loss": {"tau": float, "lambda1": float, "lambda2": float},
    "schedule": {"peak_lr": float, "floor_lr": float,
                 "warmup_fraction": float, "weight_decay": float},
    "stages": {
        "pretrain": _STAGE,
        "finetune": {**_STAGE, "teachers": [str], "init_from": str},
        "refinetune": {**_STAGE, "labels": str, "init_from": str},
    },
    "augmentation": {"mix_count": int},
    "clustering": {"reduced_dim": int, "min_cluster_size": int,
                   "neighborhood_radius": float, "checkpoint": str},
    "evaluate": {"checkpoint": str, "split": str, "mode": str},
    "ensemble": {"step": float, "strategy": str,
                 "refine": bool, "mode": str, "hierarchical": bool,
                 "matrices": [{"system": (int, str), "model": str,
                               "path": str}],
                 "relevance": str, "weight_table": str, "row": str},
    "fixtures": {"n_items": int, "d_latent": int, "d_audio": int,
                 "d_text": int, "noise_sigma": float},
}


def _check_keys(raw, schema, where, entry=False):
    """Reject unknown keys in the object raw, and missing ones if it is a
    list entry, then check each value."""
    if entry and (missing := [key for key in schema if key not in raw]):
        raise ConfigError(f"config key {where[:-1]} lacks {missing[0]!r}")
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {where}{key!r}")
        raw[key] = _checked(value, schema[key], f"{where}{key}", entry)


def _checked(value, sub, key, entry=False):
    """value checked against its schema node sub; an int for a float comes
    back as a float.  A list schema [x] types each entry as x."""
    kinds = sub if isinstance(sub, tuple) else (sub,)
    if isinstance(sub, dict) and type(value) is dict:
        _check_keys(value, sub, f"{key}.", entry)
    elif isinstance(sub, list) and type(value) is list:
        for i, item in enumerate(value):
            value[i] = _checked(item, sub[0], f"{key}[{i}]", True)
    elif sub is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config key {key} must be a finite "
                              f"float") from None
    elif type(value) not in kinds:
        kind = ("an object" if isinstance(sub, dict) else "a list"
                if isinstance(sub, list) else " or ".join(
                    k.__name__ for k in kinds))
        raise ConfigError(f"config key {key} must be {kind}, "
                          f"got {json.dumps(value)}")
    elif sub is float and not math.isfinite(value):
        raise ConfigError(f"config key {key} must be a finite float, "
                          f"got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated config contents plus the directory they resolve against."""

    raw: dict
    base_dir: str

    def get(self, *keys, default=None):
        node = self.raw
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                return default
            node = node[key]
        return node

    def require(self, *keys):
        value = self.get(*keys, default=None)
        if value is None:
            raise ConfigError(
                f"config is missing required key {'.'.join(keys)!r}")
        return value

    def resolve(self, path):
        if os.path.isabs(path):
            return path
        return os.path.normpath(os.path.join(self.base_dir, path))

    def resolve_input(self, *keys):
        """Resolve a required path key and insist the file exists."""
        path = self.resolve(self.require(*keys))
        if not os.path.exists(path):
            raise ConfigError(
                f"config key {'.'.join(keys)!r} points to a missing "
                f"path {path}")
        return path


def load_config(path):
    """Parse and validate a JSON run config."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, _SCHEMA, "")
    return RunConfig(raw=raw, base_dir=os.path.dirname(os.path.abspath(path)))
