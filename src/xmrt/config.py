"""Run configuration: a strict, typed JSON schema.

`load_config` checks every value once against its leaf's JSON type and
rejects unknown keys, so typos and mistyped values (null included) fail
with a ConfigError naming the dotted key.  A bool is never an int or a
float; an int given for a float key loads as a float.  Absent keys keep
the defaults of the engine object they feed; the run seed's 0 is the
only default here.  Relative paths resolve against the config file's
own directory, which keeps run directories relocatable.
"""

from __future__ import annotations

import json
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
        "finetune": {**_STAGE, "teachers": list, "init_from": str},
        "refinetune": {**_STAGE, "labels": str, "init_from": str},
    },
    "augmentation": {"mix_count": int, "rng_seed": int},
    "clustering": {"reduced_dim": int, "min_cluster_size": int,
                   "neighborhood_radius": float, "checkpoint": str,
                   "split": str},
    "evaluate": {"checkpoint": str, "split": str, "mode": str},
    "ensemble": {"step": float, "max_grid_points": int, "strategy": str,
                 "refine": bool, "mode": str, "hierarchical": bool,
                 "matrices": list, "relevance": str, "weight_table": str,
                 "row": str},
    "fixtures": {"n_items": int, "d_latent": int, "d_audio": int,
                 "d_text": int, "noise_sigma": float},
}


def _check_keys(raw, schema, where):
    """Reject unknown keys and mistyped values; ints for floats become
    floats in place."""
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(
                f"unknown config key {where}{key!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(
                    f"config key {where}{key!r} must be an object")
            _check_keys(value, sub, f"{where}{key}.")
        elif sub is float and type(value) is int:
            raw[key] = float(value)
        elif type(value) is not sub:
            raise ConfigError(
                f"config key {where}{key} must be {sub.__name__}, "
                f"got {json.dumps(value)}")


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

    @property
    def seed(self):
        return self.get("seed", default=0)


def load_config(path):
    """Parse and validate a JSON run config."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, _SCHEMA, "")
    return RunConfig(raw=raw, base_dir=os.path.dirname(os.path.abspath(path)))
