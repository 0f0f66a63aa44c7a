"""Run configuration: a strict JSON schema resolved against the file's dir.

Unknown keys are rejected at every level so typos fail loudly instead of
silently falling back to defaults.  Relative paths in the config resolve
against the config file's own directory, which keeps run directories
relocatable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .clustering import ClusterConfig
from .ensemble import GridSearchConfig
from .errors import ConfigError
from .losses import LossConfig
from .training import AugmentationConfig, StageConfig

DEFAULT_BATCH_SIZE = 16

_SCHEMA = {
    "seed": None,
    "out_dir": None,
    "data": {"manifest": None, "relevance": {"train": None, "val": None,
                                             "test": None}},
    "model": {"d_emb": None},
    "loss": {"tau": None, "lambda1": None, "lambda2": None},
    "schedule": {"peak_lr": None, "floor_lr": None, "warmup_fraction": None,
                 "weight_decay": None},
    "stages": {
        "pretrain": {"epochs": None, "batch_size": None},
        "finetune": {"epochs": None, "batch_size": None, "teachers": None,
                     "init_from": None},
        "refinetune": {"epochs": None, "batch_size": None, "labels": None,
                       "init_from": None},
    },
    "augmentation": {"mix_count": None, "rng_seed": None},
    "clustering": {"reduced_dim": None, "min_cluster_size": None,
                   "neighborhood_radius": None, "checkpoint": None,
                   "split": None},
    "evaluate": {"checkpoint": None, "split": None, "mode": None},
    "ensemble": {"step": None, "max_grid_points": None, "strategy": None,
                 "refine": None, "mode": None, "hierarchical": None,
                 "matrices": None, "relevance": None, "weight_table": None,
                 "row": None},
    "fixtures": {"n_items": None, "d_latent": None, "d_audio": None,
                 "d_text": None, "noise_sigma": None},
}


def _check_keys(raw, schema, where):
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


@dataclass(frozen=True)
class RunConfig:
    """Validated config contents plus the directory they resolve against."""

    raw: dict
    base_dir: str

    def section(self, *keys):
        node = self.raw
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                return {}
            node = node[key]
        return node

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
        path = self.resolve(str(self.require(*keys)))
        if not os.path.exists(path):
            raise ConfigError(
                f"config key {'.'.join(keys)!r} points to a missing "
                f"path {path}")
        return path

    @property
    def seed(self):
        return int(self.get("seed", default=0))

    def loss_config(self):
        sec = self.section("loss")
        return LossConfig(tau=float(sec.get("tau", 0.05)),
                          lambda1=float(sec.get("lambda1", 1.0)),
                          lambda2=float(sec.get("lambda2", 0.05)))

    def schedule_args(self):
        sec = self.section("schedule")
        return {"peak_lr": float(sec.get("peak_lr", 2e-5)),
                "floor_lr": float(sec.get("floor_lr", 1e-7)),
                "warmup_fraction": float(sec.get("warmup_fraction", 0.1)),
                "weight_decay": float(sec.get("weight_decay", 0.01))}

    def stage_config(self, name):
        sec = self.section("stages", name)
        return StageConfig(
            name=name,
            epochs=int(sec.get("epochs", 20)),
            batch_size=int(sec.get("batch_size", DEFAULT_BATCH_SIZE)))

    def augmentation_config(self):
        sec = self.section("augmentation")
        return AugmentationConfig(
            mix_count=int(sec.get("mix_count", 0)),
            rng_seed=int(sec.get("rng_seed", self.seed)))

    def cluster_config(self):
        sec = self.section("clustering")
        if "neighborhood_radius" not in sec:
            raise ConfigError(
                "config is missing required key "
                "'clustering.neighborhood_radius'")
        return ClusterConfig(
            neighborhood_radius=float(sec["neighborhood_radius"]),
            reduced_dim=int(sec.get("reduced_dim", 5)),
            min_cluster_size=int(sec.get("min_cluster_size", 5)))

    def grid_config(self):
        sec = self.section("ensemble")
        return GridSearchConfig(
            step=float(sec.get("step", 0.01)),
            max_grid_points=int(sec.get("max_grid_points", 200_000)))


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
