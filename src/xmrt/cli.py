"""Command-line surface: fixtures, the three training stages, clustering,
evaluation, ensembling, and reporting.

Every subcommand reads a JSON run config (see config.py), writes its
artifacts under the output directory, and is idempotent for a fixed
config and seed.  Seed precedence: --seed flag, then the XMRT_SEED
environment variable, then the config's seed entry; the resolved seed
also seeds pair mixing unless augmentation.rng_seed is set.  Each
config section goes straight into the engine object it configures, so
an absent key keeps the engine's own default.

Exit codes: 0 success, 1 module error (bad data, bad config values,
failed contracts), 2 usage error (unknown flags, missing required
arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

import numpy as np

from . import fixtures
from .checkpoints import load_checkpoint, read_checkpoint_extra, \
    save_checkpoint
from .clustering import ClusterConfig, build_pseudo_labels, cluster_pipeline
from .config import load_config
from .core import cosine_similarity_matrix
from .datasets import (align_relevance, load_paired_dataset, read_labels,
                       read_relevance, relevance_as_indices, write_labels)
from .encoders import encode, init_heads, init_params
from .ensemble import (GridSearchConfig, bundled_weight_table, fuse,
                       grid_search, hierarchical_grid_search,
                       load_coefficients, read_weight_table)
from .errors import ConfigError, DataError, XmrtError
from .evaluation import METRIC_KEYS, evaluate
from .losses import LossConfig
from .tensorfile import load_tensor, save_tensor
from .training import AugmentationConfig, StageConfig, run_stage

CHECKPOINT_ROOT = "checkpoints"
STAGE_ORDER = ("refinetune", "finetune", "pretrain")


def _resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("XMRT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(
                f"XMRT_SEED must be an integer, got {env!r}") from None
    return cfg.seed if cfg is not None else 0


def _resolve_out(args, cfg):
    if getattr(args, "out", None):
        return os.path.abspath(args.out)
    if cfg is not None and cfg.get("out_dir") is not None:
        return cfg.resolve(cfg.get("out_dir"))
    raise ConfigError("no output directory: pass --out or set out_dir")


def _from_section(cls, cfg, *keys, **given):
    """A cls dataclass from the config section at keys.  A section key
    naming a field overrides the value given here; a field set by
    neither keeps cls's own default."""
    section = cfg.get(*keys, default={})
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**given, **{k: v for k, v in section.items()
                               if k in names}})


def _checkpoint_dir(out_dir, stage):
    return os.path.join(out_dir, CHECKPOINT_ROOT, stage)


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stage_summary(records):
    return {
        "steps": len(records),
        "first_total": records[0].total,
        "final_total": records[-1].total,
        "final_l_sup": records[-1].l_sup,
        "final_l_dist": records[-1].l_dist,
        "final_l_cls_audio": records[-1].l_cls_audio,
        "final_l_cls_text": records[-1].l_cls_text,
    }


def _load_train_split(cfg):
    manifest_path = cfg.resolve_input("data", "manifest")
    return manifest_path, load_paired_dataset(manifest_path, "train")


def _similarity(params, gallery_features, caption_features):
    audio_emb = encode(params.audio_encoder, gallery_features)
    text_emb = encode(params.text_encoder, caption_features)
    return cosine_similarity_matrix(audio_emb, text_emb)


def cmd_gen_fixtures(args):
    cfg = load_config(args.config) if args.config else None
    seed = _resolve_seed(args, cfg)
    out_dir = os.path.abspath(args.out)
    sec = cfg.get("fixtures", default={}) if cfg is not None else {}
    manifest = fixtures.generate_fixtures(out_dir, seed=seed, **sec)
    print(f"wrote {len(manifest.items)} items to {out_dir} (seed {seed})")
    return 0


def _run_training_stage(args, stage_name):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    out_dir = _resolve_out(args, cfg)
    _, split = _load_train_split(cfg)
    dataset = split.dataset

    teachers = None
    pseudo = None
    augmentation = None
    if stage_name == "pretrain":
        d_emb = cfg.get("model", "d_emb", default=16)
        params = init_params(dataset.audio_features.shape[1],
                             dataset.text_features.shape[1],
                             d_emb, seed=seed)
    else:
        prev = {"finetune": "pretrain", "refinetune": "finetune"}[stage_name]
        init_from = cfg.get("stages", stage_name, "init_from")
        init_dir = (cfg.resolve(init_from) if init_from
                    else _checkpoint_dir(out_dir, prev))
        if not os.path.exists(init_dir):
            raise ConfigError(
                f"no checkpoint to start from at {init_dir}; run "
                f"{prev} first or set stages.{stage_name}.init_from")
        params = load_checkpoint(init_dir)

    if stage_name == "finetune":
        teacher_dirs = cfg.get("stages", "finetune", "teachers")
        if not teacher_dirs or not all(isinstance(p, str)
                                       for p in teacher_dirs):
            raise ConfigError(
                "finetune requires stages.finetune.teachers, a list of "
                "checkpoint directories")
        teachers = [load_checkpoint(cfg.resolve(p)) for p in teacher_dirs]
        augmentation = _from_section(AugmentationConfig, cfg, "augmentation",
                                     rng_seed=seed)

    if stage_name == "refinetune":
        labels_key = cfg.get("stages", "refinetune", "labels")
        labels_path = (cfg.resolve(labels_key) if labels_key
                       else os.path.join(out_dir, "labels.tsv"))
        if not os.path.exists(labels_path):
            raise ConfigError(
                f"no label file at {labels_path}; run cluster first or "
                f"set stages.refinetune.labels")
        ids, labels, probs = read_labels(labels_path)
        by_id = dict(zip(ids, labels))
        try:
            pseudo = np.array([by_id[c] for c in dataset.caption_ids],
                              dtype=np.int64)
        except KeyError as exc:
            raise DataError(
                f"label file lacks caption {exc.args[0]!r}") from None
        k = probs.shape[1] if probs.size else int(labels.max()) + 1
        if not params.has_heads:
            params = params.with_heads(*init_heads(params.d_emb, k,
                                                   seed=seed))
        elif params.n_clusters != k:
            raise ConfigError(
                f"checkpoint heads expect {params.n_clusters} clusters, "
                f"label file has {k}")

    params, records = run_stage(
        _from_section(StageConfig, cfg, "stages", stage_name,
                      name=stage_name),
        params, dataset, teachers=teachers, pseudo_labels=pseudo,
        loss_cfg=_from_section(LossConfig, cfg, "loss"),
        augmentation=augmentation, seed=seed,
        **cfg.get("schedule", default={}))

    ckpt_dir = _checkpoint_dir(out_dir, stage_name)
    summary = _stage_summary(records)
    save_checkpoint(ckpt_dir, params,
                    extra={"stage": stage_name, "seed": seed, **summary})
    _write_json(os.path.join(out_dir, "summaries", f"{stage_name}.json"),
                {"stage": stage_name, "seed": seed, **summary})
    print(f"{stage_name}: {summary['steps']} steps, "
          f"loss {summary['first_total']:.4f} -> "
          f"{summary['final_total']:.4f}, checkpoint {ckpt_dir}")
    return 0


def cmd_pretrain(args):
    return _run_training_stage(args, "pretrain")


def cmd_finetune(args):
    return _run_training_stage(args, "finetune")


def cmd_refinetune(args):
    return _run_training_stage(args, "refinetune")


def cmd_cluster(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    out_dir = _resolve_out(args, cfg)
    cfg.require("clustering", "neighborhood_radius")
    cluster_cfg = _from_section(ClusterConfig, cfg, "clustering")
    ckpt_key = cfg.get("clustering", "checkpoint")
    ckpt_dir = (cfg.resolve(ckpt_key) if ckpt_key
                else _checkpoint_dir(out_dir, "finetune"))
    if not os.path.exists(ckpt_dir):
        raise ConfigError(
            f"no checkpoint at {ckpt_dir}; run finetune first or set "
            f"clustering.checkpoint")
    params = load_checkpoint(ckpt_dir)
    split_name = cfg.get("clustering", "split", default="train")
    manifest_path = cfg.resolve_input("data", "manifest")
    split = load_paired_dataset(manifest_path, split_name)
    emb = encode(params.text_encoder, split.dataset.text_features)
    assignment = cluster_pipeline(emb, cluster_cfg)

    labels_path = os.path.join(out_dir, "labels.tsv")
    os.makedirs(out_dir, exist_ok=True)
    write_labels(labels_path, split.dataset.caption_ids, assignment.labels,
                 assignment.probabilities)

    pseudo = build_pseudo_labels(assignment, split.caption_to_audio)
    audio_probs = np.zeros((len(split.gallery_ids), assignment.k))
    for cap_idx, audio_idx in enumerate(split.caption_to_audio):
        audio_probs[audio_idx] += assignment.probabilities[cap_idx]
    audio_probs /= audio_probs.sum(axis=1, keepdims=True)
    write_labels(os.path.join(out_dir, "audio_labels.tsv"),
                 split.gallery_ids, pseudo.audio_labels, audio_probs)
    print(f"cluster: {assignment.k} clusters over "
          f"{len(assignment.labels)} captions "
          f"({assignment.n_outliers} outliers before reassignment), "
          f"labels at {labels_path}")
    return 0


def _default_relevance(cfg, manifest_path, split_name):
    key = cfg.get("data", "relevance", split_name)
    if key is not None:
        return cfg.resolve_input("data", "relevance", split_name)
    path = os.path.join(os.path.dirname(manifest_path),
                        fixtures.relevance_file(split_name))
    if not os.path.exists(path):
        raise ConfigError(
            f"no relevance file for split {split_name!r}: set "
            f"data.relevance.{split_name} or provide {path}")
    return path


def cmd_evaluate(args):
    cfg = load_config(args.config)
    out_dir = _resolve_out(args, cfg)
    ckpt_key = cfg.get("evaluate", "checkpoint")
    if ckpt_key:
        ckpt_dir = cfg.resolve(ckpt_key)
        if not os.path.exists(ckpt_dir):
            raise ConfigError(f"no checkpoint at {ckpt_dir}")
    else:
        for stage in STAGE_ORDER:
            ckpt_dir = _checkpoint_dir(out_dir, stage)
            if os.path.exists(ckpt_dir):
                break
        else:
            raise ConfigError(
                "no checkpoint found under the output directory; train "
                "first or set evaluate.checkpoint")
    params = load_checkpoint(ckpt_dir)
    split_name = cfg.get("evaluate", "split", default="test")
    mode = cfg.get("evaluate", "mode", default=inspect.signature(
        evaluate).parameters["mode"].default)
    manifest_path = cfg.resolve_input("data", "manifest")
    split = load_paired_dataset(manifest_path, split_name)
    sim = _similarity(params, split.gallery_features,
                      split.dataset.text_features)
    entries = read_relevance(_default_relevance(cfg, manifest_path,
                                                split_name))
    relevance = align_relevance(entries, split.dataset.caption_ids,
                                split.gallery_ids)
    report = evaluate(sim, relevance, mode)
    payload = {"split": split_name, "mode": mode,
               "checkpoint": os.path.basename(ckpt_dir.rstrip(os.sep)),
               **report.as_dict()}
    _write_json(os.path.join(out_dir, f"report_{split_name}_{mode}.json"),
                payload)
    for key in METRIC_KEYS:
        print(f"{key}: {getattr(report, key):.6f}")
    print(f"query_count: {report.query_count}")
    return 0


def _ensemble_members(cfg):
    listed = cfg.get("ensemble", "matrices")
    if not listed:
        raise ConfigError(
            "ensemble.matrices must list {system, model, path} entries")
    members = []
    for i, entry in enumerate(listed):
        if not (isinstance(entry, dict)
                and {"system", "model", "path"} <= set(entry)
                and isinstance(entry["model"], str)
                and isinstance(entry["path"], str)):
            raise ConfigError(
                f"ensemble.matrices[{i}] needs system, model, and path, "
                f"the last two strings")
        path = cfg.resolve(entry["path"])
        if not os.path.exists(path):
            raise ConfigError(f"ensemble matrix {path} does not exist")
        members.append((entry["system"], entry["model"], load_tensor(path)))
    return members


def _ensemble_relevance(cfg):
    path = cfg.resolve_input("ensemble", "relevance")
    return relevance_as_indices(read_relevance(path))


def cmd_ensemble_search(args):
    cfg = load_config(args.config)
    out_dir = _resolve_out(args, cfg)
    members = _ensemble_members(cfg)
    relevance = _ensemble_relevance(cfg)
    grid_cfg = _from_section(GridSearchConfig, cfg, "ensemble")
    options = {k: v for k, v in cfg.get("ensemble").items()
               if k in ("strategy", "mode", "refine")}
    if cfg.get("ensemble", "hierarchical"):
        matrices = {(s, m): mat for s, m, mat in members}
        if len(matrices) != len(members):
            raise ConfigError("ensemble.matrices repeats a (system, model)")
        result = hierarchical_grid_search(matrices, relevance, grid_cfg,
                                          **options)
    else:
        result = grid_search(
            [mat for _, _, mat in members], relevance, grid_cfg,
            tags=[(s, m) for s, m, _ in members], **options)
    payload = {
        "strategy": result.spec.strategy,
        "map_at_16": result.map_at_16,
        "points_evaluated": result.points_evaluated,
        "members": [{"system": m.system, "model": m.model,
                     "weight": m.weight} for m in result.spec.members],
    }
    _write_json(os.path.join(out_dir, "ensemble_search.json"), payload)
    print(f"ensemble-search: mAP@16 {result.map_at_16:.6f} over "
          f"{result.points_evaluated} grid points")
    for m in result.spec.members:
        print(f"  ({m.system}, {m.model}): {m.weight:.4f}")
    return 0


def cmd_ensemble_apply(args):
    cfg = load_config(args.config)
    out_dir = _resolve_out(args, cfg)
    table_key = cfg.get("ensemble", "weight_table")
    if table_key is None or table_key == "bundled":
        table = bundled_weight_table()
    else:
        table = read_weight_table(cfg.resolve_input("ensemble",
                                                    "weight_table"))
    specs = load_coefficients(table)
    row = cfg.get("ensemble", "row", default=table.row_names[0])
    if row not in specs:
        raise ConfigError(
            f"row {row!r} not in weight table rows {table.row_names}")
    spec = specs[row]
    members = _ensemble_members(cfg)
    by_tag = {(s, m): mat for s, m, mat in members}
    if len(by_tag) != len(members):
        raise ConfigError("ensemble.matrices repeats a (system, model)")
    ordered = []
    for member in spec.members:
        tag = (member.system, member.model)
        if tag not in by_tag:
            raise ConfigError(
                f"ensemble.matrices lacks an entry for {tag}")
        ordered.append(by_tag[tag])
    fused = fuse(ordered, spec)
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"fused_{row}.xmrt")
    save_tensor(out_path, fused)
    print(f"ensemble-apply: {row} over {len(ordered)} matrices -> "
          f"{out_path}")
    return 0


def cmd_report(args):
    cfg = load_config(args.config)
    out_dir = _resolve_out(args, cfg)
    lines = []

    def emit(prefix, payload):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                emit(f"{prefix}{key}.", value)
            elif isinstance(value, list):
                lines.append(f"{prefix}{key}: "
                             f"{json.dumps(value, sort_keys=True)}")
            else:
                lines.append(f"{prefix}{key}: {value}")

    summaries_dir = os.path.join(out_dir, "summaries")
    if os.path.isdir(summaries_dir):
        for name in sorted(os.listdir(summaries_dir)):
            if name.endswith(".json"):
                with open(os.path.join(summaries_dir, name),
                          encoding="utf-8") as fh:
                    emit(f"stage.{name[:-5]}.", json.load(fh))
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("report_") and name.endswith(".json"):
                with open(os.path.join(out_dir, name),
                          encoding="utf-8") as fh:
                    emit(f"eval.{name[7:-5]}.", json.load(fh))
    search_path = os.path.join(out_dir, "ensemble_search.json")
    if os.path.exists(search_path):
        with open(search_path, encoding="utf-8") as fh:
            emit("ensemble.", json.load(fh))
    for stage in ("pretrain", "finetune", "refinetune"):
        ckpt = _checkpoint_dir(out_dir, stage)
        if os.path.exists(os.path.join(ckpt, "meta.json")):
            extra = read_checkpoint_extra(ckpt)
            lines.append(f"checkpoint.{stage}.steps: "
                         f"{extra.get('steps', '?')}")
    if not lines:
        lines.append("nothing to report: no artifacts under "
                     + out_dir)
    text = "\n".join(lines) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xmrt",
        description="Desk-scale audio-text retrieval training engine.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, *, needs_config=True, needs_out_flag=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="path to a JSON run config")
        p.add_argument("--out", required=needs_out_flag,
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed")
        p.set_defaults(func=func)
        return p

    add("gen-fixtures", cmd_gen_fixtures, needs_config=False,
        needs_out_flag=True)
    add("pretrain", cmd_pretrain)
    add("finetune", cmd_finetune)
    add("refinetune", cmd_refinetune)
    add("cluster", cmd_cluster)
    add("evaluate", cmd_evaluate)
    add("ensemble-search", cmd_ensemble_search)
    add("ensemble-apply", cmd_ensemble_apply)
    add("report", cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except XmrtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
