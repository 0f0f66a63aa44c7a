"""Command-line surface: fixtures, the three training stages, clustering,
evaluation, ensembling, and reporting.

Every subcommand reads a JSON run config (see config.py), writes its
artifacts under the output directory, and is idempotent for a fixed
config and seed; `main` loads the config and resolves the output
directory once for all of them.  Only gen-fixtures and the three
training stages draw random numbers, and only they take --seed.  The
seed is the --seed flag, else the config's seed (0); no environment
variable is read.  It also seeds pair mixing.  Each config section goes
straight into the engine function it configures as keywords (`loss`
and `clustering` as a LossConfig and a ClusterConfig), so an absent key
keeps the engine's own default.  A stage's summary, cluster's labels.tsv
and gen-fixtures' manifest are dropped first and written last.

Exit codes: 0 success, 1 module error (bad data, bad config values,
failed contracts), 2 usage error (unknown flags, missing required
arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import os
import sys

import numpy as np

from . import fixtures
from .checkpoints import (load_checkpoint, read_json, save_checkpoint,
                          write_json)
from .clustering import ClusterConfig, build_pseudo_labels, cluster_pipeline
from .config import RunConfig, load_config
from .core import cosine_similarity_matrix
from .datasets import (SPLITS, align_relevance, load_paired_dataset,
                       read_labels, read_relevance, relevance_as_indices,
                       write_labels)
from .encoders import encode, init_heads, init_params
from .ensemble import (bundled_weight_table, fuse, grid_search,
                       hierarchical_grid_search, read_weight_table)
from .errors import ConfigError, DataError, XmrtError
from .evaluation import METRIC_KEYS, MODES, evaluate
from .losses import LossConfig
from .tensorfile import atomic_open, discard_file, load_tensor, save_tensor
from .training import STAGES, expand_with_mixes, run_stage

CHECKPOINT_ROOT = "checkpoints"


def _resolve_seed(flag, cfg):
    source, value = (("--seed", flag) if flag is not None
                     else ("config key seed", cfg.get("seed", default=0)))
    if value < 0:   # numpy seeds must be >= 0
        raise ConfigError(
            f"{source} must be a non-negative integer, got {value}")
    return value


def _resolve_out(flag, cfg):
    if flag:
        return os.path.abspath(flag)
    if cfg.get("out_dir") is not None:
        return cfg.resolve(cfg.get("out_dir"))
    raise ConfigError("no output directory: pass --out or set out_dir")


def _keywords(cfg, keys, names):
    """The entries of the config section at keys whose key is in names;
    a name the section does not set keeps the callee's own default."""
    return {k: v for k, v in cfg.get(*keys, default={}).items()
            if k in names}


def _from_section(cls, cfg, *keys):
    """A cls dataclass from its fields in the config section at keys."""
    return cls(**_keywords(cfg, keys,
                           {f.name for f in dataclasses.fields(cls)}))


def _checkpoint_dir(out_dir, stage):
    return os.path.join(out_dir, CHECKPOINT_ROOT, stage)


def _stage_summary(records):
    if not records:
        return {"steps": 0}
    return {"steps": len(records), "first_total": records[0].loss.total,
            **{f"final_{name}": value
               for name, value in vars(records[-1].loss).items()}}


def _input_path(cfg, keys, default, what, hint):
    """The path config key keys names, which must exist, or else the
    first existing default (a path or a list of paths).  An empty string
    counts as unset."""
    if cfg.get(*keys):
        return cfg.resolve_input(*keys)
    candidates = [default] if isinstance(default, str) else default
    for path in candidates:
        if os.path.exists(path):
            return path
    raise ConfigError(f"no {what} at {' or '.join(candidates)}; {hint} "
                      f"or set {'.'.join(keys)}")


def _choice(cfg, keys, choices, default):
    """The value at config key keys, else default; one of choices."""
    value = cfg.get(*keys, default=default)
    if value not in choices:
        raise ConfigError(f"config key {'.'.join(keys)} must be one of "
                          f"{choices}, got {value!r}")
    return value


def _load_split(cfg, name):
    return load_paired_dataset(cfg.resolve_input("data", "manifest"), name)


def cmd_gen_fixtures(cfg, out_dir, seed):
    manifest = fixtures.generate_fixtures(out_dir, seed=seed,
                                          **cfg.get("fixtures", default={}))
    print(f"wrote {len(manifest)} items to {out_dir} (seed {seed})")
    return 0


def _run_training_stage(cfg, out_dir, seed, stage_name):
    split = _load_split(cfg, "train")
    dataset = split.dataset

    teachers = None
    pseudo = None
    if stage_name == "pretrain":
        params = init_params(dataset.audio_features.shape[1],
                             dataset.text_features.shape[1], seed=seed,
                             **cfg.get("model", default={}))
    else:
        prev = STAGES[STAGES.index(stage_name) - 1]
        params = load_checkpoint(_input_path(
            cfg, ("stages", stage_name, "init_from"),
            _checkpoint_dir(out_dir, prev), "checkpoint to start from",
            f"run {prev} first"))

    if stage_name == "finetune":
        teachers = [load_checkpoint(cfg.resolve(path)) for path in
                    cfg.require("stages", "finetune", "teachers")]
        dataset = expand_with_mixes(dataset, rng_seed=seed,
                                    **cfg.get("augmentation", default={}))

    if stage_name == "refinetune":
        ids, labels, probs = read_labels(_input_path(
            cfg, ("stages", "refinetune", "labels"),
            os.path.join(out_dir, "labels.tsv"), "label file",
            "run cluster first"))
        by_id = dict(zip(ids, labels))
        try:
            pseudo = np.array([by_id[c] for c in split.caption_ids],
                              dtype=np.int64)
        except KeyError as exc:
            raise DataError(
                f"label file lacks caption {exc.args[0]!r}") from None
        k = probs.shape[1]
        if not params.has_heads:
            params = params.with_heads(init_heads(params.d_emb, k,
                                                  seed=seed))
        elif params.n_clusters != k:
            raise ConfigError(
                f"checkpoint heads expect {params.n_clusters} clusters, "
                f"label file has {k}")

    params, records = run_stage(
        stage_name, params, dataset, teachers=teachers, pseudo_labels=pseudo,
        loss_cfg=_from_section(LossConfig, cfg, "loss"), seed=seed,
        **_keywords(cfg, ("stages", stage_name), ("epochs", "batch_size")),
        **cfg.get("schedule", default={}))

    ckpt_dir = _checkpoint_dir(out_dir, stage_name)
    summary_path = os.path.join(out_dir, "summaries", f"{stage_name}.json")
    summary = _stage_summary(records)
    discard_file(summary_path)
    save_checkpoint(ckpt_dir, params)
    write_json(summary_path, {"stage": stage_name, "seed": seed, **summary})
    losses = (f"loss {summary['first_total']:.4f} -> "
              f"{summary['final_total']:.4f}, " if records else "")
    print(f"{stage_name}: {summary['steps']} steps, {losses}"
          f"checkpoint {ckpt_dir}")
    return 0


def cmd_cluster(cfg, out_dir):
    cfg.require("clustering", "neighborhood_radius")
    cluster_cfg = _from_section(ClusterConfig, cfg, "clustering")
    params = load_checkpoint(_input_path(
        cfg, ("clustering", "checkpoint"),
        _checkpoint_dir(out_dir, "finetune"), "checkpoint",
        "run finetune first"))
    split = _load_split(cfg, "train")
    assignment = cluster_pipeline(
        encode(params.text_encoder, split.dataset.text_features), cluster_cfg)

    labels_path = os.path.join(out_dir, "labels.tsv")
    os.makedirs(out_dir, exist_ok=True)
    discard_file(labels_path)
    write_labels(os.path.join(out_dir, "audio_labels.tsv"),
                 split.gallery_ids,
                 *build_pseudo_labels(assignment, split.caption_to_audio))
    write_labels(labels_path, split.caption_ids, assignment.labels,
                 assignment.probabilities)
    print(f"cluster: {assignment.k} clusters over "
          f"{len(assignment.labels)} captions "
          f"({assignment.n_outliers} outliers before reassignment), "
          f"labels at {labels_path}")
    return 0


def cmd_evaluate(cfg, out_dir):
    split_name = _choice(cfg, ("evaluate", "split"), SPLITS, "test")
    mode = _choice(cfg, ("evaluate", "mode"), MODES, inspect.signature(
        evaluate).parameters["mode"].default)
    ckpt_dir = _input_path(
        cfg, ("evaluate", "checkpoint"),
        [_checkpoint_dir(out_dir, stage) for stage in reversed(STAGES)],
        "checkpoint", "train a stage first")
    params = load_checkpoint(ckpt_dir)
    split = _load_split(cfg, split_name)
    sim = cosine_similarity_matrix(
        encode(params.audio_encoder, split.gallery_features),
        encode(params.text_encoder, split.dataset.text_features))
    manifest_dir = os.path.dirname(cfg.resolve_input("data", "manifest"))
    relevance_path = _input_path(
        cfg, ("data", "relevance", split_name),
        os.path.join(manifest_dir, fixtures.relevance_file(split_name)),
        "relevance file", "put one next to the manifest")
    relevance = align_relevance(read_relevance(relevance_path),
                                split.caption_ids, split.gallery_ids)
    report = evaluate(sim, relevance, mode)
    payload = {"split": split_name, "mode": mode,
               "checkpoint": os.path.basename(ckpt_dir.rstrip(os.sep)),
               **report.as_dict()}
    write_json(os.path.join(out_dir, f"report_{split_name}_{mode}.json"),
               payload)
    for key in METRIC_KEYS:
        print(f"{key}: {getattr(report, key):.6f}")
    print(f"query_count: {report.query_count}")
    return 0


def _ensemble_members(cfg):
    """The listed matrices as one {(system, model): matrix} map, in
    listed order."""
    members = {}
    for i, entry in enumerate(cfg.require("ensemble", "matrices")):
        tag = (entry["system"], entry["model"])
        if tag in members:
            raise ConfigError(
                f"ensemble.matrices[{i}] repeats (system, model) {tag}")
        members[tag] = load_tensor(cfg.resolve(entry["path"]))
    return members


def cmd_ensemble_search(cfg, out_dir):
    hierarchical = cfg.get("ensemble", "hierarchical")
    options = _keywords(cfg, ("ensemble",),
                        ("step", "strategy", "mode", "refine"))
    if "strategy" in options and not hierarchical:
        raise ConfigError("config key ensemble.strategy needs "
                          "ensemble.hierarchical: true")
    members = _ensemble_members(cfg)
    relevance = relevance_as_indices(read_relevance(
        cfg.resolve_input("ensemble", "relevance")))
    if hierarchical:
        result = hierarchical_grid_search(members, relevance, **options)
    else:
        result = grid_search(list(members.values()), relevance,
                             tags=list(members), **options)
    payload = {
        "strategy": result.spec.strategy,
        "map_at_16": result.map_at_16,
        "points_evaluated": result.points_evaluated,
        "members": [{"system": m.system, "model": m.model,
                     "weight": m.weight} for m in result.spec.members],
    }
    write_json(os.path.join(out_dir, "ensemble_search.json"), payload)
    print(f"ensemble-search: mAP@16 {result.map_at_16:.6f} over "
          f"{result.points_evaluated} grid points")
    for m in result.spec.members:
        print(f"  ({m.system}, {m.model}): {m.weight:.4f}")
    return 0


def cmd_ensemble_apply(cfg, out_dir):
    if cfg.get("ensemble", "weight_table", default="bundled") == "bundled":
        specs = bundled_weight_table()
    else:
        specs = read_weight_table(cfg.resolve_input("ensemble",
                                                    "weight_table"))
    row = _choice(cfg, ("ensemble", "row"), tuple(specs), next(iter(specs)))
    spec = specs[row]
    members = _ensemble_members(cfg)
    ordered = []
    for member in spec.members:
        tag = (member.system, member.model)
        if tag not in members:
            raise ConfigError(
                f"ensemble.matrices lacks an entry for {tag}")
        ordered.append(members[tag])
    fused = fuse(ordered, spec)
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"fused_{row}.xmrt")
    save_tensor(out_path, fused)
    print(f"ensemble-apply: {row} over {len(ordered)} matrices -> "
          f"{out_path}")
    return 0


def cmd_report(cfg, out_dir):
    sources = []
    summaries_dir = os.path.join(out_dir, "summaries")
    if os.path.isdir(summaries_dir):
        sources += [(f"stage.{name[:-5]}.", os.path.join(summaries_dir, name))
                    for name in sorted(os.listdir(summaries_dir))
                    if name.endswith(".json")]
    if os.path.isdir(out_dir):
        sources += [(f"eval.{name[7:-5]}.", os.path.join(out_dir, name))
                    for name in sorted(os.listdir(out_dir))
                    if name.startswith("report_") and name.endswith(".json")]
    search_path = os.path.join(out_dir, "ensemble_search.json")
    if os.path.exists(search_path):
        sources.append(("ensemble.", search_path))
    lines = []
    for prefix, path in sources:
        payload = read_json(path)
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{prefix}{key}: {value}")
    if not lines:
        lines.append("nothing to report: no artifacts under "
                     + out_dir)
    text = "\n".join(lines) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    with atomic_open(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(text)
    print(text, end="")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The `xmrt` parser, built once per process.  It names the command
    and `main` looks its handler up when it runs, so a cmd_* patched in
    later is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="xmrt",
        description="Desk-scale audio-text retrieval training engine.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, *, seeded=False, needs_config=True, needs_out_flag=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="path to a JSON run config")
        p.add_argument("--out", required=needs_out_flag,
                       help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="override the run seed")

    add("gen-fixtures", seeded=True, needs_config=False, needs_out_flag=True)
    for stage in STAGES:
        add(stage, seeded=True)
    for name in ("cluster", "evaluate", "ensemble-search", "ensemble-apply",
                 "report"):
        add(name)
    return parser


def _handler(command):
    """The function that runs `command`, read from the module's names at
    each call."""
    if command in STAGES:
        return functools.partial(_run_training_stage, stage_name=command)
    return {"gen-fixtures": cmd_gen_fixtures, "cluster": cmd_cluster,
            "evaluate": cmd_evaluate, "ensemble-search": cmd_ensemble_search,
            "ensemble-apply": cmd_ensemble_apply,
            "report": cmd_report}[command]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = (load_config(args.config) if args.config
               else RunConfig(raw={}, base_dir=os.getcwd()))
        seed = ([_resolve_seed(args.seed, cfg)] if "seed" in vars(args)
                else [])
        return _handler(args.command)(cfg, _resolve_out(args.out, cfg),
                                      *seed)
    except (XmrtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
