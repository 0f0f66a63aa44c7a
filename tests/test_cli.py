"""End-to-end tests for the command-line surface."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from xmrt import (ClusterConfig, core, density_cluster, encode,
                  generate_fixtures, hierarchical_grid_search, init_heads,
                  init_params, load_tensor, reduce_dimensionality,
                  save_tensor, tensorfile)
from xmrt.checkpoints import load_checkpoint, save_checkpoint
from xmrt import cli
from xmrt.cli import CHECKPOINT_ROOT, main
from xmrt.datasets import (
    Manifest,
    ManifestItem,
    load_paired_dataset,
    read_relevance,
    relevance_as_indices,
    write_labels,
    write_manifest,
    write_relevance,
)
from xmrt.encoders import LinearEncoder, ModelParams
from xmrt.ensemble import bundled_weight_table
from xmrt.evaluation import METRIC_KEYS
from xmrt.fixtures import relevance_file
from xmrt.training import STAGES

from conftest import write_weight_rows


def _write_config(base, payload, name="run.json"):
    path = os.path.join(str(base), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return path


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ exit behavior


def test_no_command_returns_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gen-fixtures", "--bogus", "x"])
    assert err.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["pretrain"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["gen-fixtures"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["cluster", "evaluate",
                                     "ensemble-search", "ensemble-apply",
                                     "report"])
def test_seed_is_a_usage_error_where_nothing_is_drawn(tmp_path, command):
    # only gen-fixtures and the training stages draw random numbers
    cfg = _write_config(tmp_path, {"out_dir": "run"})
    with pytest.raises(SystemExit) as err:
        main([command, "--config", cfg, "--seed", "3"])
    assert err.value.code == 2
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


def test_module_error_returns_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "data": {"manifest": "missing/manifest.tsv"},
    })
    assert main(["pretrain", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_no_output_directory_returns_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"seed": 1})
    assert main(["report", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: no output directory: pass --out or set out_dir\n")


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _console_script_target(name):
    """The `name = "module:attr"` entry of pyproject's [project.scripts]."""
    with open(os.path.join(REPO_ROOT, "pyproject.toml"),
              encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    for line in lines[lines.index("[project.scripts]") + 1:]:
        if line.startswith("["):
            break
        key, _, value = line.partition("=")
        if key.strip() == name:
            return value.strip().strip('"').split(":")
    raise AssertionError(f"no console script {name!r} in pyproject.toml")


def _run_module(module, argv):
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env)


def test_the_parser_is_built_once_and_a_patched_command_runs(
        tmp_path, monkeypatch):
    parser = cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_gen_fixtures",
                        lambda cfg, out_dir, seed: calls.append(
                            (out_dir, seed)) or 0)
    out = os.path.join(str(tmp_path), "corpus")
    assert main(["gen-fixtures", "--out", out, "--seed", "4"]) == 0
    assert calls == [(out, 4)]
    assert not os.path.exists(out)
    assert cli.build_parser() is parser


def test_console_script_entry_point(tmp_path):
    # The installed `xmrt` script calls the declared target; running that
    # module from the source tree exercises the same code without an install.
    module, attr = _console_script_target("xmrt")
    assert getattr(importlib.import_module(module), attr) is main
    out = os.path.join(str(tmp_path), "corpus")
    done = _run_module(module, ["gen-fixtures", "--out", out, "--seed", "1"])
    assert done.returncode == 0, done.stderr
    assert os.path.exists(os.path.join(out, "manifest.tsv"))
    assert _run_module(module, []).returncode == 2


def test_mistyped_config_value_is_a_config_error(tmp_path):
    cfg = _write_config(tmp_path, {
        "out_dir": "run", "stages": {"pretrain": {"epochs": "two"}}})
    done = _run_module("xmrt.cli", ["pretrain", "--config", cfg])
    assert done.returncode == 1
    assert done.stderr.startswith(
        'error: config key stages.pretrain.epochs must be int, got "two"')
    assert "Traceback" not in done.stderr


# ------------------------------------------------------------- gen-fixtures


def test_gen_fixtures_writes_corpus(tmp_path, capsys):
    out = os.path.join(str(tmp_path), "corpus")
    assert main(["gen-fixtures", "--out", out, "--seed", "3"]) == 0
    assert "wrote 256 items" in capsys.readouterr().out
    for name in ("audio.xmrt", "text.xmrt", "manifest.tsv",
                 "relevance_train.tsv", "relevance_val.tsv",
                 "relevance_test.tsv"):
        assert os.path.exists(os.path.join(out, name))


def test_gen_fixtures_reads_config_section(tmp_path):
    cfg = _write_config(tmp_path, {
        "seed": 5,
        "fixtures": {"n_items": 16, "d_latent": 3, "d_audio": 6,
                     "d_text": 5},
    })
    out = os.path.join(str(tmp_path), "corpus")
    assert main(["gen-fixtures", "--config", cfg, "--out", out]) == 0
    assert load_tensor(os.path.join(out, "audio.xmrt")).shape == (16, 6)

    ref = os.path.join(str(tmp_path), "ref")
    generate_fixtures(ref, n_items=16, d_latent=3, d_audio=6, d_text=5,
                      noise_sigma=0.05, seed=5)
    with open(os.path.join(out, "audio.xmrt"), "rb") as f1:
        with open(os.path.join(ref, "audio.xmrt"), "rb") as f2:
            assert f1.read() == f2.read()


def _fixture_bytes(tmp_path, name, seed):
    ref = os.path.join(str(tmp_path), name)
    generate_fixtures(ref, n_items=16, d_latent=3, d_audio=6, d_text=5,
                      noise_sigma=0.05, seed=seed)
    with open(os.path.join(ref, "audio.xmrt"), "rb") as fh:
        return fh.read()


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, {
        "seed": 1,
        "fixtures": {"n_items": 16, "d_latent": 3, "d_audio": 6,
                     "d_text": 5},
    })

    def run_bytes(name, argv):
        out = os.path.join(str(tmp_path), name)
        assert main(argv + ["--out", out]) == 0
        with open(os.path.join(out, "audio.xmrt"), "rb") as fh:
            return fh.read()

    # the flag beats the config; a stray XMRT_SEED is ignored
    monkeypatch.setenv("XMRT_SEED", "2")
    flag = run_bytes("via_flag", ["gen-fixtures", "--config", cfg,
                                  "--seed", "3"])
    conf = run_bytes("via_config", ["gen-fixtures", "--config", cfg])

    assert flag == _fixture_bytes(tmp_path, "ref3", 3)
    assert conf == _fixture_bytes(tmp_path, "ref1", 1)


# ----------------------------------------------------------------- evaluate


def _identity_workspace(tmp_path):
    """Corpus whose features and encoders make similarity the identity."""
    base = str(tmp_path)
    corpus = os.path.join(base, "corpus")
    os.makedirs(corpus)
    save_tensor(os.path.join(corpus, "audio.xmrt"), np.eye(4))
    save_tensor(os.path.join(corpus, "text.xmrt"), np.eye(4))
    items = tuple(
        ManifestItem(audio_id=f"a{i}", caption_id=f"c{i}",
                     audio_ref=f"audio.xmrt:{i}",
                     caption_ref=f"text.xmrt:{i}", split="test")
        for i in range(4))
    write_manifest(os.path.join(corpus, "manifest.tsv"),
                   Manifest(items=items, d_audio=4, d_text=4))
    write_relevance(os.path.join(corpus, "relevance_test.tsv"),
                    [(f"c{i}", (f"a{i}",)) for i in range(4)])

    params = ModelParams(
        audio_encoder=LinearEncoder(weight=np.eye(4), bias=np.zeros(4),
                                    modality="audio"),
        text_encoder=LinearEncoder(weight=np.eye(4), bias=np.zeros(4),
                                   modality="text"))
    save_checkpoint(os.path.join(base, "ckpt"), params)
    return _write_config(tmp_path, {
        "out_dir": "run",
        "data": {"manifest": "corpus/manifest.tsv"},
        "evaluate": {"checkpoint": "ckpt", "split": "test",
                     "mode": "multiple"},
    })


def test_evaluate_perfect_retrieval(tmp_path, capsys):
    cfg = _identity_workspace(tmp_path)
    assert main(["evaluate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "map_at_16: 1.000000" in out
    assert "query_count: 4" in out
    report = _read_json(os.path.join(str(tmp_path), "run",
                                     "report_test_multiple.json"))
    for key in METRIC_KEYS:
        assert report[key] == 1.0, key
    assert report["query_count"] == 4
    assert report["split"] == "test"
    assert report["checkpoint"] == "ckpt"


def test_evaluate_single_mode_report_name(tmp_path):
    cfg_path = _identity_workspace(tmp_path)
    payload = _read_json(cfg_path)
    payload["evaluate"]["mode"] = "single"
    cfg_path = _write_config(tmp_path, payload, name="single.json")
    assert main(["evaluate", "--config", cfg_path]) == 0
    report = _read_json(os.path.join(str(tmp_path), "run",
                                     "report_test_single.json"))
    assert report["mode"] == "single"
    assert report["map_at_10"] == 1.0


def test_evaluate_without_checkpoint_returns_1(tmp_path, capsys):
    corpus = os.path.join(str(tmp_path), "corpus")
    generate_fixtures(corpus, n_items=16, d_latent=3, d_audio=6, d_text=5,
                      seed=0)
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "data": {"manifest": "corpus/manifest.tsv"},
    })
    assert main(["evaluate", "--config", cfg]) == 1
    assert "no checkpoint" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_evaluate_rejects_an_overflowing_embedding(tmp_path, capsys):
    # Unit rows of an overflowed norm would all be 0, and the report would
    # score tie order alone.
    cfg = _identity_workspace(tmp_path)
    ckpt = os.path.join(str(tmp_path), "ckpt")
    params = load_checkpoint(ckpt)
    tensors = params.named_tensors()
    tensors["audio_encoder.weight"] = tensors["audio_encoder.weight"] * 1e160
    save_checkpoint(ckpt, params.with_tensors(tensors))
    assert main(["evaluate", "--config", cfg]) == 1
    assert "norm overflowed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


@pytest.mark.parametrize("meta", [
    "torn", b"\xff\xfe{}", b'{"format": 1}', b"[1]"],
    ids=["torn", "not-utf8", "keyless", "list"])
def test_evaluate_rejects_a_malformed_meta_json(tmp_path, capsys, meta):
    cfg = _identity_workspace(tmp_path)
    meta_path = os.path.join(str(tmp_path), "ckpt", "meta.json")
    if meta == "torn":
        with open(meta_path, "rb") as fh:
            meta = fh.read()[:40]
    with open(meta_path, "wb") as fh:
        fh.write(meta)
    assert main(["evaluate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert meta_path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, choices", [
    ("split", "dev", "('train', 'val', 'test')"),
    ("mode", "both", "('multiple', 'single')")])
def test_evaluate_checks_split_and_mode_before_any_load(
        tmp_path, capsys, monkeypatch, key, value, choices):
    def no_load(*args):
        raise AssertionError("loaded an input")
    for name in ("load_checkpoint", "load_paired_dataset"):
        monkeypatch.setattr(cli, name, no_load)
    payload = _read_json(_identity_workspace(tmp_path))
    payload["evaluate"][key] = value
    cfg = _write_config(tmp_path, payload)
    assert main(["evaluate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"error: config key evaluate.{key} must be one of {choices}, "
        f"got {value!r}\n")


# ----------------------------------------------------------- full pipeline


def _pipeline_config(tmp_path, out_dir="run", seed=9):
    corpus = os.path.join(str(tmp_path), "corpus")
    if not os.path.exists(corpus):
        generate_fixtures(corpus, n_items=24, d_latent=3, d_audio=8,
                          d_text=6, noise_sigma=0.05, seed=2)
    return _write_config(tmp_path, {
        "seed": seed,
        "out_dir": out_dir,
        "data": {"manifest": "corpus/manifest.tsv"},
        "model": {"d_emb": 6},
        "schedule": {"peak_lr": 0.01, "floor_lr": 1e-5,
                     "warmup_fraction": 0.1, "weight_decay": 0.01},
        "stages": {
            "pretrain": {"epochs": 3, "batch_size": 8},
            "finetune": {"epochs": 2, "batch_size": 8,
                         "teachers": [f"{out_dir}/checkpoints/pretrain"]},
            "refinetune": {"epochs": 2, "batch_size": 8},
        },
        "clustering": {"neighborhood_radius": 50.0, "reduced_dim": 2,
                       "min_cluster_size": 3},
    }, name=f"{out_dir}.json")


def test_pipeline_stage_order_enforced(tmp_path, capsys):
    cfg = _pipeline_config(tmp_path)
    assert main(["finetune", "--config", cfg]) == 1
    assert "no checkpoint to start from" in capsys.readouterr().err
    assert main(["cluster", "--config", cfg]) == 1
    assert "run finetune first" in capsys.readouterr().err
    assert main(["refinetune", "--config", cfg]) == 1
    assert "no checkpoint to start from" in capsys.readouterr().err


# (command, dotted key, default path, whether a finetune checkpoint must
# exist for the command to reach the key)
INPUT_PATH_SITES = [
    ("finetune", "stages.finetune.init_from", "run/checkpoints/pretrain",
     False),
    ("refinetune", "stages.refinetune.labels", "run/labels.tsv", True),
    ("cluster", "clustering.checkpoint", "run/checkpoints/finetune", False),
    ("evaluate", "evaluate.checkpoint", "run/checkpoints/pretrain", False),
    ("evaluate", "data.relevance.test", "corpus/relevance_test.tsv", True),
]


@pytest.mark.parametrize("configured", [True, False],
                         ids=["configured", "default"])
@pytest.mark.parametrize("command, key, default, needs_checkpoint",
                         INPUT_PATH_SITES,
                         ids=[site[1] for site in INPUT_PATH_SITES])
def test_a_missing_input_path_names_the_path_and_the_key(
        tmp_path, capsys, command, key, default, needs_checkpoint,
        configured):
    cfg = _pipeline_config(tmp_path)
    if needs_checkpoint:
        save_checkpoint(os.path.join(str(tmp_path), "run", CHECKPOINT_ROOT,
                                     "finetune"),
                        init_params(8, 6, 6, seed=0))
    if configured:
        payload = _read_json(cfg)
        *outer, last = key.split(".")
        node = payload
        for part in outer:
            node = node.setdefault(part, {})
        node[last] = "elsewhere/missing"
        cfg = _write_config(tmp_path, payload)
        missing = os.path.join(str(tmp_path), "elsewhere", "missing")
    else:
        missing = os.path.join(str(tmp_path), *default.split("/"))
        if os.path.exists(missing):
            os.remove(missing)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert missing in err
    assert key in err
    # A key that is already set is not suggested again.
    assert ("or set" in err) is not configured


def test_warmup_fraction_outside_the_unit_interval_returns_1(tmp_path,
                                                             capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["schedule"]["warmup_fraction"] = 3.0
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: warmup_fraction must lie in [0, 1]")
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


def test_batch_past_the_workspace_budget_returns_1(tmp_path, capsys,
                                                   monkeypatch):
    cfg = _pipeline_config(tmp_path)
    monkeypatch.setattr(core, "_ALLOC_BYTES", 1024)
    assert main(["pretrain", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: batch_size 8 needs a ")
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


@pytest.mark.filterwarnings("error")
def test_a_tau_whose_reciprocal_overflows_returns_1(tmp_path, capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["loss"] = {"tau": 1e-310}
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: tau must be finite and > 0 with a finite 1/tau, got 1e-310\n")
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


def test_a_batch_of_one_returns_1(tmp_path, capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["stages"]["pretrain"]["batch_size"] = 1
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: batch_size must be >= 2\n"
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


@pytest.mark.parametrize("command, section, key, value, who", [
    ("gen-fixtures", "fixtures", "n_items", 4096,
     "n_items 4096 at widths (8, 32, 24)"),
    ("gen-fixtures", "fixtures", "d_audio", 4096,
     "n_items 256 at widths (8, 4096, 24)"),
    ("pretrain", "model", "d_emb", 10_000, "d_emb 10000"),
    ("finetune", "augmentation", "mix_count", 100_000, "mix_count 100000"),
], ids=["n_items", "d_audio", "d_emb", "mix_count"])
def test_a_config_size_past_the_allocation_limit_returns_1(
        tmp_path, capsys, monkeypatch, command, section, key, value, who):
    # at 1 MiB the pipeline fits and each size fails before it allocates
    payload = _read_json(_pipeline_config(tmp_path))
    monkeypatch.setattr(core, "_ALLOC_BYTES", 1 << 20)
    if command == "finetune":
        assert main(["pretrain", "--config", _write_config(
            tmp_path, payload)]) == 0
    payload.setdefault(section, {})[key] = value
    cfg = _write_config(tmp_path, payload)
    out = os.path.join(str(tmp_path), "fixtures")
    argv = ["--out", out] if command == "gen-fixtures" else []
    capsys.readouterr()
    assert main([command, "--config", cfg, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {who} needs a ")
    assert err.endswith("-byte limit\n")
    assert not os.path.exists(out)
    assert not os.path.exists(os.path.join(str(tmp_path), "run",
                                           CHECKPOINT_ROOT, command))


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg = _pipeline_config(tmp_path)
    run = os.path.join(str(tmp_path), "run")

    assert main(["pretrain", "--config", cfg]) == 0
    assert main(["finetune", "--config", cfg]) == 0
    assert main(["cluster", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(run, "labels.tsv"))
    assert os.path.exists(os.path.join(run, "audio_labels.tsv"))
    assert main(["refinetune", "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    capsys.readouterr()

    for stage in ("pretrain", "finetune", "refinetune"):
        ckpt = os.path.join(run, CHECKPOINT_ROOT, stage)
        params = load_checkpoint(ckpt)
        assert params.audio_encoder.d_out == 6
        summary = _read_json(os.path.join(run, "summaries",
                                          f"{stage}.json"))
        assert summary["stage"] == stage
        assert summary["steps"] > 0
    # refinetune attached classification heads
    assert load_checkpoint(os.path.join(run, CHECKPOINT_ROOT,
                                        "refinetune")).has_heads
    # evaluate picked the latest stage by default
    report = _read_json(os.path.join(run, "report_test_multiple.json"))
    assert report["checkpoint"] == "refinetune"
    assert 0.0 <= report["map_at_16"] <= 1.0

    assert main(["report", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "stage.pretrain.final_total" in text
    assert "eval.test_multiple.map_at_16" in text
    assert "stage.refinetune.steps" in text
    # a step count is reported once, from the stage summary
    assert not any(line.startswith("checkpoint.")
                   for line in text.splitlines())
    with open(os.path.join(run, "report.txt"), encoding="utf-8") as fh:
        assert fh.read() == text


def _files(root, names):
    """{name: bytes} of each file under root at one of the relative paths
    or directories `names`."""
    found = {}
    for name in names:
        path = os.path.join(root, name)
        paths = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path] * os.path.exists(path))
        for each in paths:
            with open(each, "rb") as fh:
                found[os.path.relpath(each, root)] = fh.read()
    return found


def _failing_replace(k, calls):
    """os.replace that fails at its k-th call, counting calls."""
    real = os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == k:
            raise OSError(f"injected failure of replace {k}")
        return real(src, dst)
    return replace


OP_OUTPUTS = {**{stage: (f"checkpoints/{stage}", f"summaries/{stage}.json")
                 for stage in STAGES},
              "cluster": ("labels.tsv", "audio_labels.tsv"),
              "gen-fixtures": ("audio.xmrt", "text.xmrt", "manifest.tsv",
                               *map(relevance_file, ("train", "val", "test")))}


@pytest.mark.parametrize("command", sorted(OP_OUTPUTS))
def test_an_op_that_fails_partway_leaves_no_mixed_outputs(
        tmp_path, monkeypatch, capsys, command):
    # run/ holds a previous run's outputs (seed 9, 1 cluster, a seed-1
    # corpus); the op then runs with seed 10 and 3 clusters (a seed-2
    # corpus) on inputs from seed 10, its k-th os.replace failing
    base = str(tmp_path)
    run, ref = os.path.join(base, "run"), os.path.join(base, "ref")
    if command == "gen-fixtures":
        for out_dir, seed in ((run, 1), (ref, 2)):
            assert main([command, "--out", out_dir, "--seed", str(seed)]) == 0
        new = [command, "--out", run, "--seed", "2"]
    else:
        configs = {}
        for name, out_dir, seed, radius in (("old", "run", 9, 50.0),
                                            ("new", "run", 10, 1.0),
                                            ("ref", "ref", 10, 1.0)):
            payload = _read_json(_pipeline_config(tmp_path, out_dir, seed))
            payload["clustering"].update(
                neighborhood_radius=radius,
                checkpoint=f"{out_dir}/checkpoints/pretrain")
            configs[name] = _write_config(tmp_path, payload, f"{name}.json")
        chain = ("pretrain", "cluster", "finetune", "refinetune")
        for name in ("old", "ref"):
            for op in chain:
                assert main([op, "--config", configs[name]]) == 0
        for op in chain[:chain.index(command)]:   # what the new op reads
            assert main([op, "--config", configs["new"]]) == 0
        new = [command, "--config", configs["new"]]
    previous = os.path.join(base, "previous")
    shutil.copytree(run, previous)
    expected = _files(ref, OP_OUTPUTS[command])
    old = _files(run, OP_OUTPUTS[command])
    # only the fixture manifest and relevance, which no seed changes, and
    # perhaps a checkpoint's meta.json read the same
    assert [name for name in expected if old[name] == expected[name]] \
        in ([], [f"checkpoints/{command}/meta.json"],
            list(OP_OUTPUTS["gen-fixtures"][2:]))

    k = 0
    while True:
        k += 1
        shutil.rmtree(run)
        shutil.copytree(previous, run)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(tensorfile.os, "replace", _failing_replace(k, calls))
            code = main(new)
        if len(calls) < k:
            break
        assert code == 1
        assert "injected failure" in capsys.readouterr().err
        left = _files(run, OP_OUTPUTS[command])
        if command == "cluster":
            # labels.tsv, which refinetune reads, only beside its own
            # audio labels
            assert "labels.tsv" not in left or all(
                left[name] == expected[name] for name in expected)
        elif f"summaries/{command}.json" in left:
            # a summary only beside the checkpoint it describes
            assert left == expected
        elif "manifest.tsv" in left:
            # a corpus that loads only when every file is new
            assert left == expected
        assert main(new) == 0
        assert _files(run, OP_OUTPUTS[command]) == expected
    assert code == 0
    assert k - 1 == {"pretrain": 6, "finetune": 6, "refinetune": 14,
                     "cluster": 2, "gen-fixtures": 6}[command]


def test_cluster_prints_the_density_steps_outlier_count(tmp_path, capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["clustering"]["neighborhood_radius"] = 1.0
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 0
    assert main(["finetune", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["cluster", "--config", cfg]) == 0
    params = load_checkpoint(os.path.join(str(tmp_path), "run",
                                          CHECKPOINT_ROOT, "finetune"))
    texts = load_paired_dataset(os.path.join(
        str(tmp_path), "corpus", "manifest.tsv"), "train").dataset
    cluster_cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                                min_cluster_size=3)
    dense = density_cluster(reduce_dimensionality(
        encode(params.text_encoder, texts.text_features), 2), cluster_cfg)
    assert dense.k >= 1 and dense.n_outliers > 0
    assert (f"({dense.n_outliers} outliers before reassignment)"
            in capsys.readouterr().out)


def test_zero_loss_weights_are_valid(tmp_path, capsys):
    # a weight of 0 turns its term off; the stage still runs
    payload = _read_json(_pipeline_config(tmp_path))
    payload["loss"] = {"lambda1": 0}
    no_distill = _write_config(tmp_path, payload, name="no_distill.json")
    payload["loss"] = {"lambda2": 0}
    no_cls = _write_config(tmp_path, payload, name="no_cls.json")
    assert main(["pretrain", "--config", no_distill]) == 0
    assert main(["finetune", "--config", no_distill]) == 0
    assert main(["cluster", "--config", no_cls]) == 0
    assert main(["refinetune", "--config", no_cls]) == 0
    assert capsys.readouterr().err == ""


def _assert_same_checkpoints(tmp_path, run1, run2, stage):
    d1 = os.path.join(str(tmp_path), run1, CHECKPOINT_ROOT, stage)
    d2 = os.path.join(str(tmp_path), run2, CHECKPOINT_ROOT, stage)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        with open(os.path.join(d1, name), "rb") as f1:
            with open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read(), name


def test_pretrain_rerun_is_bit_identical(tmp_path):
    cfg1 = _pipeline_config(tmp_path, out_dir="run1")
    cfg2 = _pipeline_config(tmp_path, out_dir="run2")
    assert main(["pretrain", "--config", cfg1]) == 0
    assert main(["pretrain", "--config", cfg2]) == 0
    _assert_same_checkpoints(tmp_path, "run1", "run2", "pretrain")


# Runs its arguments as xmrt commands in order, stopping at a failure.
_CHAIN_SCRIPT = """
import sys
from xmrt.cli import main
for op in sys.argv[1:]:
    if main(op.split()) != 0:
        sys.exit(1)
"""


def test_every_output_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # Batch 128 at d_emb 32 makes each batch-square product 128 * 128 * 32
    # = 524,288 multiply-adds, past the 4 * 65,536 at which OpenBLAS's
    # gemm starts to split a product over its threads by default.
    config = {
        "fixtures": {"n_items": 512, "d_audio": 64, "d_text": 48},
        "data": {"manifest": "corpus/manifest.tsv"},
        "model": {"d_emb": 32},
        "schedule": {"peak_lr": 0.01},
        "stages": {
            "pretrain": {"epochs": 2, "batch_size": 128},
            "finetune": {"epochs": 2, "batch_size": 128, "teachers": [
                "t1/checkpoints/pretrain", "t2/checkpoints/pretrain"]},
            "refinetune": {"epochs": 2, "batch_size": 128},
        },
        "clustering": {"neighborhood_radius": 3.0, "reduced_dim": 2,
                       "min_cluster_size": 3},
    }
    ops = ["gen-fixtures --config run.json --out corpus --seed 3",
           *(f"pretrain --config run.json --out t{s} --seed {s}"
             for s in (1, 2)),
           *(f"{op} --config run.json --out run"
             for op in ("pretrain", "finetune", "cluster", "refinetune",
                        "evaluate"))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"),
                      os.environ.get("PYTHONPATH")])))
    runs = {}
    for threads in ("1", "2"):
        cwd = os.path.join(str(tmp_path), f"blas{threads}")
        os.makedirs(cwd)
        _write_config(cwd, config, "run.json")
        runs[cwd] = subprocess.Popen(
            [sys.executable, "-c", _CHAIN_SCRIPT, *ops], cwd=cwd,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=dict(env, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads))
    outputs = []
    for cwd, proc in runs.items():
        assert proc.wait() == 0, proc.stderr.read()
        proc.stderr.close()
        paths = sorted(os.path.relpath(os.path.join(d, f), cwd)
                       for d, _, files in os.walk(cwd) for f in files)
        outputs.append(_files(cwd, paths))
    assert "run/report_test_multiple.json" in outputs[0]
    assert "run/checkpoints/refinetune/audio_head.w1.xmrt" in outputs[0]
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert [name for name in outputs[0]
            if outputs[0][name] != outputs[1][name]] == []


def test_mixing_seed_follows_the_seed_flag(tmp_path):
    # pair mixing draws from the resolved seed, so --seed 3 and a config
    # seed of 3 train the same finetune
    for out_dir, seed, flag in (("flag", 0, ["--seed", "3"]),
                                ("conf", 3, [])):
        payload = _read_json(_pipeline_config(tmp_path, out_dir, seed))
        payload["augmentation"] = {"mix_count": 8}
        cfg = _write_config(tmp_path, payload, name=f"{out_dir}.json")
        assert main(["pretrain", "--config", cfg, *flag]) == 0
        assert main(["finetune", "--config", cfg, *flag]) == 0
    _assert_same_checkpoints(tmp_path, "flag", "conf", "finetune")


def test_refinetune_rejects_a_label_outside_the_cluster_count(
        tmp_path, capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["stages"]["refinetune"].update(
        init_from="run/checkpoints/pretrain", labels="labels.tsv")
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 0
    ids = load_paired_dataset(os.path.join(str(tmp_path), "corpus",
                                           "manifest.tsv"),
                              "train").caption_ids
    labels = np.arange(len(ids)) % 2
    labels[-1] = 2                  # k is 2: the probability rows' width
    write_labels(os.path.join(str(tmp_path), "labels.tsv"), ids, labels,
                 np.full((len(ids), 2), 0.5))
    capsys.readouterr()
    assert main(["refinetune", "--config", cfg]) == 1
    assert "cluster label outside [0, 2)" in capsys.readouterr().err


def _refinetune_from_pretrain(tmp_path, k, drop_last=False):
    """A config whose refinetune starts from the pretrain checkpoint and
    reads labels.tsv: a label with a k-wide probability row for every
    training caption, or for all but the last.  Runs pretrain."""
    payload = _read_json(_pipeline_config(tmp_path))
    payload["stages"]["refinetune"].update(
        init_from="run/checkpoints/pretrain", labels="labels.tsv")
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 0
    ids = load_paired_dataset(os.path.join(str(tmp_path), "corpus",
                                           "manifest.tsv"),
                              "train").caption_ids
    ids = ids[:-1] if drop_last else ids
    write_labels(os.path.join(str(tmp_path), "labels.tsv"), ids,
                 np.arange(len(ids)) % k, np.full((len(ids), k), 1.0 / k))
    return cfg


def test_refinetune_rejects_a_label_file_missing_a_caption(tmp_path,
                                                           capsys):
    cfg = _refinetune_from_pretrain(tmp_path, 2, drop_last=True)
    last = load_paired_dataset(os.path.join(str(tmp_path), "corpus",
                                            "manifest.tsv"),
                               "train").caption_ids[-1]
    capsys.readouterr()
    assert main(["refinetune", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"error: label file lacks caption {last!r}\n")


def test_refinetune_rejects_heads_for_another_cluster_count(tmp_path,
                                                            capsys):
    cfg = _refinetune_from_pretrain(tmp_path, 2)
    start = os.path.join(str(tmp_path), "run", CHECKPOINT_ROOT, "pretrain")
    params = load_checkpoint(start)
    save_checkpoint(start, params.with_heads(init_heads(params.d_emb, 3,
                                                        seed=0)))
    capsys.readouterr()
    assert main(["refinetune", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: checkpoint heads expect 3 clusters, label file has 2\n")
    assert not os.path.exists(os.path.join(str(tmp_path), "run",
                                           CHECKPOINT_ROOT, "refinetune"))


def test_zero_epoch_stage_writes_the_starting_checkpoint(tmp_path, capsys):
    payload = _read_json(_pipeline_config(tmp_path))
    payload["stages"]["pretrain"]["epochs"] = 0
    cfg = _write_config(tmp_path, payload)
    assert main(["pretrain", "--config", cfg]) == 0
    run = os.path.join(str(tmp_path), "run")
    saved = load_checkpoint(os.path.join(run, CHECKPOINT_ROOT, "pretrain"))
    drawn = init_params(8, 6, 6, seed=9)
    assert list(saved.named_tensors()) == list(drawn.named_tensors())
    for name, tensor in drawn.named_tensors().items():
        assert saved.named_tensors()[name].tobytes() == tensor.tobytes()
    assert _read_json(os.path.join(run, "summaries", "pretrain.json")) == {
        "stage": "pretrain", "seed": 9, "steps": 0}
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 0
    assert "stage.pretrain.steps: 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, config, source", [
    ("pretrain", ["--seed", "-1"], {}, "--seed"),
    ("pretrain", [], {"seed": -5}, "config key seed"),
    ("gen-fixtures", ["--seed", "-1"], {}, "--seed"),
], ids=["flag", "config", "gen-fixtures"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, command, flag,
                                           config, source):
    payload = _read_json(_pipeline_config(tmp_path))
    cfg = _write_config(tmp_path, {**payload, **config})
    argv = (["--out", os.path.join(str(tmp_path), "fixtures")]
            if command == "gen-fixtures" else ["--config", cfg])
    capsys.readouterr()
    assert main([command, *argv, *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source} must be a non-negative integer")
    assert "Traceback" not in err


def test_pretrain_seed_changes_checkpoint(tmp_path):
    cfg1 = _pipeline_config(tmp_path, out_dir="runa", seed=9)
    cfg2 = _pipeline_config(tmp_path, out_dir="runb", seed=10)
    assert main(["pretrain", "--config", cfg1]) == 0
    assert main(["pretrain", "--config", cfg2]) == 0
    w1 = load_checkpoint(os.path.join(str(tmp_path), "runa",
                                      CHECKPOINT_ROOT, "pretrain"))
    w2 = load_checkpoint(os.path.join(str(tmp_path), "runb",
                                      CHECKPOINT_ROOT, "pretrain"))
    assert not np.array_equal(w1.audio_encoder.weight,
                              w2.audio_encoder.weight)


# ----------------------------------------------------------------- ensemble


def _search_config(tmp_path, step=0.05, **sections):
    """Two 20 x 20 members, a.xmrt ranking every query right and b.xmrt
    wrong, their relevance rel.tsv, and a run config searching them."""
    base = str(tmp_path)
    n = 20
    a = np.eye(n)
    b = 100.0 * (np.ones((n, n)) - 2.0 * np.eye(n))
    save_tensor(os.path.join(base, "a.xmrt"), a)
    save_tensor(os.path.join(base, "b.xmrt"), b)
    write_relevance(os.path.join(base, "rel.tsv"),
                    [(f"q{i}", (str(i),)) for i in range(n)])
    return _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {
            "step": step,
            "matrices": [
                {"system": 0, "model": "a", "path": "a.xmrt"},
                {"system": 1, "model": "b", "path": "b.xmrt"},
            ],
            "relevance": "rel.tsv",
        },
        **sections,
    })


def test_ensemble_search_cli(tmp_path, capsys):
    base = str(tmp_path)
    cfg = _search_config(tmp_path)
    assert main(["ensemble-search", "--config", cfg]) == 0
    assert "mAP@16 1.000000" in capsys.readouterr().out
    payload = _read_json(os.path.join(base, "run", "ensemble_search.json"))
    assert payload["map_at_16"] == 1.0
    assert payload["points_evaluated"] == 21
    weights = {(m["system"], m["model"]): m["weight"]
               for m in payload["members"]}
    assert weights == {(0, "a"): 1.0, (1, "b"): 0.0}


def _grid_config(tmp_path, strategy):
    """Four noisy 20 x 20 members on a 2 x 2 (system, model) grid, their
    relevance rel.tsv, and a config searching them hierarchically."""
    base = str(tmp_path)
    rng = np.random.default_rng(21)
    n = 20
    entries = []
    for i, (system, model) in enumerate([(0, "a"), (0, "b"), (1, "a"),
                                         (1, "b")]):
        path = f"m{i}.xmrt"
        save_tensor(os.path.join(base, path),
                    (i + 1) * np.eye(n) + rng.standard_normal((n, n)))
        entries.append({"system": system, "model": model, "path": path})
    write_relevance(os.path.join(base, "rel.tsv"),
                    [(f"q{i}", (str(i), str((i + 1) % n)))
                     for i in range(n)])
    return _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {"step": 0.25, "hierarchical": True,
                     "strategy": strategy, "matrices": entries,
                     "relevance": "rel.tsv"},
    })


@pytest.mark.parametrize("strategy", ["system-first", "model-first"])
def test_hierarchical_search_cli_matches_the_engine(tmp_path, strategy):
    base = str(tmp_path)
    cfg = _grid_config(tmp_path, strategy)
    assert main(["ensemble-search", "--config", cfg]) == 0
    payload = _read_json(os.path.join(base, "run", "ensemble_search.json"))
    members = {(entry["system"], entry["model"]):
               load_tensor(os.path.join(base, entry["path"]))
               for entry in _read_json(cfg)["ensemble"]["matrices"]}
    result = hierarchical_grid_search(
        members, relevance_as_indices(read_relevance(
            os.path.join(base, "rel.tsv"))),
        step=0.25, strategy=strategy)
    assert payload == {
        "strategy": strategy,
        "map_at_16": result.map_at_16,
        "points_evaluated": result.points_evaluated,
        "members": [{"system": m.system, "model": m.model,
                     "weight": m.weight} for m in result.spec.members],
    }
    # three 2-member stages (two groups, then across them) of 5 points
    assert result.points_evaluated == 15


def test_report_lists_the_ensemble_search(tmp_path, capsys):
    base = str(tmp_path)
    cfg = _grid_config(tmp_path, "model-first")
    assert main(["ensemble-search", "--config", cfg]) == 0
    payload = _read_json(os.path.join(base, "run", "ensemble_search.json"))
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert text == (
        f"ensemble.map_at_16: {payload['map_at_16']}\n"
        f"ensemble.members: "
        f"{json.dumps(payload['members'], sort_keys=True)}\n"
        f"ensemble.points_evaluated: 15\n"
        f"ensemble.strategy: model-first\n")
    with open(os.path.join(base, "run", "report.txt"),
              encoding="utf-8") as fh:
        assert fh.read() == text


def test_ensemble_apply_bundled_row(tmp_path):
    base = str(tmp_path)
    rng = np.random.default_rng(4)
    spec = bundled_weight_table()["E1"]
    mats = {}
    entries = []
    for member in spec.members:
        mat = rng.standard_normal((6, 4))
        name = f"s{member.system}_{member.model}.xmrt"
        save_tensor(os.path.join(base, name), mat)
        mats[(member.system, member.model)] = mat
        entries.append({"system": member.system, "model": member.model,
                        "path": name})
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {"matrices": entries, "row": "E1"},
    })
    assert main(["ensemble-apply", "--config", cfg]) == 0
    fused = load_tensor(os.path.join(base, "run", "fused_E1.xmrt"))
    expected = np.zeros((6, 4))
    for member in spec.members:
        expected += member.weight * mats[(member.system, member.model)]
    assert np.allclose(fused, expected, atol=1e-12)


def test_ensemble_apply_reads_only_the_published_grid(tmp_path, capsys):
    # the first row is the default; the bundled table written back out
    # fuses the same bytes, and a table over another grid exits 1
    base = str(tmp_path)
    rng = np.random.default_rng(4)
    entries = []
    for member in bundled_weight_table()["E1"].members:
        name = f"s{member.system}_{member.model}.xmrt"
        save_tensor(os.path.join(base, name), rng.standard_normal((6, 4)))
        entries.append({"system": member.system, "model": member.model,
                        "path": name})
    write_weight_rows(os.path.join(base, "written.tsv"),
                      bundled_weight_table())
    with open(os.path.join(base, "other.tsv"), "w", encoding="utf-8") as fh:
        fh.write("ensemble\tsid1_passt\tsid2_passt\nE1\t0.5\t0.5\n")
    fused = []
    for table in ("bundled", "written.tsv", "other.tsv"):
        cfg = _write_config(tmp_path, {
            "out_dir": table[:5],
            "ensemble": {"matrices": entries, "weight_table": table},
        }, name=f"{table[:5]}.json")
        capsys.readouterr()
        code = main(["ensemble-apply", "--config", cfg])
        if table == "other.tsv":
            assert code == 1
            assert capsys.readouterr().err.startswith(
                f"error: {os.path.join(base, table)}: header must be")
        else:
            assert code == 0
            with open(os.path.join(base, table[:5], "fused_E1.xmrt"),
                      "rb") as fh:
                fused.append(fh.read())
    assert fused[0] == fused[1]


def test_ensemble_apply_overflow_returns_1(tmp_path, capsys):
    base = str(tmp_path)
    entries = []
    for member in bundled_weight_table()["E1"].members:
        name = f"s{member.system}_{member.model}.xmrt"
        save_tensor(os.path.join(base, name),
                    np.full((3, 2), np.finfo(float).max))
        entries.append({"system": member.system, "model": member.model,
                        "path": name})
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {"matrices": entries, "row": "E1"},
    })
    assert main(["ensemble-apply", "--config", cfg]) == 1
    assert "fusion overflowed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(base, "run", "fused_E1.xmrt"))


def test_ensemble_apply_unknown_row_returns_1(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {"matrices": [{"system": 2, "model": "passt",
                                   "path": "a.xmrt"}],
                     "row": "E9"},
    })
    save_tensor(os.path.join(str(tmp_path), "a.xmrt"), np.eye(2))
    assert main(["ensemble-apply", "--config", cfg]) == 1
    assert ("config key ensemble.row must be one of ('E1', 'E2', 'E3', "
            "'E4'), got 'E9'") in capsys.readouterr().err


def test_ensemble_apply_without_a_table_member_returns_1(tmp_path, capsys):
    base = str(tmp_path)
    entries = []
    for member in bundled_weight_table()["E1"].members[:-1]:
        name = f"s{member.system}_{member.model}.xmrt"
        save_tensor(os.path.join(base, name), np.eye(2))
        entries.append({"system": member.system, "model": member.model,
                        "path": name})
    cfg = _write_config(tmp_path, {"out_dir": "run",
                                   "ensemble": {"matrices": entries}})
    assert main(["ensemble-apply", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: ensemble.matrices lacks an entry for (5, 'beats')\n")
    assert not os.path.exists(os.path.join(base, "run"))


@pytest.mark.parametrize("command, options", [
    ("ensemble-search", {}),
    ("ensemble-search", {"hierarchical": True}),
    ("ensemble-apply", {}),
], ids=["flat-search", "hierarchical-search", "apply"])
@pytest.mark.parametrize("tags", [
    [([1], "a"), (2, "b")],
    [(True, "a"), (2, "b")],
    [(1, "a"), (1, "a")],
], ids=["list-system", "bool-system", "repeated-pair"])
def test_ensemble_member_tags_are_checked(tmp_path, capsys, command,
                                          options, tags):
    base = str(tmp_path)
    entries = []
    for i, (system, model) in enumerate(tags):
        save_tensor(os.path.join(base, f"m{i}.xmrt"), (i + 1) * np.eye(4))
        entries.append({"system": system, "model": model,
                        "path": f"m{i}.xmrt"})
    write_relevance(os.path.join(base, "rel.tsv"),
                    [(f"q{i}", (str(i),)) for i in range(4)])
    cfg = _write_config(tmp_path, {
        "out_dir": "run",
        "ensemble": {"matrices": entries, "relevance": "rel.tsv",
                     **options},
    })
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "ensemble.matrices[" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, section, entries, message", [
    ("ensemble-search", "ensemble",
     [{"system": 0, "model": "a", "path": "a.xmrt", "wieght": 0.9}],
     "unknown config key ensemble.matrices[0].'wieght'"),
    ("ensemble-apply", "ensemble",
     [{"system": 0, "model": "a", "path": "a.xmrt"},
      {"system": 1, "model": "b"}],
     "config key ensemble.matrices[1] lacks 'path'"),
    ("ensemble-search", "ensemble",
     [{"system": True, "model": "a", "path": "a.xmrt"}],
     "config key ensemble.matrices[0].system must be int or str, got true"),
    ("ensemble-search", "ensemble",
     [{"system": [1], "model": "a", "path": "a.xmrt"}],
     "config key ensemble.matrices[0].system must be int or str, got [1]"),
    ("ensemble-search", "ensemble", ["a.xmrt"],
     'config key ensemble.matrices[0] must be an object, got "a.xmrt"'),
    ("finetune", "teachers", ["run/checkpoints/pretrain", 3],
     "config key stages.finetune.teachers[1] must be str, got 3"),
], ids=["unknown-key", "missing-key", "bool-system", "list-system",
        "not-an-object", "teacher-not-a-string"])
def test_a_list_entry_is_typed_when_the_config_loads(
        tmp_path, capsys, command, section, entries, message):
    payload = _read_json(_search_config(tmp_path))
    if section == "teachers":
        payload["stages"] = {"finetune": {"teachers": entries}}
    else:
        payload["ensemble"]["matrices"] = entries
    cfg = _write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


def test_ensemble_search_subnormal_step_returns_1(tmp_path, capsys):
    cfg = _search_config(tmp_path, step=1e-310)
    assert main(["ensemble-search", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step must be in (0, 1]")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, name", [
    ("ensemble-search", "rel.tsv"), ("pretrain", "manifest.tsv")])
def test_input_that_is_not_utf8_returns_1(tmp_path, capsys, command, name):
    cfg = _search_config(tmp_path, data={"manifest": "manifest.tsv"})
    path = os.path.join(str(tmp_path), name)
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe")
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


def test_ensemble_search_index_past_int64_returns_1(tmp_path, capsys):
    cfg = _search_config(tmp_path)
    write_relevance(os.path.join(str(tmp_path), "rel.tsv"),
                    [("q0", ("0",)), ("q1", ("99999999999999999999",))])
    assert main(["ensemble-search", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: query 'q1' lists a gallery index outside "
                          "int64")
    assert "Traceback" not in err


def test_ensemble_search_requires_matrices(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"out_dir": "run", "ensemble": {}})
    assert main(["ensemble-search", "--config", cfg]) == 1
    assert "ensemble.matrices" in capsys.readouterr().err


def test_ensemble_search_past_the_member_limit_returns_1(tmp_path, capsys):
    payload = _read_json(_search_config(tmp_path))
    payload["ensemble"]["matrices"] = [
        {"system": i, "model": "a", "path": "a.xmrt"} for i in range(13)]
    cfg = _write_config(tmp_path, payload)
    assert main(["ensemble-search", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: 13 members exceeds the limit of 12\n")


@pytest.mark.parametrize("hierarchical", [None, False])
def test_a_flat_search_rejects_a_strategy_before_loading(
        tmp_path, capsys, monkeypatch, hierarchical):
    # a flat search combines no axis first, so a strategy would be a label
    def no_load(*args):
        raise AssertionError("loaded a matrix")
    monkeypatch.setattr(cli, "load_tensor", no_load)
    payload = _read_json(_search_config(tmp_path))
    payload["ensemble"]["strategy"] = "model-first"
    if hierarchical is not None:
        payload["ensemble"]["hierarchical"] = hierarchical
    cfg = _write_config(tmp_path, payload)
    assert main(["ensemble-search", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: config key ensemble.strategy needs "
        "ensemble.hierarchical: true\n")
    assert not os.path.exists(os.path.join(str(tmp_path), "run"))


# ------------------------------------------------------------------- report


def test_report_with_no_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"out_dir": "empty"})
    assert main(["report", "--config", cfg]) == 0
    assert "nothing to report" in capsys.readouterr().out


def test_report_rejects_a_torn_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"out_dir": "run"})
    path = os.path.join(str(tmp_path), "run", "summaries", "pretrain.json")
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"final_total": 0.51, "st')
    assert main(["report", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err
