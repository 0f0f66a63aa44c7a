"""The three benchmark workloads: inputs from a seed, op chains, checks.

Each workload is a closed loop with one client: a chain of ``xmrt`` CLI
subcommands called in-process through ``xmrt.cli.main(argv)``, each op
starting when the op before it has written its artifacts.  The chain is
repeated into fresh directories for the measured time; every repeat must
produce byte-identical artifacts.

- ``protocol_b16``: the whole three-stage protocol at batch 16 on
  ``gen-fixtures`` data.  Per-step Python overhead (AdamW dict loop,
  ``ModelParams.with_tensors`` rebuilds, step records) dominates here.
- ``distill_b256``: the same chain at batch 256 on a corpus with 8
  planted latent centres, clustered through a planted checkpoint.  The
  teacher-target path (``ensemble_average``) and the dense n*n*r
  clustering array dominate; per-step overhead is small.
- ``fusion_search``: no training.  ``evaluate`` on 1,000 audios x 5,000
  captions, then a flat and a hierarchical ``ensemble-search``.  Ranking
  and the weight search dominate; one member is quantized so exact score
  ties are common.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from xmrt import checkpoints, cli, datasets, tensorfile
from xmrt.encoders import LinearEncoder, ModelParams
from xmrt.fixtures import split_sizes

N_TEACHERS = 3
CAPTIONS_PER_AUDIO = 5   # fusion_search's test split
SETUP_SECONDS = 2.0      # set-ups repeat this long (3 to 50 of them)
SETUP_REPEATS = (3, 50)
MAX_REPEATS = 200


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work one chain does."""

    n_items: int                    # corpus items (fusion: gallery audios)
    epochs: tuple = (0, 0, 0)       # pretrain, finetune, refinetune
    batch_size: int = 16
    mix_count: int = 0              # finetune mixes; fills the last batch
    peak_lr: float = 1e-2
    radius: float = 1.0
    min_clusters: int = 1
    map_floor: float = 0.5          # test mAP@10 the planted data ensures
    val_queries: int = 200
    grid_step: float = 0.1


FULL = {
    "protocol_b16": Sizes(n_items=2048, epochs=(5, 5, 5), batch_size=16,
                          mix_count=7, peak_lr=1e-2, radius=3.0,
                          min_clusters=1, map_floor=0.9),
    "distill_b256": Sizes(n_items=4096, epochs=(6, 2, 4), batch_size=256,
                          peak_lr=5e-2, radius=1.2, min_clusters=2,
                          map_floor=0.9),
    "fusion_search": Sizes(n_items=1000, map_floor=0.6),
}

# Small enough for the benchmark's own tests; same code paths.
SMALL = {
    "protocol_b16": replace(FULL["protocol_b16"], n_items=256,
                            epochs=(1, 2, 1), mix_count=13, map_floor=0.0),
    "distill_b256": replace(FULL["distill_b256"], n_items=512,
                            epochs=(1, 2, 1), batch_size=64, map_floor=0.0),
    "fusion_search": replace(FULL["fusion_search"], n_items=60,
                             val_queries=30, grid_step=0.5, map_floor=0.0),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the artifacts it must reproduce exactly."""

    label: str
    argv: tuple
    artifacts: tuple                # paths relative to the repeat dir
    check: object = None            # check(rep_dir, result) -> error or None


class OpFailed(Exception):
    pass


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(root, paths):
    """sha256 over the named files and directory trees, paths included."""
    h = hashlib.sha256()
    for rel in paths:
        full = os.path.join(root, rel)
        files = [full]
        if os.path.isdir(full):
            files = sorted(os.path.join(d, f) for d, _, names in os.walk(full)
                           for f in names)
        for path in files:
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------- inputs


def _views(rng, d_latent=8, d_audio=32, d_text=24):
    return (rng.standard_normal((d_audio, d_latent)),
            rng.standard_normal((d_text, d_latent)))


def _planted_params(view_a, view_b, d_emb=16):
    """Encoders that map features back onto the latent (zero-padded)."""
    def enc(view, modality):
        w = np.zeros((d_emb, view.shape[0]))
        w[:view.shape[1]] = np.linalg.pinv(view)
        return LinearEncoder(w, np.zeros(d_emb), modality)
    return ModelParams(enc(view_a, "audio"), enc(view_b, "text"))


def _nearest_others(latents, gallery, paired, counts):
    """Per query: paired id, then the counts[q]-1 nearest other ids."""
    # Gram form: an (n, g, d) difference array would dominate peak RSS.
    d2 = ((latents ** 2).sum(axis=1)[:, None] - 2.0 * latents @ gallery.T
          + (gallery ** 2).sum(axis=1)[None, :])
    take = min(int(counts.max()) + 1, gallery.shape[0])
    near = np.argpartition(d2, take - 1, axis=1)[:, :take]
    rows = []
    for q in range(latents.shape[0]):
        cand = sorted(near[q], key=lambda g: (d2[q, g], g))
        rest = [int(g) for g in cand if g != paired[q]]
        rows.append([int(paired[q])] + rest[:counts[q] - 1])
    return rows


def _write_corpus(out, audio, text, items, relevance, d_audio, d_text):
    os.makedirs(out, exist_ok=True)
    tensorfile.save_tensor(os.path.join(out, "audio.xmrt"), audio)
    tensorfile.save_tensor(os.path.join(out, "text.xmrt"), text)
    manifest = datasets.Manifest(
        items=tuple(datasets.ManifestItem(
            audio_id=f"a{a:05d}", caption_id=f"c{c:05d}",
            audio_ref=f"audio.xmrt:{a}", caption_ref=f"text.xmrt:{c}",
            split=split) for a, c, split in items),
        d_audio=d_audio, d_text=d_text)
    datasets.write_manifest(os.path.join(out, "manifest.tsv"), manifest)
    for split, entries in relevance.items():
        datasets.write_relevance(os.path.join(out, f"relevance_{split}.tsv"),
                                 entries)


def setup_protocol(inputs, seed, sizes):
    """gen-fixtures through the CLI: the protocol corpus is the fixture."""
    _write_json(os.path.join(inputs, "fixtures.json"),
                {"fixtures": {"n_items": sizes.n_items}})
    rc, err = call_cli(("gen-fixtures", "--config", "fixtures.json",
                        "--out", "data", "--seed", str(seed)), inputs)
    if rc != 0:
        raise OpFailed(f"gen-fixtures exit {rc}: {err}")


def _distill_split(sizes):
    """Train rows are a whole number of batches, the rest split evenly."""
    n = sizes.n_items
    n_train = int(0.7 * n) // sizes.batch_size * sizes.batch_size
    n_val = (n - n_train) // 2
    return n_train, n_val


def setup_distill(inputs, seed, sizes):
    """Items drawn around 8 planted centres, plus a planted
    checkpoint whose text encoder recovers the latents for clustering."""
    rng = np.random.default_rng([seed, 256])
    view_a, view_b = _views(rng)
    while True:   # centres in a 5-d subspace, pairwise >= 5 apart
        centres = np.zeros((8, 8))
        centres[:, :5] = 4.0 * rng.standard_normal((8, 5))
        gaps = np.linalg.norm(centres[:, None] - centres[None], axis=2)
        if gaps[np.triu_indices(8, 1)].min() >= 5.0:
            break
    n = sizes.n_items
    # Tight within a centre's 5 dims, wide in the other 3, so items stay
    # tellable apart for retrieval while the 5-d clusters stay separate.
    spread = np.array([0.3] * 5 + [1.0] * 3)
    latents = (centres[rng.integers(0, 8, n)]
               + spread * rng.standard_normal((n, 8)))
    audio = latents @ view_a.T + 0.05 * rng.standard_normal((n, 32))
    text = latents @ view_b.T + 0.05 * rng.standard_normal((n, 24))
    n_train, n_val = _distill_split(sizes)
    splits = ["train" if i < n_train else "val" if i < n_train + n_val
              else "test" for i in range(n)]
    relevance = {s: [(f"c{i:05d}", (f"a{i:05d}",)) for i in range(n)
                     if splits[i] == s] for s in ("train", "val", "test")}
    _write_corpus(os.path.join(inputs, "data"), audio, text,
                  [(i, i, splits[i]) for i in range(n)], relevance, 32, 24)
    checkpoints.save_checkpoint(os.path.join(inputs, "planted"),
                                _planted_params(view_a, view_b))


def setup_fusion(inputs, seed, sizes):
    """Test split of n audios x 5n captions with 1-5 relevant ids each,
    a planted checkpoint, and four val similarity members."""
    rng = np.random.default_rng([seed, 1000])
    view_a, view_b = _views(rng)
    n, per = sizes.n_items, CAPTIONS_PER_AUDIO
    z_audio = rng.standard_normal((n, 8))
    owner = np.repeat(np.arange(n), per)
    z_caption = z_audio[owner] + 0.3 * rng.standard_normal((n * per, 8))
    audio = z_audio @ view_a.T + 0.05 * rng.standard_normal((n, 32))
    text = z_caption @ view_b.T + 0.05 * rng.standard_normal((n * per, 24))
    rel = _nearest_others(z_caption, z_audio, owner,
                          rng.integers(1, 6, n * per))
    entries = [(f"c{c:05d}", tuple(f"a{g:05d}" for g in ids))
               for c, ids in enumerate(rel)]
    _write_corpus(os.path.join(inputs, "data"), audio, text,
                  [(owner[c], c, "test") for c in range(n * per)],
                  {"test": entries}, 32, 24)
    checkpoints.save_checkpoint(os.path.join(inputs, "planted"),
                                _planted_params(view_a, view_b))

    q = sizes.val_queries
    paired = rng.choice(n, q, replace=False)
    z_val = z_audio[paired] + 0.3 * rng.standard_normal((q, 8))
    unit = lambda z: z / np.linalg.norm(z, axis=1, keepdims=True)
    truth = unit(z_audio) @ unit(z_val).T          # gallery x queries
    members = os.path.join(inputs, "members")
    os.makedirs(members)
    for k, sigma in enumerate((0.15, 0.25, 0.2, 0.3)):
        m = truth + sigma * rng.standard_normal(truth.shape)
        if k == 2:
            m = np.round(m, 1)     # coarse scores: exact ties are common
        tensorfile.save_tensor(os.path.join(members, f"m{k}.xmrt"), m)
    val_rel = _nearest_others(z_val, z_audio, paired, rng.integers(1, 6, q))
    datasets.write_relevance(os.path.join(members, "relevance_val.tsv"),
                             [(f"v{i}", tuple(ids))
                              for i, ids in enumerate(val_rel)])


# ---------------------------------------------------------------- chains


def _check_steps(out, stage, n_rows, sizes, epochs):
    def check(rep_dir, result):
        summary = _read_json(os.path.join(rep_dir, out, "summaries",
                                          f"{stage}.json"))
        expected = epochs * (n_rows // sizes.batch_size)
        result["pairs"] = summary["steps"] * sizes.batch_size
        if summary["steps"] != expected:
            return f"{summary['steps']} {stage} steps, expected {expected}"
        return None
    return check


def _check_clusters(sizes):
    def check(rep_dir, result):
        with open(os.path.join(rep_dir, "student", "labels.tsv"),
                  encoding="utf-8") as fh:
            k = len(fh.readline().rstrip("\n").split("\t")) - 2
        result["k"] = k
        if k < sizes.min_clusters:
            return f"cluster found k={k}, need >= {sizes.min_clusters}"
        return None
    return check


def _check_report(out, sizes):
    def check(rep_dir, result):
        report = _read_json(os.path.join(rep_dir, out,
                                         "report_test_multiple.json"))
        result["queries"] = report["query_count"]
        result["map_at_10"] = report["map_at_10"]
        if not report["map_at_10"] >= sizes.map_floor:
            return (f"test map_at_10 {report['map_at_10']} below the "
                    f"planted floor {sizes.map_floor}")
        return None
    return check


def _check_search(out, member_maps):
    def check(rep_dir, result):
        found = _read_json(os.path.join(rep_dir, out, "ensemble_search.json"))
        result["points"] = found["points_evaluated"]
        result["map_at_16"] = found["map_at_16"]
        best = max(member_maps) if member_maps else -1.0
        if found["map_at_16"] < best - 1e-12:
            return (f"search map_at_16 {found['map_at_16']} below its best "
                    f"member's {best}")
        return None
    return check


def training_chain(rep_dir, seed, sizes, expect, *, planted_clusters):
    """3 teacher pretrains, student pretrain, finetune, cluster,
    refinetune, evaluate."""
    e_pre, e_fine, e_re = sizes.epochs
    n_train = (_distill_split(sizes)[0] if planted_clusters
               else split_sizes(sizes.n_items)[0])
    base = {
        "data": {"manifest": "../inputs/data/manifest.tsv"},
        "model": {"d_emb": 16},
        "schedule": {"peak_lr": sizes.peak_lr,
                     "floor_lr": sizes.peak_lr / 100},
        "stages": {"pretrain": {"epochs": e_pre,
                                "batch_size": sizes.batch_size}},
    }
    ops = []
    for t in range(N_TEACHERS + 1):
        name = f"t{t}" if t < N_TEACHERS else "student"
        _write_json(os.path.join(rep_dir, f"{name}.json"),
                    dict(base, seed=seed * 10 + t, out_dir=name))
        ops.append(Op(f"pretrain:{name}",
                      ("pretrain", "--config", f"{name}.json"),
                      (f"{name}/checkpoints/pretrain",
                       f"{name}/summaries/pretrain.json"),
                      _check_steps(name, "pretrain", n_train, sizes, e_pre)))
    student = dict(base, seed=seed * 10 + N_TEACHERS, out_dir="student")
    student["stages"] = dict(
        base["stages"],
        finetune={"epochs": e_fine, "batch_size": sizes.batch_size,
                  "teachers": [f"t{t}/checkpoints/pretrain"
                               for t in range(N_TEACHERS)]},
        refinetune={"epochs": e_re, "batch_size": sizes.batch_size})
    student["augmentation"] = {"mix_count": sizes.mix_count}
    student["clustering"] = {"neighborhood_radius": sizes.radius}
    if planted_clusters:
        student["clustering"]["checkpoint"] = "../inputs/planted"
    _write_json(os.path.join(rep_dir, "student.json"), student)
    cfg = ("--config", "student.json")
    ops += [
        Op("finetune", ("finetune", *cfg),
           ("student/checkpoints/finetune", "student/summaries/finetune.json"),
           _check_steps("student", "finetune", n_train + sizes.mix_count,
                        sizes, e_fine)),
        Op("cluster", ("cluster", *cfg),
           ("student/labels.tsv", "student/audio_labels.tsv"),
           _check_clusters(sizes)),
        Op("refinetune", ("refinetune", *cfg),
           ("student/checkpoints/refinetune",
            "student/summaries/refinetune.json"),
           _check_steps("student", "refinetune", n_train, sizes, e_re)),
        Op("evaluate", ("evaluate", *cfg),
           ("student/report_test_multiple.json",),
           _check_report("student", sizes)),
    ]
    return ops


def fusion_chain(rep_dir, seed, sizes, maps):
    """evaluate on the planted checkpoint, then flat and hierarchical
    ensemble-search over the val members."""
    tags = [(1, "passt"), (1, "eat"), (2, "passt"), (2, "eat")]
    def members(ks):
        return [{"system": tags[k][0], "model": tags[k][1],
                 "path": f"../inputs/members/m{k}.xmrt"} for k in ks]
    search = {"step": sizes.grid_step,
              "relevance": "../inputs/members/relevance_val.tsv"}
    _write_json(os.path.join(rep_dir, "evaluate.json"), {
        "data": {"manifest": "../inputs/data/manifest.tsv"},
        "evaluate": {"checkpoint": "../inputs/planted", "split": "test"},
        "out_dir": "eval"})
    _write_json(os.path.join(rep_dir, "flat.json"), {
        "ensemble": dict(search, matrices=members([0, 1, 2])),
        "out_dir": "flat"})
    _write_json(os.path.join(rep_dir, "hier.json"), {
        "ensemble": dict(search, matrices=members([0, 1, 2, 3]),
                         hierarchical=True),
        "out_dir": "hier"})
    return [
        Op("evaluate", ("evaluate", "--config", "evaluate.json"),
           ("eval/report_test_multiple.json",), _check_report("eval", sizes)),
        Op("ensemble-search:flat",
           ("ensemble-search", "--config", "flat.json"),
           ("flat/ensemble_search.json",),
           _check_search("flat", maps)),
        Op("ensemble-search:hier",
           ("ensemble-search", "--config", "hier.json"),
           ("hier/ensemble_search.json",), _check_search("hier", [])),
    ]


def map_at_k_reference(sim, relevance, k):
    """Independent mAP@k: rank = #higher + #equal at a lower index + 1."""
    total = 0.0
    for q, rel in enumerate(relevance):
        col = sim[:, q]
        hits = []
        for g in rel:
            rank = (int((col > col[g]).sum())
                    + int((col[:g] == col[g]).sum()) + 1)
            if rank <= k:
                hits.append(rank)
        hits.sort()
        total += sum((i + 1) / r for i, r in enumerate(hits)) / min(len(rel),
                                                                    k)
    return total / len(relevance)


def member_maps(inputs):
    """mAP@16 of each flat-search member alone, by the reference rule."""
    path = os.path.join(inputs, "members", "relevance_val.tsv")
    relevance = [tuple(int(g) for g in ids)
                 for _, ids in datasets.read_relevance(path)]
    return [map_at_k_reference(tensorfile.load_tensor(
        os.path.join(inputs, "members", f"m{k}.xmrt")), relevance, 16)
        for k in range(3)]


WORKLOADS = {    # name -> (set-up, chain)
    "protocol_b16": (setup_protocol,
                     partial(training_chain, planted_clusters=False)),
    "distill_b256": (setup_distill,
                     partial(training_chain, planted_clusters=True)),
    "fusion_search": (setup_fusion, fusion_chain),
}


# ---------------------------------------------------------------- runner


_PROBE_DATA = np.random.default_rng(0).random(1000)


def reference_probe():
    """Seconds for a fixed mix of small numpy calls and a Python loop.

    Timed next to every op, it tracks how fast the machine is running at
    that moment: on a shared host that speed drifts by up to ~1.7x for
    minutes at a time, and op time divided by probe time cancels it.
    """
    start = time.perf_counter()
    for _ in range(100):
        np.argsort(-_PROBE_DATA, kind="stable")
        sum(float(x) for x in _PROBE_DATA[:50])
    return time.perf_counter() - start


def call_cli(argv, cwd):
    """``xmrt.cli.main(argv)`` run in ``cwd``; returns (rc, stderr).

    The CLI's own output is captured so the benchmark's stdout ends with
    its result line.  A crash is returned as its traceback in place of
    the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:                  # an op boundary: report, keep going
        rc = traceback.format_exc()
    finally:
        os.chdir(here)
    return rc, err.getvalue().strip()


@dataclass
class Run:
    """Accounting for one benchmark invocation."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)   # op label -> digest
    repeats: list = field(default_factory=list)     # per repeat: op results
    setup_s: list = field(default_factory=list)

    def fail(self, where, error):
        self.failed += 1
        self.errors.append(f"{where}: {error}")
        raise OpFailed(error)

    def compare(self, key, got):
        if self.reference.setdefault(key, got) != got:
            return "artifacts differ from the first repeat"
        return None


class Runner:
    """Runs set-ups and ops with every correctness check.

    ``on_op(repeat, op, rep_dir)`` runs after each op and before its
    checks; the benchmark's tests use it to perturb an artifact.
    """

    def __init__(self, tracer=None, on_op=None):
        self.run = Run()
        self.tracer = tracer
        self.on_op = on_op

    def setup(self, setup, inputs, seed, sizes):
        self.run.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(-1, "setup", "setup")
        os.makedirs(inputs)
        start = time.perf_counter()
        try:
            setup(inputs, seed, sizes)
        except Exception:          # the program's writers raised: a failure
            self.run.fail("setup", traceback.format_exc())
        self.run.setup_s.append(time.perf_counter() - start)
        error = self.run.compare("setup", digest(inputs, sorted(
            os.listdir(inputs))))
        if error is not None:
            self.run.fail("setup", error)

    def op(self, op, rep_dir, repeat):
        """Run one op; returns its result dict or raises OpFailed."""
        self.run.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(repeat, op.label, op.argv[0])
        before = reference_probe()
        start = time.perf_counter()
        rc, err = call_cli(op.argv, rep_dir)
        result = {"label": op.label, "command": op.argv[0],
                  "wall_s": time.perf_counter() - start,
                  "probes_s": (before, reference_probe())}
        where = f"repeat {repeat} {op.label}"
        if rc != 0:
            self.run.fail(where, f"exit {rc}: {err}")
        if self.on_op is not None:
            self.on_op(repeat, op, rep_dir)
        try:
            error = op.check(rep_dir, result) if op.check else None
            if error is None:
                error = self.run.compare(op.label,
                                         digest(rep_dir, op.artifacts))
        except (OSError, ValueError, KeyError) as exc:
            error = f"artifacts unreadable: {exc!r}"
        if error is not None:
            self.run.fail(where, error)
        return result

    def trace(self, on):
        if self.tracer is None:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()


def run_workload(name, seed, seconds, work_dir, *, sizes=None, tracer=None,
                 on_op=None):
    """Set up, then repeat the chain for ``seconds``; returns the Run.

    With a ``tracer`` the set-ups are traced, the first half of the time
    runs untraced and the rest traced, so the two passes' artifacts are
    compared and the tracing overhead is measured.  Every repeat must
    match the first repeat's artifact digests.
    """
    setup, chain = WORKLOADS[name]
    sizes = sizes or FULL[name]
    runner = Runner(tracer=tracer, on_op=on_op)
    run = runner.run
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner.trace(True)
        start = time.perf_counter()
        least, most = SETUP_REPEATS
        while len(run.setup_s) < least or (
                len(run.setup_s) < most
                and time.perf_counter() - start < SETUP_SECONDS):
            inputs = os.path.join(work_dir, f"inputs{len(run.setup_s)}")
            runner.setup(setup, inputs, seed, sizes)
            if len(run.setup_s) > 1:
                shutil.rmtree(inputs)
        runner.trace(False)
        inputs = os.path.join(work_dir, "inputs")
        os.rename(os.path.join(work_dir, "inputs0"), inputs)
        expect = member_maps(inputs) if name == "fusion_search" else None

        traced = tracer is not None
        untraced_s = seconds / 2 if traced else seconds
        start = time.perf_counter()
        for repeat in range(MAX_REPEATS):
            elapsed = time.perf_counter() - start
            last = run.repeats[-1]["wall_s"] if run.repeats else 0.0
            in_trace = traced and repeat >= 1 and elapsed + last > untraced_s
            n_timed = sum(r["traced"] == traced for r in run.repeats)
            if n_timed >= (1 if traced else 2) and elapsed + last > seconds:
                break
            if in_trace and not run.repeats[-1]["traced"]:
                runner.trace(True)
            rep_dir = os.path.join(work_dir, f"rep{repeat}")
            os.makedirs(rep_dir)
            ops = chain(rep_dir, seed, sizes, expect)
            results = [runner.op(op, rep_dir, repeat) for op in ops]
            run.repeats.append({"wall_s": sum(r["wall_s"] for r in results),
                                "ops": results, "traced": in_trace,
                                "repeat": repeat})
            if repeat > 0:
                shutil.rmtree(rep_dir)
    except OpFailed:
        pass
    finally:
        runner.trace(False)
    return run
