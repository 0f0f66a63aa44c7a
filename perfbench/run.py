"""xmrt benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload protocol_b16 --seed 1 --seconds 20 \
        --trace 0

Without ``--workload`` every workload runs, each in its own process.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced pass.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only if every op passed its checks.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys

from tracing import Tracer, aggregate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("protocol_b16", "distill_b256", "fusion_search")

# (name, unit, better); the same lists as BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("chain_cost_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("test_map_at_10", "ratio", "higher"),
)
STAGE = (
    ("pretrain_pairs_per_s", "1/s", "higher"),
    ("finetune_pairs_per_s", "1/s", "higher"),
    ("refinetune_pairs_per_s", "1/s", "higher"),
    ("cluster_s", "s", "lower"),
    ("search_points_per_s", "1/s", "higher"),
    ("search_map_at_16", "ratio", "higher"),
    ("eval_queries_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
)
LAYER = (
    ("trace_overhead_frac", "ratio", "lower"),
    ("training.adamw_step.us_per_call", "us", "lower"),
    ("encoders.ModelParams.with_tensors.us_per_call", "us", "lower"),
    ("training.make_batches.us_per_call", "us", "lower"),
    ("training.run_stage.self_ms", "ms", "lower"),
    ("losses.loss_and_gradients.pretrain.us_per_call", "us", "lower"),
    ("losses.loss_and_gradients.finetune.us_per_call", "us", "lower"),
    ("losses.loss_and_gradients.refinetune.us_per_call", "us", "lower"),
    ("losses.student_similarity.calls", "count", "lower"),
    ("losses.student_similarity.us_per_call", "us", "lower"),
    ("losses.student_similarity.teacher_rows", "count", "lower"),
    ("losses.student_similarity.distinct_teacher_rows", "count", "lower"),
    ("losses.teacher_rows_per_distinct_row", "ratio", "lower"),
    ("losses.ensemble_average.us_per_call", "us", "lower"),
    ("losses.ensemble_average.finetune_self_share", "ratio", "lower"),
    ("losses.targets_from_teacher_sims.self_ms", "ms", "lower"),
    ("clustering.reduce_dimensionality.self_ms", "ms", "lower"),
    ("clustering.density_cluster.self_ms", "ms", "lower"),
    ("clustering.reassign_outliers.self_ms", "ms", "lower"),
    ("clustering.density_cluster.pairwise_bytes", "bytes", "lower"),
    ("evaluation.evaluate.us_per_query", "us", "lower"),
    ("evaluation.evaluate.queries", "count", "lower"),
    ("evaluation.rank_gallery.calls", "count", "lower"),
    ("evaluation.rank_gallery.calls_per_query", "ratio", "lower"),
    ("ensemble.evaluate.us_per_call", "us", "lower"),
    ("ensemble.grid_search.self_ms", "ms", "lower"),
    ("ensemble.fuse.us_per_call", "us", "lower"),
    ("tensorfile.save_tensor.calls", "count", "lower"),
    ("tensorfile.save_tensor.bytes", "bytes", "lower"),
    ("tensorfile.save_tensor.self_ms", "ms", "lower"),
    ("tensorfile.load_tensor.calls", "count", "lower"),
    ("tensorfile.load_tensor.bytes", "bytes", "lower"),
    ("tensorfile.load_tensor.self_ms", "ms", "lower"),
    ("checkpoints.save_checkpoint.self_ms", "ms", "lower"),
    ("checkpoints.load_checkpoint.self_ms", "ms", "lower"),
    ("datasets.load_paired_dataset.self_ms", "ms", "lower"),
    ("config.load_config.us_per_call", "us", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("fixtures.generate_fixtures.self_ms", "ms", "lower"),
)
PER_LAYER = STAGE + LAYER


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def op_medians(reps):
    """label -> (median wall_s over the repeats, first repeat's result).

    A median per op keeps a sample that ran through a slow spell of a
    shared machine out of the figure.
    """
    walls = {}
    for rep in reps:
        for op in rep["ops"]:
            walls.setdefault(op["label"], []).append(op["wall_s"])
    return {op["label"]: (statistics.median(walls[op["label"]]), op)
            for op in reps[0]["ops"]}


def chain_cost_ref(reps):
    """The chain's wall time in reference-probe units.

    Each op's wall is divided by the median probe time of its repeat;
    per-op medians of that are summed, as for ``wall_s``.
    """
    costs = {}
    for rep in reps:
        ref = statistics.median(p for op in rep["ops"]
                                for p in op["probes_s"])
        for op in rep["ops"]:
            costs.setdefault(op["label"], []).append(op["wall_s"] / ref)
    return sum(statistics.median(c) for c in costs.values())


def stage_metrics(reps):
    """Stage figures from untraced repeats; 0 where the stage is absent."""
    meds = op_medians(reps)

    def rate(command, key):
        chosen = [(w, op) for w, op in meds.values()
                  if op["command"] == command]
        return _ratio(sum(op[key] for _, op in chosen),
                      sum(w for w, _ in chosen))

    def first(label, key):
        return meds[label][1][key] if label in meds else 0.0

    return {
        "pretrain_pairs_per_s": rate("pretrain", "pairs"),
        "finetune_pairs_per_s": rate("finetune", "pairs"),
        "refinetune_pairs_per_s": rate("refinetune", "pairs"),
        "cluster_s": meds["cluster"][0] if "cluster" in meds else 0.0,
        "search_points_per_s": rate("ensemble-search", "points"),
        "search_map_at_16": first("ensemble-search:flat", "map_at_16"),
        "eval_queries_per_s": rate("evaluate", "queries"),
        "test_map_at_10": first("evaluate", "map_at_10"),
        "wall_s": sum(w for w, _ in meds.values()),
        "cluster_k": first("cluster", "k"),
    }


def end_to_end(run):
    reps = [r for r in run.repeats if not r["traced"]]
    stage = stage_metrics(reps)
    return {
        "setup_s": _median(run.setup_s),
        "chain_cost_ref": chain_cost_ref(reps),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_map_at_10": stage["test_map_at_10"],
    }


def layer_metrics(stats, distinct_rows, finetune_wall_s):
    """Per-layer figures from one traced repeat's aggregate."""
    def get(key, field):
        return stats[key][field] if key in stats else 0

    def us_per_call(key):
        return 1e6 * _ratio(get(key, "total_s"), get(key, "calls"))

    def self_ms(key):
        return 1e3 * get(key, "self_s")

    out = {}
    for name, _, _ in LAYER:
        parts = name.split(".")
        stat = parts[-1]
        if stat in ("us_per_call", "self_ms", "calls") and len(parts) >= 3:
            key = ".".join(parts[:-1])
            if parts[-2] in ("pretrain", "finetune", "refinetune"):
                key = (".".join(parts[:-2]), parts[-2])
            out[name] = {"us_per_call": us_per_call, "self_ms": self_ms,
                         "calls": lambda k: get(k, "calls")}[stat](key)
    rows = get("losses.student_similarity", "value")
    queries = (get("evaluation.evaluate", "value")
               + get("ensemble.evaluate", "value"))
    out.update({
        "losses.student_similarity.teacher_rows": rows,
        "losses.student_similarity.distinct_teacher_rows": distinct_rows,
        "losses.teacher_rows_per_distinct_row": _ratio(rows, distinct_rows),
        "losses.ensemble_average.finetune_self_share": _ratio(
            get(("losses.ensemble_average", "finetune"), "self_s"),
            finetune_wall_s),
        "clustering.density_cluster.pairwise_bytes": _ratio(
            get("clustering.density_cluster", "value"),
            get("clustering.density_cluster", "calls")),
        "evaluation.evaluate.us_per_query": 1e6 * _ratio(
            get("evaluation.evaluate", "total_s"),
            get("evaluation.evaluate", "value")),
        "evaluation.evaluate.queries": queries,
        "evaluation.rank_gallery.calls_per_query": _ratio(
            get("evaluation.rank_gallery", "calls"), queries),
        "tensorfile.save_tensor.bytes": get("tensorfile.save_tensor",
                                            "value"),
        "tensorfile.load_tensor.bytes": get("tensorfile.load_tensor",
                                            "value"),
    })
    return out


def per_layer(run, tracer):
    untraced = [r for r in run.repeats if not r["traced"]]
    traced = [r for r in run.repeats if r["traced"]]
    by_repeat = []
    for rep in traced:
        op_ids = [i for i, op in enumerate(tracer.ops) if op[0] ==
                  rep["repeat"]]
        by_repeat.append(layer_metrics(
            aggregate(tracer.spans, tracer.ops, op_ids),
            sum(len(tracer.teacher_rows[i]) for i in op_ids),
            sum(o["wall_s"] for o in rep["ops"]
                if o["command"] == "finetune")))
    out = {name: _median([m[name] for m in by_repeat])
           for name in by_repeat[0]}
    setup_ids = [i for i, op in enumerate(tracer.ops) if op[0] == -1]
    out["fixtures.generate_fixtures.self_ms"] = _median([
        1e3 * aggregate(tracer.spans, tracer.ops, [i]).get(
            "fixtures.generate_fixtures", {"self_s": 0.0})["self_s"]
        for i in setup_ids])
    stage = stage_metrics(untraced)
    out.update({name: stage[name] for name, _, _ in STAGE})
    plain = chain_cost_ref(untraced)
    out["trace_overhead_frac"] = _ratio(chain_cost_ref(traced) - plain,
                                        plain)
    return out


def environment():
    """Where the figures were measured."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    ref = fh.read().strip()
        commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _import_xmrt():
    """Put the checkout's src/ first on the path; fail if it is missing."""
    if not os.path.exists(os.path.join(SRC, "xmrt", "__init__.py")):
        print(f"error: no xmrt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def run_one(name, seed, seconds, trace):
    _import_xmrt()
    import workloads

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    tracer = Tracer() if trace else None
    try:
        run = workloads.run_workload(name, seed, seconds, work,
                                     tracer=tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = run.failed == 0 and bool(run.repeats)
    specs = PER_LAYER if trace else END_TO_END
    values = {}
    if correct:
        values = per_layer(run, tracer) if trace else end_to_end(run)
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in specs
               if n in values}
    env = environment()
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(run.repeats)} repeats, {run.attempted} ops, "
          f"{run.failed} failed")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"metric ops_failed_frac = {_ratio(run.failed, run.attempted)} "
          f"ratio")
    if correct and not trace:
        stage = stage_metrics([r for r in run.repeats if not r["traced"]])
        for n, u, _ in STAGE:      # shown here, bound-free: see README
            print(f"metric {n} = {stage[n]:.6g} {u} (untraced)")
        print(f"metric cluster_k = {stage['cluster_k']} count")
    for n, m in metrics.items():
        print(f"metric {n} = {m['value']:.6g} {m['unit']}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "environment": env,
                   "errors": run.errors, "setup_walls_s": run.setup_s,
                   "repeats": [{"traced": r["traced"],
                                "ops": {o["label"]: o["wall_s"]
                                        for o in r["ops"]},
                                "probe_s": statistics.median(
                                    p for o in r["ops"]
                                    for p in o["probes_s"])}
                               for r in run.repeats],
                   "metrics": metrics}, fh, indent=2, sort_keys=True)
    if trace and correct:
        path = os.path.join(OUT, "spans", f"{tag}.jsonl")
        first = next(r["repeat"] for r in run.repeats if r["traced"])
        tracer.write_spans(path, [i for i, op in enumerate(tracer.ops)
                                  if op[0] == first or i == 0])
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
