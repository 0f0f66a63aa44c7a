"""The benchmark's own tests, at small sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from xmrt import losses  # noqa: E402
from xmrt.evaluation import RelevanceMap, evaluate  # noqa: E402


def _run(name, tmp_path, **kwargs):
    return workloads.run_workload(name, 7, 0.5, str(tmp_path / name),
                                  sizes=workloads.SMALL[name], **kwargs)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_smoke_every_metric_is_emitted(name, tmp_path):
    tracer = Tracer()
    run = _run(name, tmp_path, tracer=tracer)
    assert run.failed == 0, run.errors
    assert run.attempted == len(run.setup_s) + sum(
        len(r["ops"]) for r in run.repeats)
    e2e = bench.end_to_end(run)
    layer = bench.per_layer(run, tracer)
    assert set(e2e) == {n for n, _, _ in bench.END_TO_END}
    assert set(layer) == {n for n, _, _ in bench.PER_LAYER}
    assert all(v > 0 for v in e2e.values()), e2e
    assert layer["evaluation.rank_gallery.calls_per_query"] == 1.0
    if name != "fusion_search":
        assert layer["losses.teacher_rows_per_distinct_row"] == \
            workloads.SMALL[name].epochs[1]


def test_perturbed_artifact_counts_as_failed_op(tmp_path):
    def perturb(repeat, op, rep_dir):
        if repeat == 1 and op.label == "ensemble-search:flat":
            with open(os.path.join(rep_dir, op.artifacts[0]), "a") as fh:
                fh.write(" ")

    run = _run("fusion_search", tmp_path, on_op=perturb)
    assert run.failed == 1
    assert "repeat 1 ensemble-search:flat" in run.errors[0]
    assert "artifacts differ" in run.errors[0]
    assert len(run.repeats) == 1      # the run stops at the failure


def test_traced_and_untraced_artifacts_are_identical(tmp_path):
    tracer = Tracer()
    run = _run("protocol_b16", tmp_path, tracer=tracer)
    # Every repeat is digest-checked against the untraced first repeat.
    assert run.failed == 0, run.errors
    assert [r["traced"] for r in run.repeats][:1] == [False]
    assert any(r["traced"] for r in run.repeats)
    assert tracer.spans and not tracer._restore


def test_tracer_restores_the_original_functions():
    original = losses.ensemble_average
    with Tracer():
        assert losses.ensemble_average is not original
    assert losses.ensemble_average is original


def test_reference_map_matches_xmrt_on_ties():
    rng = np.random.default_rng(0)
    sim = np.round(rng.standard_normal((40, 25)), 1)   # many exact ties
    rel = [tuple(rng.choice(40, rng.integers(1, 6), replace=False))
           for _ in range(25)]
    want = evaluate(sim, RelevanceMap(entries=tuple(rel))).map_at_16
    assert abs(workloads.map_at_k_reference(sim, rel, 16) - want) <= 1e-12


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(
        bench.WORKLOAD_NAMES)
