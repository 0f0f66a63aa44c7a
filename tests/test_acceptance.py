"""Acceptance suite: ten system-level criteria, one test per criterion.

Each test prints a single PASS line with its measured quantities once
every assertion holds; a pytest FAILED report is the corresponding fail
signal.  Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import os
import time

import numpy as np
import pytest

from xmrt import (
    ClusterConfig,
    EnsembleSpec,
    LossConfig,
    Member,
    RelevanceMap,
    bundled_weight_table,
    cluster_pipeline,
    cosine_similarity_matrix,
    encode,
    ensemble_average,
    evaluate,
    fuse,
    generate_fixtures,
    grid_search,
    init_params,
    loss_and_gradients,
    run_stage,
    student_similarity,
    targets_from_teacher_sims,
    teacher_soft_targets,
)
from xmrt.checkpoints import save_checkpoint
from xmrt.datasets import (
    align_relevance,
    load_paired_dataset,
    read_relevance,
)
from xmrt.evaluation import METRIC_KEYS
from xmrt.fixtures import MANIFEST_FILE, relevance_file

from conftest import headed_params, identity_batch, named, random_batch


@pytest.fixture(scope="module")
def corpus_256(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus256"))
    generate_fixtures(out, n_items=256, d_latent=8, noise_sigma=0.05,
                      seed=11)
    return out


@pytest.fixture(scope="module")
def corpus_64(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus64"))
    generate_fixtures(out, n_items=64, d_latent=4, d_audio=12, d_text=10,
                      noise_sigma=0.05, seed=21)
    return out


def _retrieval_report(params, corpus, split, mode="multiple"):
    loaded = load_paired_dataset(os.path.join(corpus, MANIFEST_FILE), split)
    sim = cosine_similarity_matrix(
        encode(params.audio_encoder, loaded.gallery_features),
        encode(params.text_encoder, loaded.dataset.text_features))
    entries = read_relevance(os.path.join(corpus, relevance_file(split)))
    relevance = align_relevance(entries, loaded.caption_ids,
                                loaded.gallery_ids)
    return evaluate(sim, relevance, mode)


# 1. analytic gradients of the full objective match finite differences


def _fd_gradient(params, batch, cfg, targets, labels, name, h=1e-5):
    tensors = {k: v.copy() for k, v in params.named_tensors().items()}
    base = tensors[name]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for sign in (+1.0, -1.0):
            bumped = base.copy()
            bumped[idx] += sign * h
            probe = dict(tensors)
            probe[name] = bumped
            grad[idx] += sign * loss_and_gradients(
                params.with_tensors(probe), batch, cfg, targets,
                labels)[0].total
        grad[idx] /= 2.0 * h
        it.iternext()
    return grad


def _worst_relative_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_01_gradient_fidelity():
    start = time.perf_counter()
    cfg = LossConfig(tau=0.05, lambda1=1.0, lambda2=0.05)
    worst = 0.0
    for seed in (0, 1, 2):
        params = headed_params(5, 4, 3, 3, seed=seed)
        batch = random_batch(4, 5, 4, seed=seed + 10)
        teacher = init_params(5, 4, 3, seed=seed + 20)
        targets = targets_from_teacher_sims(
            [student_similarity(teacher, batch)], cfg)
        rng = np.random.default_rng(seed + 30)
        labels = rng.integers(0, 3, size=4)
        _, grads = loss_and_gradients(params, batch, cfg, targets, labels)
        for name in params.named_tensors():
            fd = _fd_gradient(params, batch, cfg, targets, labels, name)
            worst = max(worst, _worst_relative_error(grads[name], fd))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"PASS  1/10 gradient fidelity: max relative error "
          f"{worst:.3e} < 1e-4, runtime {elapsed:.2f}s < 10s")


# 2. supervised and distillation losses hit their closed forms


def _l_sup(audio_rows, text_rows, cfg):
    return loss_and_gradients(*identity_batch(audio_rows, text_rows),
                              cfg)[0].l_sup


def test_02_loss_closed_forms():
    # identity encoders: the rows are the embeddings, so every audio row
    # (1, 0) sits at cosine 0.3 from every caption row (0.3, sqrt(0.91))
    cfg = LossConfig(tau=0.05)
    flat_err = abs(_l_sup([[1.0, 0.0]] * 4, [[0.3, math.sqrt(0.91)]] * 4,
                          cfg) - 2.0 * math.log(4.0))
    assert flat_err < 1e-9

    # an NxN identity at tau=0.05 costs exactly 2(N-1)e^-20 under the
    # same sum-over-directions convention that makes the flat case
    # 2 ln 4, so the 1e-8 ceiling pins N <= 3
    ident = _l_sup(np.eye(3), np.eye(3), cfg)
    assert 0.0 <= ident <= 1e-8
    tail = _l_sup(np.eye(4), np.eye(4), cfg)
    assert abs(tail - 2.0 * math.log1p(3.0 * math.exp(-20.0))) < 1e-15

    entropy_err = 0.0
    rng = np.random.default_rng(7)
    params, batch = identity_batch(rng.standard_normal((5, 3)),
                                   rng.standard_normal((5, 3)))
    sim = student_similarity(params, batch)
    for tau in (0.05, 0.5):
        tau_cfg = LossConfig(tau=tau)
        targets = teacher_soft_targets(sim, tau_cfg)
        pa, pc = targets
        with np.errstate(divide="ignore", invalid="ignore"):
            ha = np.where(pa > 0, -pa * np.log(pa), 0.0).sum(axis=0).mean()
            hc = np.where(pc > 0, -pc * np.log(pc), 0.0).sum(axis=1).mean()
        loss = loss_and_gradients(params, batch, tau_cfg, targets)[0].l_dist
        entropy_err = max(entropy_err, abs(loss - (ha + hc)))
    assert entropy_err < 1e-6
    print(f"PASS  2/10 loss closed forms: flat-matrix error "
          f"{flat_err:.2e} < 1e-9, identity loss {ident:.2e} <= 1e-8 "
          f"(eye(4) tail matches 2*log1p(3e^-20) to 1e-15), "
          f"self-distillation vs entropy {entropy_err:.2e} < 1e-6")


# 3. supervised training recovers a planted cross-modal alignment


def test_03_planted_alignment_recovery(corpus_256):
    start = time.perf_counter()
    train = load_paired_dataset(os.path.join(corpus_256, MANIFEST_FILE),
                                "train")
    params = init_params(32, 24, 16, seed=5)
    before = _retrieval_report(params, corpus_256, "test").map_at_10
    trained, _ = run_stage("pretrain", params, train.dataset, epochs=20,
                           batch_size=16, peak_lr=0.05, floor_lr=1e-4,
                           weight_decay=0.01, seed=5)
    after = _retrieval_report(trained, corpus_256, "test").map_at_10
    elapsed = time.perf_counter() - start
    assert before <= 0.15
    assert after >= 0.90
    assert elapsed < 60.0
    print(f"PASS  3/10 planted alignment: test mAP@10 {before:.4f} <= "
          f"0.15 untrained -> {after:.4f} >= 0.90 after 20 epochs, "
          f"runtime {elapsed:.2f}s < 60s")


# 4. the distillation stage runs end-to-end against M=3 teachers


def test_04_distillation_pipeline_integrity(corpus_64):
    train = load_paired_dataset(os.path.join(corpus_64, MANIFEST_FILE),
                                "train").dataset
    teachers = []
    for seed in (1, 2, 3):
        t = init_params(12, 10, 6, seed=seed)
        t, _ = run_stage("pretrain", t, train, epochs=2, batch_size=8,
                         peak_lr=0.01, seed=seed)
        teachers.append(t)

    student = init_params(12, 10, 6, seed=7)
    tuned, log = run_stage("finetune", student, train, teachers=teachers,
                           epochs=2, batch_size=8, peak_lr=0.01, seed=7)
    steps = (len(train) // 8) * 2
    assert len(log) == steps
    assert all(r.loss.l_dist > 0.0 for r in log)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(student.named_tensors().values(),
                        tuned.named_tensors().values()))

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((6, 6)) for _ in range(3)]
    single = ensemble_average([mats[0]])
    assert single is not mats[0]
    assert single.tobytes() == mats[0].tobytes()
    assert ensemble_average([mats[2], mats[0], mats[1]]).tobytes() == \
        ensemble_average(mats).tobytes()
    print(f"PASS  4/10 distillation integrity: M=3 teacher finetune ran "
          f"{steps} steps end-to-end; teacher averaging satisfies the "
          f"M=1 identity and permutation invariance exactly")


# 5. metrics equal a direct-from-definition oracle


def _oracle_ranking(scores):
    return [i for _, i in sorted(((-(s), i) for i, s in enumerate(scores)))]


def _oracle_ap(ranking, relevant, k):
    relevant = set(relevant)
    hits, total = 0, 0.0
    for rank, item in enumerate(ranking[:k], start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / min(len(relevant), k)


def _oracle_recall(ranking, relevant, k):
    relevant = set(relevant)
    return len(relevant & set(ranking[:k])) / len(relevant)


def _oracle_evaluate(sim, entries):
    n_queries = sim.shape[1]
    sums = dict.fromkeys(METRIC_KEYS, 0.0)
    for q in range(n_queries):
        ranking = _oracle_ranking(sim[:, q].tolist())
        rel = entries[q]
        sums["map_at_10"] += _oracle_ap(ranking, rel, 10)
        sums["map_at_16"] += _oracle_ap(ranking, rel, 16)
        sums["r_at_1"] += _oracle_recall(ranking, rel, 1)
        sums["r_at_5"] += _oracle_recall(ranking, rel, 5)
        sums["r_at_10"] += _oracle_recall(ranking, rel, 10)
    return {key: value / n_queries for key, value in sums.items()}


def test_05_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        sim = rng.standard_normal((100, 100))
        entries = []
        for _ in range(100):
            size = int(rng.integers(1, 6))
            entries.append(tuple(
                int(i) for i in rng.choice(100, size=size, replace=False)))
        report = evaluate(sim, RelevanceMap(tuple(entries)), "multiple")
        oracle = _oracle_evaluate(sim, entries)
        for key in METRIC_KEYS:
            worst = max(worst, abs(getattr(report, key) - oracle[key]))
        assert report.map_at_10 <= report.map_at_16 + 1e-15
    assert worst < 1e-12
    print(f"PASS  5/10 metric oracle equivalence: 200 random 100x100 "
          f"instances, max |library - oracle| {worst:.2e} < 1e-12; "
          f"mAP@10 <= mAP@16 on all")


# 6. the bundled coefficient table loads and one-hot fusion is exact


def test_06_bundled_coefficient_table():
    specs = bundled_weight_table()
    assert sorted(specs) == ["E1", "E2", "E3", "E4"]
    worst_sum = max(
        abs(math.fsum(m.weight for m in spec.members) - 1.0)
        for spec in specs.values())
    assert worst_sum <= 1e-6
    assert specs["E1"].strategy == "system-first"
    assert specs["E4"].strategy == "model-first"

    rng = np.random.default_rng(6)
    mats = [rng.standard_normal((9, 7)) for _ in range(12)]
    for chosen in (0, 5, 11):
        spec = EnsembleSpec(members=tuple(
            Member(system=i, model=f"m{i}",
                   weight=1.0 if i == chosen else 0.0)
            for i in range(12)))
        assert fuse(named(mats), spec).tobytes() == mats[chosen].tobytes()
    print(f"PASS  6/10 coefficient table: rows E1-E4 load, worst "
          f"|sum - 1| {worst_sum:.2e} <= 1e-6; one-hot fusion "
          f"reproduces the selected member bit-exactly")


# 7. the grid search lands on a planted interior optimum


def test_07_grid_search_planted_optimum():
    relevant = np.array([[0.9], [1.0], [0.0], [0.0], [0.0]])
    distract = np.array([[0.9], [0.0], [1.0], [0.0], [0.0]])
    mats = [relevant, distract]
    rel = RelevanceMap(((0,),))

    result = grid_search(named(mats), rel, step=0.01)
    coarse_w = result.spec.members[0].weight

    fine_best, fine_w = -1.0, None
    for c in range(401):
        w = c / 400.0
        fused = w * mats[0] + (1.0 - w) * mats[1]
        value = evaluate(fused, rel, "multiple").map_at_16
        if value > fine_best:
            fine_best, fine_w = value, w
    assert abs(coarse_w - fine_w) <= 0.01 + 1e-12

    replay = evaluate(fuse(named(mats), result.spec), rel,
                      "multiple").map_at_16
    assert result.map_at_16 == replay
    assert result.map_at_16 == fine_best == 1.0
    print(f"PASS  7/10 grid search: coarse optimum w={coarse_w:.4f} "
          f"within one 0.01 step of the 0.0025 brute-force optimum "
          f"w={fine_w:.4f}; objective {result.map_at_16} matches "
          f"re-evaluation bit-exactly")


# 8. three planted blobs come back as exactly three pure clusters


def test_08_planted_blob_clustering():
    rng = np.random.default_rng(13)
    centers = np.array([[0.0, 0.0, 0.0, 0.0],
                        [10.0, 0.0, 0.0, 0.0],
                        [0.0, 10.0, 0.0, 0.0]])
    points = np.vstack([
        center + 0.1 * rng.standard_normal((30, 4)) for center in centers])
    truth = np.repeat(np.arange(3), 30)
    cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                        min_cluster_size=5)

    first = cluster_pipeline(points, cfg)
    assert first.k == 3
    assert first.labels.min() >= 0
    majority = 0
    for cluster in range(first.k):
        counts = np.bincount(truth[first.labels == cluster], minlength=3)
        majority += int(counts.max())
    purity = majority / len(truth)
    assert purity == 1.0

    second = cluster_pipeline(points, cfg)
    assert np.array_equal(first.labels, second.labels)
    assert first.probabilities.tobytes() == second.probabilities.tobytes()
    print(f"PASS  8/10 clustering: 3 blobs (sigma 0.1, separation 10) -> "
          f"k={first.k} clusters, purity {purity:.2f} after "
          f"reassignment; pipeline is deterministic per seed")


# 9. the schedule peaks exactly and then only decays toward the floor


def test_09_schedule_peak_and_decay():
    # 10 steps per epoch for 10 epochs: warmup ends at step 10
    peak, floor = 2e-5, 1e-7
    _, records = run_stage("pretrain", init_params(6, 5, 4, seed=0),
                           random_batch(40, 6, 5, seed=9), epochs=10,
                           batch_size=4, peak_lr=peak, floor_lr=floor, seed=3)
    rates = [r.lr for r in records]
    assert len(rates) == 100
    assert rates[10] == peak
    assert all(0 <= r < peak for r in rates[:10])
    assert all(floor <= r <= peak for r in rates[10:])
    assert all(a >= b for a, b in zip(rates[10:], rates[11:]))
    print(f"PASS  9/10 schedule: lr(10) == {peak} exactly over 100 steps "
          f"run; after warmup every lr lies in [{floor}, {peak}] and none "
          f"rises (last {rates[-1]:.4g})")


# 10. identical seeds give bit-identical checkpoints and reports


def test_10_stage_determinism(corpus_64, tmp_path):
    train = load_paired_dataset(os.path.join(corpus_64, MANIFEST_FILE),
                                "train").dataset

    def one_run(tag):
        params = init_params(12, 10, 6, seed=17)
        params, _ = run_stage(
            "pretrain", params, train, epochs=3, batch_size=8,
            peak_lr=0.01, floor_lr=1e-5, weight_decay=0.01, seed=17)
        ckpt = os.path.join(str(tmp_path), tag)
        save_checkpoint(ckpt, params)
        report = _retrieval_report(params, corpus_64, "val")
        return ckpt, report.as_dict()

    ckpt_a, report_a = one_run("first")
    ckpt_b, report_b = one_run("second")

    names = sorted(os.listdir(ckpt_a))
    assert names == sorted(os.listdir(ckpt_b))
    for name in names:
        with open(os.path.join(ckpt_a, name), "rb") as fa:
            with open(os.path.join(ckpt_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
    assert report_a == report_b
    print(f"PASS 10/10 determinism: repeated pretrain stage produced "
          f"bit-identical checkpoints ({len(names)} files) and equal "
          f"metric reports")
