"""Tests for the training objective and its analytic gradients."""

import itertools
import math

import numpy as np
import pytest

from xmrt import (Axis, ConfigError, ContractError, DataError, LossConfig,
                  PairedDataset, classification_loss, combined_loss,
                  cosine_similarity_matrix, distillation_loss, init_params,
                  loss_and_gradients, softmax_with_temperature,
                  student_similarity, supervised_contrastive_loss,
                  targets_from_teacher_sims, teacher_soft_targets)
from xmrt.encoders import classify, encode
from xmrt.losses import TeacherTargets, ensemble_average

from conftest import random_batch


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.tau == 0.05 and cfg.lambda1 == 1.0 and cfg.lambda2 == 0.05

    def test_rejects_bad_tau_and_weights(self):
        with pytest.raises(ConfigError):
            LossConfig(tau=0.0)
        with pytest.raises(ConfigError):
            LossConfig(lambda1=-0.1)
        with pytest.raises(ConfigError):
            LossConfig(lambda2=-1.0)

    @pytest.mark.parametrize("field", ["tau", "lambda1", "lambda2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            LossConfig(**{field: value})


class TestSupervisedLoss:
    def test_all_equal_matrix_is_uniform(self):
        # constant similarities soften to uniform in both directions,
        # so each direction contributes ln(4): total 2*ln(4)
        sim = np.full((4, 4), 0.37)
        loss = supervised_contrastive_loss(sim, LossConfig())
        assert abs(loss - 2.0 * math.log(4.0)) < 1e-9

    def test_identity_is_nearly_zero(self):
        # diagonal margin 1 at tau 0.05 gives odds e^20 per direction
        loss = supervised_contrastive_loss(np.eye(2), LossConfig(tau=0.05))
        assert 0.0 < loss <= 1e-8

    def test_anti_diagonal_costs_the_margin(self):
        # each misranked pair costs log(1 + e^20), about 20 nats
        sim = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss = supervised_contrastive_loss(sim, LossConfig(tau=0.05))
        expected = 2.0 * math.log(1.0 + math.exp(20.0))
        assert abs(loss - expected) < 1e-6
        assert abs(loss - 40.0) < 1e-6

    def test_requires_square(self):
        with pytest.raises(ContractError, match="square"):
            supervised_contrastive_loss(np.ones((3, 4)), LossConfig())

    def test_matches_two_manual_cross_entropies(self):
        rng = np.random.default_rng(5)
        sim = rng.uniform(-1.0, 1.0, size=(6, 6))
        cfg = LossConfig(tau=0.3)
        q_rows = softmax_with_temperature(sim, cfg.tau, Axis.ROWS)
        q_cols = softmax_with_temperature(sim, cfg.tau, Axis.COLUMNS)
        idx = np.arange(6)
        manual = (-np.log(q_rows[idx, idx]).mean()
                  - np.log(q_cols[idx, idx]).mean())
        loss = supervised_contrastive_loss(sim, cfg)
        np.testing.assert_allclose(loss, manual, rtol=1e-12)


class TestEnsembleAverage:
    def test_single_teacher_identity(self):
        m = np.random.default_rng(0).standard_normal((4, 4))
        out = ensemble_average([m])
        assert np.array_equal(out, m)
        assert out is not m  # defensive copy

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((8, 8)) for _ in range(5)]
        base = ensemble_average(mats)
        for perm in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            again = ensemble_average([mats[i] for i in perm])
            assert np.array_equal(base, again)

    def test_identical_teachers_average_to_themselves(self):
        m = np.random.default_rng(2).standard_normal((3, 3))
        np.testing.assert_allclose(ensemble_average([m, m, m]), m, atol=1e-15)

    def test_arithmetic(self):
        out = ensemble_average([np.zeros((2, 2)), np.full((2, 2), 2.0)])
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ContractError):
            ensemble_average([])
        with pytest.raises(ContractError, match="shape"):
            ensemble_average([np.ones((2, 2)), np.ones((3, 3))])


def _fsum_average(mats):
    """Per-element math.fsum reference for ensemble_average."""
    stack = np.stack(mats).reshape(len(mats), -1)
    sums = np.array([math.fsum(column) for column in stack.T])
    return (sums / len(mats)).reshape(mats[0].shape)


def _half_way_ties(rng, m):
    # b + ulp/2 is a tie; the smaller terms decide which way it rounds.
    b = rng.uniform(1.0, 2.0, (6, 7))
    ulp = np.spacing(b)
    extra = [rng.choice([-1.0, 1.0], b.shape) * ulp / 2.0 ** k
             for k in range(2, m)]
    return [b, ulp / 2.0] + extra


def _exact_cancellation(rng, m):
    big = 1e16 * rng.standard_normal((6, 7))
    return ([big] + [rng.standard_normal((6, 7)) for _ in range(m - 2)]
            + [-big])


def _wide_exponents(rng, m):
    return [rng.standard_normal((6, 7)) * 2.0 ** rng.integers(-60, 61, (6, 7))
            for _ in range(m)]


def _negative_zeros(rng, m):
    return [np.full((6, 7), -0.0) for _ in range(m)]


_ADVERSARIAL_CASES = [_half_way_ties, _exact_cancellation, _wide_exponents,
                      _negative_zeros]


class TestEnsembleAverageSortedSum:
    """The sorted sequential sum: exactly order-invariant, and within the
    recursive-summation error bound of the correctly rounded mean."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("case", _ADVERSARIAL_CASES,
                             ids=lambda f: f.__name__)
    def test_every_teacher_order_gives_the_same_bytes(self, case, m):
        mats = case(np.random.default_rng(m), m)
        base = ensemble_average(mats).tobytes()
        for perm in itertools.permutations(range(m)):
            assert ensemble_average([mats[i] for i in perm]).tobytes() == base

    @pytest.mark.parametrize("m", range(2, 7))
    def test_all_zero_result_is_positive_zero(self, m):
        # min/max may swap tied zero signs; the sum starts from +0.0.
        zeros = [np.full((2, 3), sign * 0.0) for sign in (-1.0, 1.0)] * m
        for mats in (_negative_zeros(None, m), zeros[:m]):
            out = ensemble_average(mats)
            assert np.all(out == 0.0) and not np.signbit(out).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("case", _ADVERSARIAL_CASES,
                             ids=lambda f: f.__name__)
    def test_within_summation_bound_of_fsum(self, case, m):
        # Recursive summation of m terms errs by at most
        # gamma(m-1) * sum|x|; the reference's own rounding of the sum
        # adds u * sum|x| (gamma(m-1) + u <= gamma(m)), and each side's
        # division by m adds half an ulp of its result.
        mats = case(np.random.default_rng(m), m)
        out = ensemble_average(mats)
        ref = _fsum_average(mats)
        u = 2.0 ** -53
        gamma = m * u / (1.0 - m * u)
        bound = (gamma * np.abs(np.stack(mats)).sum(axis=0) / m
                 + np.spacing(np.maximum(np.abs(out), np.abs(ref))))
        assert np.all(np.abs(out - ref) <= bound)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_raises(self):
        with pytest.raises(OverflowError, match="overflow"):
            ensemble_average([np.full((2, 2), 1e308)] * 3)

    @pytest.mark.filterwarnings("error")
    def test_cancelling_sum_past_the_float_range_stays_finite(self):
        # Sorted, -1e308 is added first, so no partial sum overflows.
        mats = [np.full((2, 2), v) for v in (1e308, 1e308, -1e308)]
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        for perm in itertools.permutations(mats):
            np.testing.assert_array_equal(ensemble_average(list(perm)),
                                          np.full((2, 2), 1e308 / 3))


class TestTeacherTargets:
    def test_identity_softens_to_near_one_hot(self):
        targets = teacher_soft_targets(np.eye(2), LossConfig(tau=0.05))
        np.testing.assert_allclose(targets.p_hat_audio, np.eye(2),
                                   atol=1e-8)
        np.testing.assert_allclose(targets.p_hat_text, np.eye(2),
                                   atol=1e-8)

    def test_row_direction_hand_case(self):
        avg = np.array([[1.0, 0.0], [0.0, 1.0]])
        targets = teacher_soft_targets(avg, LossConfig(tau=1.0))
        np.testing.assert_allclose(targets.p_hat_text[0],
                                   [0.7311, 0.2689], atol=1e-4)

    def test_axes_are_fixed(self):
        # audio targets normalize over columns, caption targets over rows
        avg = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 4))
        targets = teacher_soft_targets(avg, LossConfig(tau=0.5))
        np.testing.assert_allclose(targets.p_hat_audio.sum(axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(targets.p_hat_text.sum(axis=1), 1.0,
                                   atol=1e-12)
        assert not np.allclose(targets.p_hat_audio.sum(axis=1), 1.0)

    def test_from_sims_counts_teachers(self):
        # the sum of three teachers is divided by three before softening
        sims = [3.0 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]
        targets = targets_from_teacher_sims(sims, LossConfig())
        expected = teacher_soft_targets(np.eye(2), LossConfig())
        assert targets.p_hat_audio.tobytes() == expected.p_hat_audio.tobytes()
        assert targets.p_hat_text.tobytes() == expected.p_hat_text.tobytes()


class TestDistillationLoss:
    def test_uniform_targets_constant_student(self):
        # uniform targets against a constant student: ln(2) per direction
        targets = teacher_soft_targets(np.zeros((2, 2)), LossConfig(tau=1.0))
        loss = distillation_loss(targets, np.full((2, 2), 0.4),
                                 LossConfig(tau=1.0))
        assert abs(loss - 2.0 * math.log(2.0)) < 1e-12

    def test_one_hot_teacher_identity_student(self):
        # exactly one-hot targets reduce distillation to the supervised
        # case, so an identity student costs only the e^-20 tail
        cfg = LossConfig(tau=0.05)
        targets = TeacherTargets(np.eye(2), np.eye(2))
        loss = distillation_loss(targets, np.eye(2), cfg)
        assert 0.0 < loss <= 1e-8
        sup = supervised_contrastive_loss(np.eye(2), cfg)
        np.testing.assert_allclose(loss, sup, rtol=1e-12)

    def test_student_equal_teacher_gives_target_entropy(self):
        # CE(p, p) = H(p); mean over each direction's distributions
        rng = np.random.default_rng(7)
        sim = rng.uniform(-1.0, 1.0, size=(5, 5))
        cfg = LossConfig(tau=0.5)
        targets = teacher_soft_targets(sim, cfg)
        pa = targets.p_hat_audio
        pc = targets.p_hat_text
        entropy = (-(pa * np.log(pa)).sum(axis=0).mean()
                   - (pc * np.log(pc)).sum(axis=1).mean())
        loss = distillation_loss(targets, sim, cfg)
        assert abs(loss - entropy) < 1e-6

    def test_shape_mismatch(self):
        targets = teacher_soft_targets(np.eye(3), LossConfig())
        with pytest.raises(ContractError, match="shape"):
            distillation_loss(targets, np.eye(2), LossConfig())


class TestClassificationLoss:
    def test_uniform_logits_cost_log_k(self):
        loss = classification_loss(np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]))
        assert abs(loss - math.log(3.0)) < 1e-12

    def test_mean_of_two_known_rows(self):
        # row losses ln(2) and ~0 average to ln(2)/2
        logits = np.array([[0.0, 0.0], [100.0, 0.0]])
        loss = classification_loss(logits, np.array([0, 0]))
        assert abs(loss - math.log(2.0) / 2.0) < 1e-15

    def test_perfect_prediction_is_free(self):
        logits = np.array([[200.0, 0.0, 0.0]])
        assert classification_loss(logits, np.array([0])) == 0.0

    def test_out_of_range_label(self):
        with pytest.raises(DataError, match="label"):
            classification_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DataError, match="label"):
            classification_loss(np.zeros((2, 3)), np.array([-1, 0]))

    def test_label_count_mismatch(self):
        with pytest.raises(ContractError):
            classification_loss(np.zeros((2, 3)), np.array([0]))


class TestCombinedLoss:
    def test_weighted_sum(self):
        cfg = LossConfig(tau=0.05, lambda1=1.0, lambda2=0.05)
        breakdown = combined_loss(1.0, 2.0, 3.0, 4.0, cfg)
        assert breakdown.total == 1.0 + 1.0 * 2.0 + 0.05 * (3.0 + 4.0)
        assert breakdown.l_sup == 1.0 and breakdown.l_dist == 2.0

    def test_negative_component_rejected(self):
        with pytest.raises(ContractError, match="nonnegative"):
            combined_loss(-0.1, 0.0, 0.0, 0.0, LossConfig())


class TestStudentSimilarity:
    def test_matches_cosine_of_encoded_features(self):
        # Training and evaluation share one affine map and one normalizer,
        # so the bits agree, nonzero biases included.
        rng = np.random.default_rng(4)
        params = init_params(6, 5, 4, seed=0)
        params = params.with_tensors(
            {name: t + rng.standard_normal(t.shape) if name.endswith("bias")
             else t for name, t in params.named_tensors().items()})
        batch = random_batch(4, 6, 5, seed=3)
        sim = student_similarity(params, batch)
        expected = cosine_similarity_matrix(
            encode(params.audio_encoder, batch.audio_features),
            encode(params.text_encoder, batch.text_features))
        assert np.clip(sim, -1.0, 1.0).tobytes() == expected.tobytes()

    def test_feature_width_checked(self):
        params = init_params(6, 5, 4, seed=0)
        with pytest.raises(ContractError, match="width"):
            student_similarity(params, random_batch(4, 7, 5, seed=0))

    @pytest.mark.filterwarnings("error")
    def test_zero_norm_embedding_rejected(self):
        # biases start at zero, so a zero feature row embeds to zero
        params = init_params(6, 5, 4, seed=0)
        batch = random_batch(4, 6, 5, seed=3)
        audio = batch.audio_features.copy()
        audio[2] = 0.0
        with pytest.raises(DataError, match="zero norm"):
            student_similarity(params, PairedDataset(
                audio_features=audio, text_features=batch.text_features))


def _fd_gradient(params, batch, cfg, targets, labels, name, h=1e-5):
    """Central finite differences of the total loss for one tensor."""
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
            value = loss_and_gradients(params.with_tensors(probe), batch,
                                       cfg, targets, labels)[0].total
            grad[idx] += sign * value
        grad[idx] /= 2.0 * h
        it.iternext()
    return grad


def _worst_relative_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradients:
    def test_supervised_only_matches_finite_differences(self):
        params = init_params(6, 5, 4, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        cfg = LossConfig(tau=0.05, lambda1=0.0, lambda2=0.0)
        _, grads = loss_and_gradients(params, batch, cfg)
        for name in params.named_tensors():
            fd = _fd_gradient(params, batch, cfg, None, None, name)
            assert _worst_relative_error(grads[name], fd) < 1e-4, name

    def test_full_objective_matches_finite_differences(self):
        params = init_params(6, 5, 4, n_clusters=3, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        cfg = LossConfig(tau=0.05, lambda1=1.0, lambda2=0.05)
        teacher = init_params(6, 5, 4, seed=9)
        targets = targets_from_teacher_sims(
            [student_similarity(teacher, batch)], cfg)
        labels = np.array([0, 1, 2, 0])
        _, grads = loss_and_gradients(params, batch, cfg, targets, labels)
        for name in params.named_tensors():
            fd = _fd_gradient(params, batch, cfg, targets, labels, name)
            assert _worst_relative_error(grads[name], fd) < 1e-4, name

    def test_duplicated_batch_leaves_encoder_gradients_unchanged(self):
        # mean reduction: stacking the batch twice reproduces the gradient
        params = init_params(6, 5, 4, seed=4)
        batch = random_batch(4, 6, 5, seed=5)
        doubled = PairedDataset(
            np.vstack([batch.audio_features, batch.audio_features]),
            np.vstack([batch.text_features, batch.text_features]))
        cfg = LossConfig(lambda1=0.0, lambda2=0.0)
        _, g1 = loss_and_gradients(params, batch, cfg)
        _, g2 = loss_and_gradients(params, doubled, cfg)
        for name in g1:
            np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)

    def test_breakdown_terms_match_standalone_ops(self):
        params = init_params(6, 5, 4, n_clusters=3, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        cfg = LossConfig(tau=0.05, lambda1=1.0, lambda2=0.05)
        targets = targets_from_teacher_sims(
            [student_similarity(init_params(6, 5, 4, seed=9), batch)], cfg)
        labels = np.array([0, 1, 2, 0])
        breakdown, _ = loss_and_gradients(params, batch, cfg, targets, labels)
        # the standalone losses are views of the same softmax forward, so
        # every term must agree to the last bit
        sim = student_similarity(params, batch)
        assert breakdown.l_sup == supervised_contrastive_loss(sim, cfg)
        assert breakdown.l_dist == distillation_loss(targets, sim, cfg)
        raw_a = encode(params.audio_encoder, batch.audio_features)
        raw_c = encode(params.text_encoder, batch.text_features)
        assert breakdown.l_cls_audio == classification_loss(
            classify(params.audio_head, raw_a), labels)
        assert breakdown.l_cls_text == classification_loss(
            classify(params.text_head, raw_c), labels)
        expected_total = (breakdown.l_sup + cfg.lambda1 * breakdown.l_dist
                          + cfg.lambda2 * (breakdown.l_cls_audio
                                           + breakdown.l_cls_text))
        assert breakdown.total == expected_total

    def test_gradient_keys_follow_named_tensors(self):
        params = init_params(6, 5, 4, n_clusters=3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        cfg = LossConfig(lambda1=0.0, lambda2=0.0)
        _, grads = loss_and_gradients(params, batch, cfg)
        assert list(grads) == list(params.named_tensors())
        for name, tensor in params.named_tensors().items():
            assert grads[name].shape == tensor.shape

    def test_head_gradients_zero_when_path_off(self):
        params = init_params(6, 5, 4, n_clusters=3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        _, grads = loss_and_gradients(params, batch,
                                      LossConfig(lambda1=0.0, lambda2=0.0))
        assert not grads["audio_head.w1"].any()
        assert not grads["text_head.b2"].any()


def _assert_same_bits(grads_a, grads_b):
    assert list(grads_a) == list(grads_b)
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name


class TestPathGating:
    # A term runs iff its input is given, whatever its weight; the weight
    # only scales it, so weight 0 reports the term but changes nothing.
    def test_distillation_runs_iff_targets_given(self):
        params = init_params(6, 5, 4, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        targets = targets_from_teacher_sims(
            [student_similarity(init_params(6, 5, 4, seed=9), batch)],
            LossConfig())
        plain, plain_grads = loss_and_gradients(params, batch,
                                                LossConfig(lambda1=0.0))
        for lambda1 in (0.0, 1.0):
            cfg = LossConfig(lambda1=lambda1)
            off, off_grads = loss_and_gradients(params, batch, cfg)
            assert off == plain and off.l_dist == 0.0
            _assert_same_bits(off_grads, plain_grads)
            on, on_grads = loss_and_gradients(params, batch, cfg,
                                              targets=targets)
            assert on.l_dist > 0.0
            assert on.total == on.l_sup + lambda1 * on.l_dist
            assert (on.total > plain.total) == (lambda1 > 0)
        zero, zero_grads = loss_and_gradients(
            params, batch, LossConfig(lambda1=0.0), targets=targets)
        assert zero.total == plain.total
        for name, grad in plain_grads.items():
            np.testing.assert_array_equal(zero_grads[name], grad)

    def test_classification_runs_iff_labels_given(self):
        params = init_params(6, 5, 4, n_clusters=3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        labels = np.array([0, 1, 2, 0])
        plain, plain_grads = loss_and_gradients(params, batch,
                                                LossConfig(lambda2=0.0))
        for lambda2 in (0.0, 0.05):
            cfg = LossConfig(lambda2=lambda2)
            off, off_grads = loss_and_gradients(params, batch, cfg)
            assert off == plain and off.l_cls_audio == 0.0
            _assert_same_bits(off_grads, plain_grads)
            on, on_grads = loss_and_gradients(params, batch, cfg,
                                              labels=labels)
            assert on.l_cls_audio > 0.0 and on.l_cls_text > 0.0
            assert on.total == on.l_sup + lambda2 * (on.l_cls_audio
                                                     + on.l_cls_text)
            assert on_grads["audio_head.w2"].any() == (lambda2 > 0)
        zero, zero_grads = loss_and_gradients(
            params, batch, LossConfig(lambda2=0.0), labels=labels)
        assert zero.total == plain.total
        for name, grad in plain_grads.items():
            np.testing.assert_array_equal(zero_grads[name], grad)

    def test_cluster_path_needs_heads(self):
        params = init_params(6, 5, 4, seed=0)  # no heads
        batch = random_batch(4, 6, 5, seed=0)
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ConfigError, match="heads"):
            loss_and_gradients(params, batch, LossConfig(lambda1=0.0),
                               labels=labels)

    @pytest.mark.parametrize("labels", [np.zeros((4, 1), dtype=int),
                                        np.zeros(3, dtype=int)],
                             ids=["2-D", "short"])
    def test_labels_need_one_per_row(self, labels):
        params = init_params(6, 5, 4, n_clusters=3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        with pytest.raises(ContractError, match="one label per row"):
            loss_and_gradients(params, batch, LossConfig(), labels=labels)

    def test_out_of_range_cluster_label(self):
        params = init_params(6, 5, 4, n_clusters=2, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        labels = np.array([0, 1, 2, 0])
        with pytest.raises(DataError):
            loss_and_gradients(params, batch, LossConfig(lambda1=0.0),
                               labels=labels)
