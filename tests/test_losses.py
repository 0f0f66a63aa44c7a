"""Tests for the training objective and its analytic gradients."""

import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from xmrt import (Axis, ConfigError, ContractError, DataError, LossConfig,
                  PairedDataset, cosine_similarity_matrix, init_params,
                  loss_and_gradients, softmax_with_temperature,
                  student_similarity, targets_from_teacher_sims,
                  teacher_soft_targets)
from xmrt import core
from xmrt.encoders import _head_forward, encode
from xmrt.losses import _Workspace, ensemble_average

from conftest import (distillation_ce, full_matrix_ce, head_pair,
                      headed_params, identity_batch, label_ce, random_batch,
                      supervised_ce)


def _terms(audio_rows, text_rows, cfg, targets=None, labels=None,
           heads=None):
    """The LossBreakdown for rows embedded by identity encoders."""
    return loss_and_gradients(*identity_batch(audio_rows, text_rows, heads),
                              cfg, targets, labels)[0]


def _constant_rows(n, cosine):
    """n audio and n caption rows whose every pair has this cosine."""
    return (np.tile([1.0, 0.0], (n, 1)),
            np.tile([cosine, math.sqrt(1.0 - cosine * cosine)], (n, 1)))


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

    @pytest.mark.parametrize("tau", [1e-310, 5e-324])
    def test_rejects_a_tau_whose_reciprocal_overflows(self, tau):
        with pytest.raises(ConfigError, match=r"^tau must be finite and > 0 "
                                              r"with a finite 1/tau, got "):
            LossConfig(tau=tau)

    @pytest.mark.filterwarnings("error")
    def test_a_numpy_scalar_tau_whose_reciprocal_overflows_does_not_warn(
            self):
        with pytest.raises(ConfigError, match=r"^tau must be finite and > 0 "
                                              r"with a finite 1/tau, got "
                                              r"1e-310$"):
            LossConfig(tau=np.float64(1e-310))


class TestSupervisedLoss:
    def test_all_equal_matrix_is_uniform(self):
        # constant similarities soften to uniform in both directions,
        # so each direction contributes ln(4): total 2*ln(4)
        loss = _terms(*_constant_rows(4, 0.37), LossConfig()).l_sup
        assert abs(loss - 2.0 * math.log(4.0)) < 1e-9

    def test_identity_is_nearly_zero(self):
        # diagonal margin 1 at tau 0.05 gives odds e^20 per direction
        loss = _terms(np.eye(2), np.eye(2), LossConfig(tau=0.05)).l_sup
        assert 0.0 < loss <= 1e-8

    def test_anti_diagonal_costs_the_margin(self):
        # each misranked pair costs log(1 + e^20), about 20 nats
        loss = _terms(np.eye(2), np.eye(2)[::-1], LossConfig(tau=0.05)).l_sup
        expected = 2.0 * math.log(1.0 + math.exp(20.0))
        assert abs(loss - expected) < 1e-6
        assert abs(loss - 40.0) < 1e-6

    def test_matches_two_manual_cross_entropies(self):
        rng = np.random.default_rng(5)
        params, batch = identity_batch(rng.standard_normal((6, 3)),
                                       rng.standard_normal((6, 3)))
        cfg = LossConfig(tau=0.3)
        sim = student_similarity(params, batch)
        q_rows = softmax_with_temperature(sim, cfg.tau, Axis.ROWS)
        q_cols = softmax_with_temperature(sim, cfg.tau, Axis.COLUMNS)
        idx = np.arange(6)
        manual = (-np.log(q_rows[idx, idx]).mean()
                  - np.log(q_cols[idx, idx]).mean())
        loss = loss_and_gradients(params, batch, cfg)[0].l_sup
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
    """Teacher targets are the plain pair (p_hat_audio, p_hat_text)."""

    def test_identity_softens_to_near_one_hot(self):
        p_audio, p_text = teacher_soft_targets(np.eye(2),
                                               LossConfig(tau=0.05))
        np.testing.assert_allclose(p_audio, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(p_text, np.eye(2), atol=1e-8)

    def test_row_direction_hand_case(self):
        avg = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, p_text = teacher_soft_targets(avg, LossConfig(tau=1.0))
        np.testing.assert_allclose(p_text[0], [0.7311, 0.2689], atol=1e-4)

    def test_axes_are_fixed(self):
        # audio targets normalize over columns, caption targets over rows
        avg = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 4))
        p_audio, p_text = teacher_soft_targets(avg, LossConfig(tau=0.5))
        np.testing.assert_allclose(p_audio.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(p_text.sum(axis=1), 1.0, atol=1e-12)
        assert not np.allclose(p_audio.sum(axis=1), 1.0)

    def test_from_sims_counts_teachers(self):
        # the sum of three teachers is divided by three before softening
        sims = [3.0 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]
        targets = targets_from_teacher_sims(sims, LossConfig())
        expected = teacher_soft_targets(np.eye(2), LossConfig())
        assert len(targets) == 2
        for got, want in zip(targets, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_average_is_a_data_error(self, bad):
        avg = np.eye(2)
        avg[0, 1] = bad
        with pytest.raises(DataError, match="^logits contains non-finite"):
            teacher_soft_targets(avg, LossConfig())

    @pytest.mark.parametrize("n_teachers", [1, 3])
    def test_a_finetune_step_checks_each_matrix_once(self, monkeypatch,
                                                     n_teachers):
        # m similarities in ensemble_average, then the average once per
        # softmax direction; the loss reads the targets unchecked
        params = init_params(6, 5, 4, seed=1)
        batch = random_batch(8, 6, 5, seed=2)
        teachers = [init_params(6, 5, 4, seed=9 + i)
                    for i in range(n_teachers)]
        cfg = LossConfig()
        real, calls = core.as_matrix, []

        def counting(values, name="matrix"):
            calls.append(name)
            return real(values, name)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("xmrt.")
                    and getattr(module, "as_matrix", None) is real):
                monkeypatch.setattr(module, "as_matrix", counting)
        targets = targets_from_teacher_sims(
            [student_similarity(t, batch) for t in teachers], cfg)
        loss_and_gradients(params, batch, cfg, targets)
        assert len(calls) == n_teachers + 2, calls


class TestDistillationLoss:
    def test_uniform_targets_constant_student(self):
        # uniform targets against a constant student: ln(2) per direction
        cfg = LossConfig(tau=1.0)
        targets = teacher_soft_targets(np.zeros((2, 2)), cfg)
        loss = _terms(*_constant_rows(2, 0.4), cfg, targets).l_dist
        assert abs(loss - 2.0 * math.log(2.0)) < 1e-12

    def test_one_hot_teacher_identity_student(self):
        # exactly one-hot targets reduce distillation to the supervised
        # case, so an identity student costs only the e^-20 tail; either
        # target may be any array-like, here a nested list
        terms = _terms(np.eye(2), np.eye(2), LossConfig(tau=0.05),
                       (np.eye(2), np.eye(2).tolist()))
        assert 0.0 < terms.l_dist <= 1e-8
        np.testing.assert_allclose(terms.l_dist, terms.l_sup, rtol=1e-12)

    def test_student_equal_teacher_gives_target_entropy(self):
        # CE(p, p) = H(p); mean over each direction's distributions
        rng = np.random.default_rng(7)
        params, batch = identity_batch(rng.standard_normal((5, 3)),
                                       rng.standard_normal((5, 3)))
        cfg = LossConfig(tau=0.5)
        targets = teacher_soft_targets(student_similarity(params, batch), cfg)
        pa, pc = targets
        entropy = (-(pa * np.log(pa)).sum(axis=0).mean()
                   - (pc * np.log(pc)).sum(axis=1).mean())
        loss = loss_and_gradients(params, batch, cfg, targets)[0].l_dist
        assert abs(loss - entropy) < 1e-6

    @pytest.mark.parametrize("shapes", [((3, 3), (3, 3)), ((2, 2), (2, 3)),
                                        ((2, 3), (2, 2)), ((1, 2), (1, 3)),
                                        ((2, 2, 1), (2, 2))])
    def test_shape_mismatch(self, shapes):
        # the two targets differ from each other, or from the 2 x 2 batch
        pair = tuple(np.full(shape, 0.5) for shape in shapes)
        with pytest.raises(ContractError, match=r"^teacher target shapes "
                                                r".* do not match batch "
                                                r"similarity \(2, 2\)$"):
            _terms(np.eye(2), np.eye(2), LossConfig(), pair)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("at", [(1, 1), (0, 2)])
    def test_negative_target_entry_rejected(self, side, at):
        # log q <= 0, so only a negative target can make the term negative;
        # with every other entry 0 it is that entry times -log q > 0
        rng = np.random.default_rng(5)
        params, batch = identity_batch(rng.standard_normal((3, 4)),
                                       rng.standard_normal((3, 4)))
        pair = [np.zeros((3, 3)), np.zeros((3, 3))]
        pair[side][at] = -0.5
        work = _Workspace(params, 3, 1)
        work.grad[:] = 7.0
        with pytest.raises(ContractError, match="^teacher targets must be "
                                                "nonnegative, got an entry "
                                                "-0.5$"):
            loss_and_gradients(params, batch, LossConfig(), tuple(pair),
                               work=work)
        assert (work.grad == 7.0).all()

    @pytest.mark.parametrize("side", [0, 1])
    def test_negative_entry_rejected_under_a_positive_l_dist(self, side):
        # -log q on the diagonal of an identity student at tau 0.05 is
        # ~2e-9, so -5 there barely lowers a term the 1/3 entries make
        # large; the entry is still rejected, before the gradient is touched
        params, batch = identity_batch(np.eye(3), np.eye(3))
        pair = [np.full((3, 3), 1 / 3), np.full((3, 3), 1 / 3)]
        pair[side][0, 0] = -5.0
        work = _Workspace(params, 3, 1)
        work.grad[:] = 7.0
        with pytest.raises(ContractError, match="^teacher targets must be "
                                                "nonnegative, got an entry "
                                                "-5.0$"):
            loss_and_gradients(params, batch, LossConfig(tau=0.05),
                               tuple(pair), work=work)
        assert (work.grad == 7.0).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("at", [(1, 1), (0, 2), (2, 0)])
    def test_a_non_finite_entry_is_a_data_error(self, bad, side, at):
        # diagonal and off-diagonal entries of either target; the gradient
        # is not touched
        rng = np.random.default_rng(5)
        params, batch = identity_batch(rng.standard_normal((3, 4)),
                                       rng.standard_normal((3, 4)))
        pair = list(teacher_soft_targets(student_similarity(params, batch),
                                         LossConfig()))
        pair[side][at] = bad
        work = _Workspace(params, 3, 1)
        work.grad[:] = 7.0
        with pytest.raises(DataError, match="^teacher targets give a "
                                            "non-finite l_dist"):
            loss_and_gradients(params, batch, LossConfig(), tuple(pair),
                               work=work)
        assert (work.grad == 7.0).all()


def _first_unit_head(scale, k):
    """A head pair on 2-wide embeddings e whose logits are
    (scale * relu(e[0]), 0, ..., 0) over k clusters for both heads."""
    w1 = np.zeros((6, 2))
    w1[0, 0] = 1.0
    w2 = np.zeros((k, 6))
    w2[0, 0] = scale
    return head_pair(w1, np.zeros(6), w2, np.zeros(k))


class TestClassificationLoss:
    def test_uniform_logits_cost_log_k(self):
        head = _first_unit_head(0.0, 3)
        rows = np.random.default_rng(0).standard_normal((5, 2))
        terms = _terms(rows, rows, LossConfig(),
                       labels=np.array([0, 1, 2, 0, 1]), heads=head)
        assert abs(terms.l_cls_audio - math.log(3.0)) < 1e-12
        assert abs(terms.l_cls_text - math.log(3.0)) < 1e-12

    def test_mean_of_two_known_rows(self):
        # logits [0, 0] and [100, 0]: row losses ln(2) and ~0 average to
        # ln(2)/2
        head = _first_unit_head(100.0, 2)
        rows = np.array([[0.0, 1.0], [1.0, 0.0]])
        terms = _terms(rows, rows, LossConfig(), labels=np.array([0, 0]),
                       heads=head)
        assert abs(terms.l_cls_audio - math.log(2.0) / 2.0) < 1e-15

    def test_perfect_prediction_is_free(self):
        head = _first_unit_head(200.0, 3)
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        terms = _terms(rows, rows, LossConfig(), labels=np.array([0, 0]),
                       heads=head)
        assert terms.l_cls_audio == 0.0 and terms.l_cls_text == 0.0


class TestWeightedTotal:
    def test_weighted_sum(self):
        params = headed_params(6, 5, 4, 3, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        cfg = LossConfig(tau=0.05, lambda1=0.7, lambda2=0.3)
        targets = targets_from_teacher_sims(
            [student_similarity(init_params(6, 5, 4, seed=9), batch)], cfg)
        terms, _ = loss_and_gradients(params, batch, cfg, targets,
                                      np.array([0, 1, 2, 0]))
        assert min(terms.l_sup, terms.l_dist, terms.l_cls_audio,
                   terms.l_cls_text) > 0.0
        assert terms.total == (terms.l_sup + 0.7 * terms.l_dist
                               + 0.3 * (terms.l_cls_audio + terms.l_cls_text))


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


    # (audio rows, text rows) set to 0 (zero norm) or 1e160 (a norm that
    # overflows), and the error: blocks in order, within one the overflow
    # first, as when each tower was normalized alone
    @pytest.mark.parametrize("audio, text, error", [
        ({}, {3: 0.0}, "collapsed to zero norm at text row 3"),
        ({}, {1: 0.0, 2: 1e160}, "overflowed to a non-finite value at text "
                                 "row 2"),
        ({3: 0.0}, {0: 1e160}, "collapsed to zero norm at audio row 3"),
        ({2: 1e160, 1: 0.0}, {0: 0.0}, "overflowed to a non-finite value "
                                       "at audio row 2")])
    @pytest.mark.filterwarnings("error")
    def test_the_stacked_forward_names_the_first_bad_row(self, audio, text,
                                                         error):
        params, batch = identity_batch(np.ones((4, 3)), np.ones((4, 3)))
        for rows, values in ((batch.audio_features, audio),
                             (batch.text_features, text)):
            for row, value in values.items():
                rows[row] *= value
        with pytest.raises(DataError, match=rf"^an embedding (norm )?"
                                            rf"{error}"):
            loss_and_gradients(params, batch, LossConfig())


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
        params = headed_params(6, 5, 4, 3, seed=1)
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

    def test_gradients_are_views_of_one_vector(self):
        params = headed_params(6, 5, 4, 3, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        _, grads = loss_and_gradients(params, batch, LossConfig(),
                                      labels=np.array([0, 1, 2, 0]))
        base = next(iter(grads.values())).base
        assert all(g.base is base for g in grads.values())
        np.testing.assert_array_equal(
            base, np.concatenate([g.ravel() for g in grads.values()]))

    def test_breakdown_terms_match_standalone_ops(self):
        params = headed_params(6, 5, 4, 3, seed=1)
        batch = random_batch(4, 6, 5, seed=2)
        cfg = LossConfig(tau=0.05, lambda1=1.0, lambda2=0.05)
        targets = targets_from_teacher_sims(
            [student_similarity(init_params(6, 5, 4, seed=9), batch)], cfg)
        labels = np.array([0, 1, 2, 0])
        breakdown, _ = loss_and_gradients(params, batch, cfg, targets, labels)
        # the references make the same operations in the same order, so
        # every term must agree to the last bit
        sim = student_similarity(params, batch)
        assert breakdown.l_sup == supervised_ce(sim, cfg.tau)
        assert breakdown.l_dist == distillation_ce(targets, sim, cfg.tau)
        # the full log-softmax matrices, summed in another order
        eye = np.eye(len(sim))
        assert math.isclose(breakdown.l_sup,
                            full_matrix_ce(eye, eye, sim, cfg.tau),
                            rel_tol=1e-12)
        assert math.isclose(breakdown.l_dist, full_matrix_ce(
            *targets, sim, cfg.tau),
                            rel_tol=1e-12)
        raw_a = encode(params.audio_encoder, batch.audio_features)
        raw_c = encode(params.text_encoder, batch.text_features)
        logits = _head_forward(params.heads, np.stack((raw_a, raw_c)))[2]
        assert breakdown.l_cls_audio == label_ce(logits[0], labels)
        assert breakdown.l_cls_text == label_ce(logits[1], labels)
        expected_total = (breakdown.l_sup + cfg.lambda1 * breakdown.l_dist
                          + cfg.lambda2 * (breakdown.l_cls_audio
                                           + breakdown.l_cls_text))
        assert breakdown.total == expected_total

    def test_gradient_keys_follow_named_tensors(self):
        params = headed_params(6, 5, 4, 3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        cfg = LossConfig(lambda1=0.0, lambda2=0.0)
        _, grads = loss_and_gradients(params, batch, cfg)
        assert list(grads) == list(params.named_tensors())
        for name, tensor in params.named_tensors().items():
            assert grads[name].shape == tensor.shape

    def test_head_gradients_zero_when_path_off(self):
        params = headed_params(6, 5, 4, 3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        _, grads = loss_and_gradients(params, batch,
                                      LossConfig(lambda1=0.0, lambda2=0.0))
        assert not grads["heads.w1"].any()
        assert not grads["heads.b2"].any()


class TestWorkspace:
    def test_gradients_without_a_workspace_outlive_a_later_call(self):
        params = headed_params(6, 5, 4, 3, seed=1)
        labels = np.array([0, 1, 2, 0])
        _, first = loss_and_gradients(params, random_batch(4, 6, 5, seed=2),
                                      LossConfig(), labels=labels)
        kept = {name: g.copy() for name, g in first.items()}
        loss_and_gradients(params, random_batch(4, 6, 5, seed=3),
                           LossConfig(), labels=labels)
        _assert_same_bits(first, kept)

    def test_a_step_in_a_workspace_allocates_no_batch_square(self):
        n = 256
        params = headed_params(6, 5, 4, 3, seed=1)
        batch = random_batch(n, 6, 5, seed=2)
        cfg = LossConfig()
        targets = targets_from_teacher_sims(
            [student_similarity(init_params(6, 5, 4, seed=9), batch)], cfg)
        labels = np.arange(n) % 3
        work = _Workspace(params, n, 1)
        step = functools.partial(loss_and_gradients, params, batch, cfg,
                                 targets, labels, work=work)
        _, first = step()
        kept = {name: g.copy() for name, g in first.items()}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, second = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < n * n * 8
        _assert_same_bits(second, kept)

    @pytest.mark.parametrize("n_teachers", [1, 3])
    def test_teacher_targets_peak_at_the_budgeted_squares(self, n_teachers):
        # Outside its workspace a finetune step peaks at the 2m + 2 batch
        # squares _Workspace counts for m teachers, plus per-row vectors
        # and one finiteness mask (an eighth of a square).
        n = 256
        params = init_params(6, 5, 4, seed=1)
        batch = random_batch(n, 6, 5, seed=2)
        teachers = [init_params(6, 5, 4, seed=9 + i)
                    for i in range(n_teachers)]
        cfg = LossConfig()
        work = _Workspace(params, n, n_teachers)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            targets = targets_from_teacher_sims(
                [student_similarity(t, batch) for t in teachers], cfg)
            loss_and_gradients(params, batch, cfg, targets, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        squares = (peak - start) / (8 * n * n)
        assert 2 * n_teachers + 2 <= squares < 2 * n_teachers + 2.25

    def test_teachers_count_toward_the_workspace_budget(self):
        # batch 3,600 fits the budget alone but not with three teachers
        params = init_params(6, 5, 4, seed=1)
        size = sum(t.size for t in params.named_tensors().values())
        assert 8 * (5 * 3600 ** 2 + 3 * size) <= core._ALLOC_BYTES
        needed = 8 * (13 * 3600 ** 2 + 3 * size)
        with pytest.raises(ConfigError, match=(
                rf"^batch_size 3600 needs a {needed}-byte training "
                rf"workspace with 3 teachers, over the")):
            _Workspace(params, 3600, 3)


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
        params = headed_params(6, 5, 4, 3, seed=0)
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
            assert on_grads["heads.w2"].any() == (lambda2 > 0)
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
        params = headed_params(6, 5, 4, 3, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        with pytest.raises(ContractError, match="one label per row"):
            loss_and_gradients(params, batch, LossConfig(), labels=labels)

    @pytest.mark.parametrize("labels", [np.array([0, 1, 2, 0]),
                                        np.array([0, -1, 1, 0])],
                             ids=["too-big", "negative"])
    def test_out_of_range_cluster_label(self, labels):
        params = headed_params(6, 5, 4, 2, seed=0)
        batch = random_batch(4, 6, 5, seed=0)
        with pytest.raises(DataError, match="label"):
            loss_and_gradients(params, batch, LossConfig(lambda1=0.0),
                               labels=labels)
