"""Tests for the dense-matrix primitives."""

import math
import tracemalloc

import numpy as np
import pytest

from xmrt import (Axis, ConfigError, ContractError, DataError, LossConfig,
                  TeacherTargets, cosine_similarity_matrix, generate_fixtures,
                  init_heads, init_params, loss_and_gradients, make_batches,
                  softmax_with_temperature)
from xmrt.core import _as_equal_shape_matrices, _softmax_forward, as_matrix

from conftest import head_pair, identity_batch


class TestAsMatrix:
    def test_coerces_lists(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(DataError, match="2-D"):
            as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            as_matrix([[1.0, np.nan]])


_SEEDED_ENTRY_POINTS = {
    "init_params": lambda tmp, seed: init_params(4, 3, 2, seed=seed),
    "init_heads": lambda tmp, seed: init_heads(4, 3, seed=seed),
    "generate_fixtures": lambda tmp, seed: generate_fixtures(
        str(tmp), n_items=8, seed=seed),
    "make_batches": lambda tmp, seed: make_batches(8, 2, seed, 0),
}


@pytest.mark.parametrize("entry", sorted(_SEEDED_ENTRY_POINTS))
def test_negative_seed_is_a_config_error(entry, tmp_path):
    _SEEDED_ENTRY_POINTS[entry](tmp_path, 0)
    with pytest.raises(ConfigError, match="seed"):
        _SEEDED_ENTRY_POINTS[entry](tmp_path, -1)


class TestAsEqualShapeMatrices:
    def test_names_the_item_of_another_shape(self):
        with pytest.raises(ContractError,
                           match=r"m 2 has shape \(2, 1\), expected \(1, 2\)"):
            _as_equal_shape_matrices([np.ones((1, 2))] * 2 + [np.ones((2, 1))],
                                     "m")

    def test_names_the_non_finite_item(self):
        with pytest.raises(DataError, match="m 1 contains non-finite"):
            _as_equal_shape_matrices([np.ones((1, 2)), [[np.inf, 0.0]]], "m")


class TestCosineSimilarity:
    def test_hand_case(self):
        # cos between [1,0] and [1,1] is 1/sqrt(2)
        sim = cosine_similarity_matrix([[1.0, 0.0]], [[1.0, 1.0]])
        np.testing.assert_allclose(sim, [[0.70710678]], atol=1e-8)

    def test_identical_unit_rows_give_ones(self):
        v = np.array([[3.0, 4.0]])
        sim = cosine_similarity_matrix(v, v)
        assert sim[0, 0] == 1.0

    def test_orthogonal_rows_give_zero(self):
        sim = cosine_similarity_matrix([[1.0, 0.0]], [[0.0, 5.0]])
        assert sim[0, 0] == 0.0

    def test_output_is_clipped(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 7))
        sim = cosine_similarity_matrix(a, a)
        assert sim.max() <= 1.0 and sim.min() >= -1.0

    def test_holds_one_matrix(self):
        # clipped in place: a second gallery-by-caption matrix would double
        # the peak memory of scoring a split
        rng = np.random.default_rng(1)
        audio = rng.standard_normal((1000, 8))
        text = rng.standard_normal((2000, 8))
        tracemalloc.start()
        try:
            sim = cosine_similarity_matrix(audio, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sim.nbytes

    def test_width_mismatch(self):
        with pytest.raises(ContractError, match="widths differ"):
            cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_zero_norm_names_the_item(self):
        with pytest.raises(DataError, match="zero norm at text row 1"):
            cosine_similarity_matrix(np.ones((2, 2)),
                                     np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_norm_plain_array_names_the_row(self):
        with pytest.raises(DataError, match="row 0"):
            cosine_similarity_matrix(np.zeros((1, 2)), np.ones((1, 2)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_names_the_row(self):
        # Unit rows of an overflowed norm would all be 0, and the all-zero
        # matrix would rank by tie order alone.
        rng = np.random.default_rng(0)
        audio = rng.standard_normal((4, 3))
        audio[2:] *= 1e160
        with pytest.raises(DataError, match="norm overflowed to a non-finite "
                                            "value at audio row 2"):
            cosine_similarity_matrix(audio, rng.standard_normal((5, 3)))


class TestSoftmax:
    def test_tau_one_hand_case(self):
        p = softmax_with_temperature([[1.0, 0.0]], 1.0, Axis.ROWS)
        np.testing.assert_allclose(
            p, [[0.73105858, 0.26894142]], atol=1e-8)

    def test_low_temperature_sharpens(self):
        # tau=0.05 turns a 1-vs-0 margin into odds e^20
        p = softmax_with_temperature([[1.0, 0.0]], 0.05, Axis.ROWS)
        expected_small = 1.0 / (1.0 + math.exp(20.0))
        np.testing.assert_allclose(p[0, 1], expected_small, rtol=1e-9)
        np.testing.assert_allclose(p[0, 0], 1.0 - expected_small,
                                   rtol=1e-12)

    def test_rows_and_columns_normalize_their_own_axis(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 6))
        rows = softmax_with_temperature(z, 0.5, Axis.ROWS)
        cols = softmax_with_temperature(z, 0.5, Axis.COLUMNS)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        a = softmax_with_temperature(z, 0.3, Axis.ROWS)
        b = softmax_with_temperature(z + 100.0, 0.3, Axis.ROWS)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0,
                                     1e-310, 5e-324])
    def test_tau_must_be_finite_and_positive(self, tau):
        # a subnormal tau's 1/tau overflows, and every logit with it
        with pytest.raises(ConfigError, match="temperature must be finite"):
            softmax_with_temperature(np.eye(2), tau, Axis.ROWS)

    @pytest.mark.filterwarnings("error")
    def test_a_numpy_scalar_tau_whose_reciprocal_overflows_does_not_warn(
            self):
        with pytest.raises(ConfigError, match=r"^temperature must be finite "
                                              r"and > 0 with a finite "
                                              r"1/temperature, got 1e-310$"):
            softmax_with_temperature(np.eye(2), np.float64(1e-310),
                                     Axis.ROWS)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((5, 5))
        shifted, log_s, q = _softmax_forward(z / 0.05, Axis.COLUMNS)
        logp = shifted - log_s
        p = softmax_with_temperature(z, 0.05, Axis.COLUMNS)
        assert np.array_equal(q, p)
        # compare where p is large enough for log() to be well conditioned
        mask = p > 1e-300
        np.testing.assert_allclose(np.exp(logp)[mask], p[mask], rtol=1e-12)
        np.testing.assert_allclose(
            np.exp(logp).sum(axis=0), 1.0, atol=1e-12)


class TestCrossEntropy:
    """The package's one cross-entropy, seen through the objective."""

    def test_one_hot_vs_uniform_is_log4(self):
        # all-zero heads give uniform logits over 4 clusters
        head = head_pair(np.zeros((6, 2)), np.zeros(6),
                         np.zeros((4, 6)), np.zeros(4))
        terms = loss_and_gradients(
            *identity_batch(np.eye(2), np.eye(2), head),
            LossConfig(), labels=np.array([0, 3]))[0]
        np.testing.assert_allclose(terms.l_cls_audio, math.log(4.0),
                                   atol=1e-12)

    def test_uniform_self_entropy_is_log2(self):
        # uniform targets against a uniform student: ln 2 per direction;
        # every audio row is orthogonal to every caption row
        u = np.full((2, 2), 0.5)
        terms = loss_and_gradients(
            *identity_batch([[1.0, 0.0]] * 2, [[0.0, 1.0]] * 2),
            LossConfig(tau=1.0), TeacherTargets(u, u))[0]
        np.testing.assert_allclose(terms.l_dist, 2.0 * math.log(2.0),
                                   atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match="shape"):
            TeacherTargets(np.full((1, 2), 0.5), np.full((1, 3), 1 / 3))
