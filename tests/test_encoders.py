"""Tests for the linear encoders and classification heads."""

import numpy as np
import pytest

from xmrt import (ClassificationHead, ConfigError, ContractError, DataError,
                  LinearEncoder, ModelParams, encode, init_heads,
                  init_params)
from xmrt.encoders import HEAD_WIDTH_FACTOR, _head_forward, _stack_heads

from conftest import headed_params


class TestLinearEncoder:
    def test_shape_agreement_enforced(self):
        with pytest.raises(ContractError, match="disagree"):
            LinearEncoder(np.ones((3, 2)), np.zeros(4), "audio")

    def test_rejects_unknown_modality(self):
        with pytest.raises(ConfigError, match="modality"):
            LinearEncoder(np.ones((2, 2)), np.zeros(2), "video")

    def test_rejects_nonfinite_weights(self):
        w = np.ones((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            LinearEncoder(w, np.zeros(2), "audio")

    def test_dims(self):
        enc = LinearEncoder(np.ones((4, 7)), np.zeros(4), "text")
        assert enc.d_in == 7 and enc.d_out == 4


class TestEncode:
    def test_matches_manual_affine(self):
        rng = np.random.default_rng(0)
        enc = LinearEncoder(rng.standard_normal((3, 5)),
                            rng.standard_normal(3), "audio")
        x = rng.standard_normal((4, 5))
        out = encode(enc, x)
        np.testing.assert_allclose(out, x @ enc.weight.T + enc.bias,
                                   atol=1e-14)

    def test_zero_weight_gives_bias_rows(self):
        enc = LinearEncoder(np.zeros((2, 3)), np.array([1.5, -2.0]), "text")
        out = encode(enc, np.random.default_rng(1).standard_normal((5, 3)))
        np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (5, 1)))

    def test_width_mismatch(self):
        enc = LinearEncoder(np.ones((2, 3)), np.zeros(2), "audio")
        with pytest.raises(ContractError, match="width"):
            encode(enc, np.ones((4, 5)))


def _logits(head, emb):
    """One head's logits on emb through the stacked head forward."""
    return _head_forward(_stack_heads([head]), emb[None])[2][0]


class TestClassificationHead:
    def test_hidden_width_rule(self):
        # hidden layer must be exactly HEAD_WIDTH_FACTOR times the input
        with pytest.raises(ContractError, match="hidden width"):
            ClassificationHead(np.ones((5, 2)), np.zeros(5),
                               np.ones((3, 5)), np.zeros(3))

    def test_hand_forward_pass(self):
        # relu([2, -2, 0]) = [2, 0, 0], summed by w2 -> logit 2
        head = ClassificationHead(np.array([[1.0], [-1.0], [0.0]]),
                                  np.zeros(3),
                                  np.array([[1.0, 1.0, 1.0]]),
                                  np.zeros(1))
        logits = _logits(head, np.array([[2.0]]))
        np.testing.assert_allclose(logits, [[2.0]], atol=1e-14)

    def test_hand_forward_pass_wide(self):
        # encoder width 2, second column inert: relu([2,-2,0]) -> [2,0,0]
        w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        w1 = np.vstack([w1, np.zeros((3, 2))])  # pad to 3x width rule
        head = ClassificationHead(w1, np.zeros(6),
                                  np.array([[1.0, 1.0, 1.0, 0, 0, 0]]),
                                  np.zeros(1))
        logits = _logits(head, np.array([[2.0, 7.0]]))
        np.testing.assert_allclose(logits, [[2.0]], atol=1e-14)

    def test_all_zero_weights_yield_b2(self):
        head = ClassificationHead(np.zeros((6, 2)), np.zeros(6),
                                  np.zeros((2, 6)), np.array([1.0, 2.0]))
        logits = _logits(head, np.ones((3, 2)))
        np.testing.assert_array_equal(logits, np.tile([1.0, 2.0], (3, 1)))

    def test_relu_blocks_negative_hidden(self):
        head = ClassificationHead(-np.ones((6, 2)), np.zeros(6),
                                  np.ones((1, 6)), np.zeros(1))
        logits = _logits(head, np.ones((1, 2)))
        assert logits[0, 0] == 0.0

    def test_classify_width_mismatch(self):
        head = ClassificationHead(np.zeros((6, 2)), np.zeros(6),
                                  np.zeros((2, 6)), np.zeros(2))
        with pytest.raises(ContractError, match="width"):
            _logits(head, np.ones((1, 3)))


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(5, 4, 3, seed=7)
        b = init_params(5, 4, 3, seed=7)
        for name, tensor in a.named_tensors().items():
            np.testing.assert_array_equal(tensor, b.named_tensors()[name])

    def test_seed_changes_weights(self):
        a = init_params(5, 4, 3, seed=0)
        b = init_params(5, 4, 3, seed=1)
        assert not np.array_equal(a.audio_encoder.weight,
                                  b.audio_encoder.weight)

    def test_fanin_bounds(self):
        p = init_params(9, 4, 3, seed=2)
        assert np.all(np.abs(p.audio_encoder.weight) <= 1.0 / 3.0)
        assert np.all(np.abs(p.text_encoder.weight) <= 0.5)

    def test_biases_start_at_zero(self):
        p = init_params(5, 4, 3, seed=3)
        assert not p.audio_encoder.bias.any()
        assert not p.text_encoder.bias.any()

    def test_heads_join_only_through_with_heads(self):
        p = init_params(5, 4, 3)
        assert not p.has_heads
        p = p.with_heads(*init_heads(3, 6))
        assert p.has_heads and p.n_clusters == 6
        assert p.audio_head.w1.shape == (HEAD_WIDTH_FACTOR * 3, 3)

    def test_zero_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_params(0, 4, 3)
        with pytest.raises(ConfigError):
            init_params(5, 4, 1)
        with pytest.raises(ConfigError):
            init_heads(3, 0)


class TestInitHeads:
    def test_deterministic_and_distinct_per_modality(self):
        a1, t1 = init_heads(4, 3, seed=9)
        a2, t2 = init_heads(4, 3, seed=9)
        np.testing.assert_array_equal(a1.w1, a2.w1)
        np.testing.assert_array_equal(t1.w2, t2.w2)
        assert not np.array_equal(a1.w1, t1.w1)

    def test_shapes_and_zero_biases(self):
        audio, text = init_heads(4, 5, seed=0)
        for head in (audio, text):
            assert head.w1.shape == (12, 4)
            assert head.w2.shape == (5, 12)
            assert not head.b1.any() and not head.b2.any()


class TestModelParams:
    def test_named_tensor_order_without_heads(self):
        p = init_params(5, 4, 3, seed=0)
        assert list(p.named_tensors()) == [
            "audio_encoder.weight", "audio_encoder.bias",
            "text_encoder.weight", "text_encoder.bias"]

    def test_named_tensor_order_with_heads(self):
        p = headed_params(5, 4, 3, 2, seed=0)
        names = list(p.named_tensors())
        assert names[:4] == ["audio_encoder.weight", "audio_encoder.bias",
                             "text_encoder.weight", "text_encoder.bias"]
        assert names[4:] == ["audio_head.w1", "audio_head.b1",
                             "audio_head.w2", "audio_head.b2",
                             "text_head.w1", "text_head.b1",
                             "text_head.w2", "text_head.b2"]

    def test_with_tensors_round_trip(self):
        p = headed_params(5, 4, 3, 2, seed=0)
        rebuilt = p.with_tensors(
            {k: v.copy() for k, v in p.named_tensors().items()})
        for name, tensor in p.named_tensors().items():
            np.testing.assert_array_equal(tensor,
                                          rebuilt.named_tensors()[name])

    def test_with_tensors_rejects_missing_names(self):
        p = init_params(5, 4, 3, seed=0)
        tensors = p.named_tensors()
        tensors.pop("text_encoder.bias")
        with pytest.raises(ContractError, match="names"):
            p.with_tensors(tensors)

    def test_with_heads_attaches_both(self):
        p = init_params(5, 4, 3, seed=0)
        audio, text = init_heads(3, 4, seed=1)
        q = p.with_heads(audio, text)
        assert q.has_heads and q.n_clusters == 4
        assert not p.has_heads  # original untouched

    def test_single_head_rejected(self):
        p = init_params(5, 4, 3, seed=0)
        audio, _ = init_heads(3, 4)
        with pytest.raises(ContractError, match="both"):
            p.with_heads(audio, None)

    def test_embedding_width_mismatch_rejected(self):
        a = LinearEncoder(np.ones((3, 5)), np.zeros(3), "audio")
        t = LinearEncoder(np.ones((4, 5)), np.zeros(4), "text")
        with pytest.raises(ContractError, match="embedding width"):
            ModelParams(a, t)
