"""Tests for the optimizer, schedule, batching, pair mixing, and stages."""

import functools
import inspect
import itertools

import numpy as np
import pytest

from xmrt import (ConfigError, ContractError, DataError, LossConfig,
                  ModelParams, PairedDataset, adamw_step, core,
                  expand_with_mixes, init_params, loss_and_gradients,
                  make_batches, run_stage, student_similarity,
                  targets_from_teacher_sims)
from xmrt import losses, training
from xmrt.training import STAGES, _learning_rates

from conftest import adamw_reference, headed_params, lr_reference


def _adamw(theta, grads, lr, weight_decay=0.0):
    """A copy of theta after one adamw_step per gradient, from zeroed
    moments; returns (theta, m, v)."""
    theta = np.array(theta, dtype=np.float64)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for step, g in enumerate(grads, 1):
        adamw_step(theta, np.asarray(g, dtype=np.float64), m, v, step, lr,
                   weight_decay)
    return theta, m, v


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        theta = np.array([0.7, -1.5, 3.0])
        out, _, _ = _adamw(theta, [np.zeros(3)], lr=1e-3)
        assert out.tobytes() == theta.tobytes()

    def test_first_step_closed_form(self):
        # bias-corrected m_hat = g and v_hat = g*g, so each element steps
        # -lr*g/(|g|+eps): lr against the gradient's sign, whatever its size
        g = np.array([1.0, -2.0, 0.5])
        out, _, _ = _adamw(np.zeros(3), [g], lr=1e-3)
        assert abs(out[0] - (-9.99999994e-4)) < 1e-11
        np.testing.assert_allclose(out, -1e-3 * np.sign(g), rtol=1e-7)

    def test_decay_only(self):
        out, _, _ = _adamw(np.ones(3), [np.zeros(3)], lr=0.1,
                           weight_decay=0.01)
        assert (out == 0.999).all()

    def test_decay_is_decoupled_from_moments(self):
        # same gradient, with and without decay: the difference must be
        # exactly lr*wd*theta, untouched by the adaptive scaling
        theta, g, lr = np.array([2.0, -1.0]), np.array([0.5, 3.0]), 1e-2
        plain, _, _ = _adamw(theta, [g], lr)
        decayed, _, _ = _adamw(theta, [g], lr, weight_decay=0.1)
        np.testing.assert_allclose(plain - decayed, lr * 0.1 * theta,
                                   rtol=1e-12)

    def test_moments_advance_in_place(self):
        theta, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
        assert adamw_step(theta, np.array([1.0, -2.0]), m, v, 1, 1e-3,
                          0.0) is None
        np.testing.assert_allclose(theta, [-1e-3, 1e-3], rtol=1e-7)
        np.testing.assert_allclose(m, [0.1, -0.2], rtol=1e-12)
        np.testing.assert_allclose(v, [0.001, 0.004], rtol=1e-12)

    def test_steps_with_decay_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(7)
        grads = rng.standard_normal((5, 7))
        out, m_out, v_out = _adamw(theta, grads, lr=0.03, weight_decay=0.1)
        m, v = np.zeros(7), np.zeros(7)
        for step, g in enumerate(grads, 1):
            theta, m, v = adamw_reference(theta, g, m, v, step, 0.03, 0.1)
        for got, want in ((out, theta), (m_out, m), (v_out, v)):
            assert got.tobytes() == want.tobytes()

    def test_descends_a_quadratic(self):
        # minimize |theta - c|^2; gradient 2(theta - c)
        c = np.array([3.0, -1.0, 0.5])
        theta, m, v = np.zeros(3), np.zeros(3), np.zeros(3)
        for step in range(1, 401):
            adamw_step(theta, 2.0 * (theta - c), m, v, step, 0.05, 0.0)
        np.testing.assert_allclose(theta, c, atol=1e-2)

    def test_elements_update_independently(self):
        # One vector step has the bits of separate one-element steps, so
        # the parameter layout cannot change a result.
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        grads = rng.standard_normal((3, 5))
        whole, _, _ = _adamw(theta, grads, lr=0.1, weight_decay=0.01)
        for i in range(5):
            part, _, _ = _adamw(theta[i:i + 1], grads[:, i:i + 1], lr=0.1,
                                weight_decay=0.01)
            assert part.tobytes() == whole[i:i + 1].tobytes()

    def test_shape_mismatch(self):
        theta = np.zeros(4)
        with pytest.raises(ContractError, match="shape"):
            adamw_step(theta, np.zeros(3), np.zeros(4), np.zeros(4), 1,
                       1e-3, 0.0)
        with pytest.raises(ContractError, match="moments"):
            adamw_step(theta, np.zeros(4), np.zeros(4), np.zeros(3), 1,
                       1e-3, 0.0)

    def test_negative_lr(self):
        with pytest.raises(ConfigError, match="learning rate"):
            _adamw(np.zeros(1), [np.ones(1)], lr=-1e-3)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ConfigError, match="weight_decay"):
            _adamw(np.zeros(1), [np.ones(1)], lr=1e-3, weight_decay=-0.1)
        with pytest.raises(ContractError, match="step must be >= 1"):
            adamw_step(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1), 0,
                       1e-3, 0.0)


class TestSchedule:
    def _rates(self):
        return list(_learning_rates(2e-5, 1e-7, total_steps=30,
                                    warmup_steps=10))

    def test_one_rate_per_step_run(self):
        assert len(self._rates()) == 30

    def test_warmup_end_hits_peak_exactly(self):
        assert self._rates()[10] == 2e-5

    def test_last_step_lies_above_the_floor(self):
        # the cosine would reach the floor at step 30, which no stage runs
        last = self._rates()[-1]
        assert 2.2e-7 < last < 2.3e-7

    def test_starts_at_zero(self):
        assert self._rates()[0] == 0.0

    def test_warmup_is_linear(self):
        rates = self._rates()
        np.testing.assert_allclose(rates[5], 1e-5, rtol=1e-12)
        np.testing.assert_allclose(rates[1], 2e-6, rtol=1e-12)

    def test_cosine_midpoint_is_the_mean(self):
        mid = self._rates()[20]  # halfway through the cosine span
        assert abs(mid - (2e-5 + 1e-7) / 2.0) < 1e-12

    def test_monotone_after_warmup(self):
        values = self._rates()[10:]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup_starts_at_peak(self):
        assert next(_learning_rates(2e-5, 1e-7, 10, 0)) == 2e-5

    def test_rates_are_made_as_their_steps_run(self):
        # a list of 10**15 rates would not fit; the first ones come at once
        rates = _learning_rates(2e-5, 1e-7, 10**15, 10)
        assert list(itertools.islice(rates, 12)) == [
            lr_reference(2e-5, 1e-7, 10**15, 10, step) for step in range(12)]

    def test_zero_peak_allowed(self):
        assert list(_learning_rates(0.0, 0.0, 5, 1))[3] == 0.0

    @pytest.mark.parametrize("total, warmup", [
        (1, 0), (2, 0), (30, 0), (8, 1), (30, 10), (7, 6)])
    def test_every_rate_matches_the_reference(self, total, warmup):
        rates = list(_learning_rates(2e-5, 1e-7, total, warmup))
        assert rates == [lr_reference(2e-5, 1e-7, total, warmup, step)
                         for step in range(total)]

    def test_a_full_warmup_fraction_peaks_at_the_last_step(self):
        # warmup ends one step early, so the last step runs at the peak
        _, records = run_stage("pretrain", init_params(8, 6, 4, seed=0),
                               _toy_dataset(), epochs=2, batch_size=8,
                               peak_lr=1e-3, warmup_fraction=1.0)
        assert [r.lr for r in records] == list(
            _learning_rates(1e-3, 1e-7, 8, 7))
        assert records[-1].lr == 1e-3


class TestMakeBatches:
    def test_drops_short_final_batch(self):
        batches = make_batches(10, 4, seed=0, epoch=0)
        assert len(batches) == 2
        used = np.concatenate(batches)
        assert len(used) == 8 and len(set(used.tolist())) == 8
        assert set(used.tolist()) <= set(range(10))

    def test_deterministic_per_seed_and_epoch(self):
        a = make_batches(20, 5, seed=3, epoch=2)
        b = make_batches(20, 5, seed=3, epoch=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_shuffle_differently(self):
        a = np.concatenate(make_batches(40, 8, seed=0, epoch=0))
        b = np.concatenate(make_batches(40, 8, seed=0, epoch=1))
        assert not np.array_equal(a, b)

    def test_takes_an_item_count_only(self):
        assert len(make_batches(np.int64(9), 4, seed=0, epoch=0)) == 2
        dataset = PairedDataset(np.ones((9, 2)), np.ones((9, 3)))
        for not_a_count in (dataset, 9.0):
            with pytest.raises(TypeError):
                make_batches(not_a_count, 4, seed=0, epoch=0)

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError, match=">= 2"):
            make_batches(10, 1, seed=0, epoch=0)

    def test_dataset_too_small(self):
        with pytest.raises(ContractError, match="cannot fill"):
            make_batches(3, 4, seed=0, epoch=0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError, match="epoch must be >= 0"):
            make_batches(8, 2, 0, -1)


class TestPairedDataset:
    def test_row_counts_must_match(self):
        with pytest.raises(ContractError, match="3 audio rows vs 2 caption"):
            PairedDataset(np.ones((3, 2)), np.ones((2, 2)))

    def test_caption_id_count_must_match(self):
        with pytest.raises(ContractError, match="1 caption ids for 2 rows"):
            PairedDataset(np.ones((2, 2)), np.ones((2, 2)),
                          caption_ids=("c0",))

    @pytest.mark.parametrize("side", ["audio", "text"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_features_must_be_finite(self, side, bad):
        features = {"audio": np.ones((2, 3)), "text": np.ones((2, 2))}
        features[side][1, 0] = bad
        with pytest.raises(DataError, match=f"{side} features contains "
                                            "non-finite"):
            PairedDataset(features["audio"], features["text"])


class TestMixPairs:
    """Pair mixing as expand_with_mixes performs it: 0.5/0.5 averages."""

    def test_identical_inputs_are_a_fixed_point(self):
        row_a, row_t = [1.0, 2.0], [3.0]
        dataset = PairedDataset(np.array([row_a, row_a]),
                                np.array([row_t, row_t]))
        mixed = expand_with_mixes(dataset, mix_count=1, rng_seed=0)
        np.testing.assert_array_equal(mixed.audio_features[2], row_a)
        np.testing.assert_array_equal(mixed.text_features[2], row_t)

    def test_feature_arithmetic(self):
        dataset = PairedDataset(np.array([[0.0, 2.0], [2.0, 0.0]]),
                                np.array([[0.0], [4.0]]))
        mixed = expand_with_mixes(dataset, mix_count=1, rng_seed=0)
        np.testing.assert_array_equal(mixed.audio_features[2], [1.0, 1.0])
        np.testing.assert_array_equal(mixed.text_features[2], [2.0])

    def test_result_is_marked_synthetic(self):
        # synthetic rows carry mix ids; the source rows keep their own
        dataset = PairedDataset(np.eye(2), np.eye(2),
                                caption_ids=("c0", "c1"))
        mixed = expand_with_mixes(dataset, mix_count=2, rng_seed=0)
        assert mixed.caption_ids == ("c0", "c1", "mix0000", "mix0001")


class TestExpandWithMixes:
    def _dataset(self, n=6):
        rng = np.random.default_rng(0)
        return PairedDataset(rng.standard_normal((n, 4)),
                             rng.standard_normal((n, 3)),
                             caption_ids=tuple(f"c{i}" for i in range(n)))

    def test_zero_count_returns_dataset_unchanged(self):
        dataset = self._dataset()
        assert expand_with_mixes(dataset, mix_count=0, rng_seed=1) is dataset

    def test_appends_requested_rows(self):
        dataset = self._dataset()
        grown = expand_with_mixes(dataset, mix_count=3, rng_seed=1)
        assert len(grown) == 9
        np.testing.assert_array_equal(grown.audio_features[:6],
                                      dataset.audio_features)
        assert grown.caption_ids[6:] == ("mix0000", "mix0001", "mix0002")

    def test_rows_are_midpoints_of_source_rows(self):
        dataset = self._dataset()
        grown = expand_with_mixes(dataset, mix_count=5, rng_seed=2)
        for row in grown.audio_features[6:]:
            # each synthetic row must be the average of two source rows
            diffs = dataset.audio_features[:, None, :] \
                + dataset.audio_features[None, :, :]
            match = np.isclose(0.5 * diffs, row, atol=1e-12).all(axis=2)
            assert match.any()

    def test_deterministic_per_seed(self):
        a = expand_with_mixes(self._dataset(), mix_count=4, rng_seed=7)
        b = expand_with_mixes(self._dataset(), mix_count=4, rng_seed=7)
        np.testing.assert_array_equal(a.audio_features, b.audio_features)
        c = expand_with_mixes(self._dataset(), mix_count=4, rng_seed=8)
        assert not np.array_equal(a.audio_features, c.audio_features)

    def test_needs_two_items(self):
        tiny = PairedDataset(np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ContractError, match="2"):
            expand_with_mixes(tiny, mix_count=1, rng_seed=0)

    @pytest.mark.parametrize("name", ["mix_count", "rng_seed"])
    def test_negative_values_rejected(self, name):
        # checked before a zero mix_count returns the dataset unchanged
        with pytest.raises(ConfigError,
                           match=f"{name} must be a non-negative integer"):
            expand_with_mixes(self._dataset(), **{name: -1})


class TestStageArguments:
    @pytest.mark.parametrize("stage, epochs, batch_size, message", [
        ("warmup", 1, 8, r"^unknown stage 'warmup', expected one of "
                         r"\('pretrain', 'finetune', 'refinetune'\)$"),
        ("pretrain", -1, 8, r"^epochs must be >= 0$"),
        ("pretrain", 0, 1, r"^batch_size must be >= 2$")])
    def test_bad_stage_argument_is_a_config_error(self, stage, epochs,
                                                  batch_size, message):
        with pytest.raises(ConfigError, match=message):
            run_stage(stage, init_params(8, 6, 4, seed=0), _toy_dataset(),
                      epochs=epochs, batch_size=batch_size)

    # The name is the only switch: the rules below follow from it alone.
    def test_pretrain_cannot_distill(self):
        # no keyword can switch a term on; that run_stage rejects a
        # pretrain's teachers is test_teachers_rejected_when_distillation_off
        keywords = [p.name for p in inspect.signature(
            run_stage).parameters.values() if p.kind is p.KEYWORD_ONLY]
        assert keywords == ["epochs", "batch_size", "loss_cfg", "peak_lr",
                            "floor_lr", "warmup_fraction", "weight_decay",
                            "seed"]

    def test_clusters_only_in_refinetune(self):
        params = headed_params(8, 6, 4, 2, seed=0)
        with pytest.raises(ConfigError, match="finetune does not accept "
                                              "labels"):
            run_stage("finetune", params, _toy_dataset(), teachers=[params],
                      pseudo_labels=np.zeros(32, dtype=int), epochs=1,
                      batch_size=8)


def _toy_dataset(n=32, d_audio=8, d_text=6, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 4))
    a_mix = rng.standard_normal((4, d_audio))
    t_mix = rng.standard_normal((4, d_text))
    return PairedDataset(latent @ a_mix, latent @ t_mix)


def _stage_inputs(name):
    """A student and the inputs its stage requires, for _toy_dataset()."""
    if name == "refinetune":
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        return (headed_params(8, 6, 4, 3, seed=0),
                {"pseudo_labels": labels})
    inputs = {}
    if name == "finetune":
        inputs["teachers"] = [init_params(8, 6, 4, seed=9)]
    return init_params(8, 6, 4, seed=0), inputs


class TestRunStage:
    def test_zero_epochs_is_identity(self):
        params = init_params(8, 6, 4, seed=0)
        out, log = run_stage("pretrain", params, _toy_dataset(), epochs=0)
        assert out is params and log == []

    def test_zero_lr_leaves_params_bit_identical(self):
        params = init_params(8, 6, 4, seed=0)
        out, log = run_stage("pretrain", params, _toy_dataset(), epochs=2,
                             batch_size=8, peak_lr=0.0, floor_lr=0.0,
                             weight_decay=0.0)
        assert len(log) == 8
        for name, tensor in params.named_tensors().items():
            np.testing.assert_array_equal(tensor,
                                          out.named_tensors()[name])

    def test_supervised_loss_descends(self):
        # separable planted data: mean supervised loss must drop
        params = init_params(8, 6, 4, seed=0)
        _, log = run_stage("pretrain", params, _toy_dataset(64), epochs=20,
                           batch_size=8, peak_lr=0.05, floor_lr=1e-4, seed=0)
        per_epoch = {}
        for record in log:
            per_epoch.setdefault(record.epoch, []).append(record.l_sup)
        first = np.mean(per_epoch[0])
        last = np.mean(per_epoch[19])
        assert last < first

    def test_deterministic_per_seed(self):
        def train():
            params = init_params(8, 6, 4, seed=1)
            return run_stage("pretrain", params, _toy_dataset(), epochs=3,
                             batch_size=8, peak_lr=1e-3, seed=5)

        out_a, log_a = train()
        out_b, log_b = train()
        for name, tensor in out_a.named_tensors().items():
            np.testing.assert_array_equal(tensor,
                                          out_b.named_tensors()[name])
        assert [r.total for r in log_a] == [r.total for r in log_b]

    def test_log_carries_schedule_and_steps(self):
        params = init_params(8, 6, 4, seed=0)
        _, log = run_stage("pretrain", params, _toy_dataset(), epochs=2,
                           batch_size=8, peak_lr=2e-5, floor_lr=1e-7)
        assert [r.step for r in log] == list(range(8))
        assert log[0].lr == 0.0  # warmup starts at zero
        assert all(np.isfinite(r.total) for r in log)
        assert all(r.l_dist == 0.0 for r in log)

    def test_distillation_stage_needs_teachers(self):
        params = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="teacher"):
            run_stage("finetune", params, _toy_dataset(), epochs=1,
                      batch_size=8)

    def test_teachers_rejected_when_distillation_off(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = init_params(8, 6, 4, seed=9)
        with pytest.raises(ConfigError, match="teachers"):
            run_stage("pretrain", params, _toy_dataset(), teachers=[teacher],
                      epochs=1, batch_size=8)

    def test_cluster_stage_needs_labels_and_heads(self):
        stage = dict(epochs=1, batch_size=8)
        headless = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="labels"):
            run_stage("refinetune", headless, _toy_dataset(), **stage)
        with pytest.raises(ConfigError, match="heads"):
            run_stage("refinetune", headless, _toy_dataset(),
                      pseudo_labels=np.zeros(32, dtype=int), **stage)

    def test_labels_rejected_when_clusters_off(self):
        params = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="labels"):
            run_stage("pretrain", params, _toy_dataset(),
                      pseudo_labels=np.zeros(32, dtype=int), epochs=1,
                      batch_size=8)

    # A stage of 0 epochs takes no step, yet rejects the same values;
    # the cases without epochs go to adamw_step.
    @pytest.mark.parametrize("name, value, epochs", [
        (name, value, epochs) for name, value in [
            ("warmup_fraction", float("nan")), ("warmup_fraction", 3.0),
            ("warmup_fraction", -0.1), ("weight_decay", float("nan")),
            ("weight_decay", float("inf")), ("peak_lr", float("inf")),
            ("peak_lr", float("nan")), ("peak_lr", -1e-5),
            ("floor_lr", float("nan")),
            ("floor_lr", 2 * 2e-5), ("seed", -1)] for epochs in (1, 0)] + [
        ("lr", float("inf"), None), ("lr", float("nan"), None),
        ("weight_decay", -0.1, None), ("weight_decay", float("nan"), None)])
    def test_bad_schedule_argument_is_a_config_error_naming_it(self, name,
                                                               value, epochs):
        if epochs is None:
            args = dict(theta=np.zeros(2), grad=np.ones(2), m=np.zeros(2),
                        v=np.zeros(2), step=1, lr=1e-3, weight_decay=0.0)
            call = functools.partial(adamw_step, **{**args, name: value})
        else:
            call = functools.partial(
                run_stage, "pretrain", init_params(8, 6, 4, seed=0),
                _toy_dataset(), epochs=epochs, batch_size=8,
                **{name: value})
        with pytest.raises(ConfigError, match=rf"\b{name} must"):
            call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", STAGES)
    def test_divergence_names_stage_step_and_loss_terms(self, name):
        # Warmup reaches lr 2.5e307 at step 1, which overflows AdamW.
        params, inputs = _stage_inputs(name)
        with pytest.raises(DataError,
                           match=f"stage {name} diverged at step 1 ") as err:
            run_stage(name, params, _toy_dataset(), epochs=2, batch_size=8,
                      peak_lr=1e308, warmup_fraction=0.5, **inputs)
        message = str(err.value)
        cls = "" if name == "refinetune" else "0"
        for part in ("epoch 0", "lr 2.5e+307", "l_sup=", "l_dist=",
                     f"l_cls_audio={cls}", f"l_cls_text={cls}", "total=",
                     "non-finite parameters"):
            assert part in message
        assert isinstance(err.value.__cause__, DataError)

    @pytest.mark.parametrize("name", ["finetune", "refinetune"])
    def test_inputs_are_neither_written_nor_aliased(self, name):
        params, inputs = _stage_inputs(name)
        given = [params, *inputs.get("teachers", [])]
        before = [self._param_bytes(p) for p in given]
        trained, _ = run_stage(name, params, _toy_dataset(), epochs=2,
                               batch_size=8, peak_lr=1e-2, **inputs)
        assert [self._param_bytes(p) for p in given] == before
        for out in trained.named_tensors().values():
            for p in given:
                assert not any(np.shares_memory(out, t)
                               for t in p.named_tensors().values())

    def test_stage_builds_its_model_once(self, monkeypatch):
        calls = []
        rebuild = ModelParams.with_tensors

        def counting(params, tensors):
            calls.append(len(tensors))
            return rebuild(params, tensors)

        monkeypatch.setattr(ModelParams, "with_tensors", counting)
        _, log = run_stage("pretrain", init_params(8, 6, 4, seed=0),
                           _toy_dataset(), epochs=2, batch_size=8)
        assert len(log) == 8
        assert len(calls) == 1

    @staticmethod
    def _scaled(params, factor):
        return params.with_tensors(
            {name: factor * t if name.endswith("weight") else t
             for name, t in params.named_tensors().items()})

    @pytest.mark.filterwarnings("error")
    def test_overflowing_student_forward_names_the_step(self):
        # Unit embeddings of an overflowed norm would all be 0 and train
        # at a constant loss instead of failing.
        params = self._scaled(init_params(8, 6, 4, seed=0), 1e160)
        with pytest.raises(DataError,
                           match="stage pretrain diverged at step 0 ") as err:
            run_stage("pretrain", params, _toy_dataset(), epochs=1,
                      batch_size=8)
        assert "norm overflowed" in str(err.value)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_teacher_forward_names_the_step(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = self._scaled(init_params(8, 6, 4, seed=9), 1e160)
        with pytest.raises(DataError,
                           match=r"stage finetune diverged at step 0 "
                                 r"\(epoch 0, lr 2e-05\): an embedding norm"):
            run_stage("finetune", params, _toy_dataset(), teachers=[teacher],
                      epochs=1, batch_size=8)

    def test_workspace_past_its_budget_is_a_config_error(self,
                                                         monkeypatch):
        # The budget fits exactly the batch-8 workspace: five 8 x 8
        # buffers, the gradient vector and AdamW's two scratch vectors.
        params = init_params(8, 6, 4, seed=0)
        size = sum(t.size for t in params.named_tensors().values())
        monkeypatch.setattr(core, "_ALLOC_BYTES", 8 * (5 * 64 + 3 * size))
        assert len(run_stage("pretrain", params, _toy_dataset(), epochs=1,
                             batch_size=8)[1]) == 4
        needed = 8 * (5 * 16 * 16 + 3 * size)
        with pytest.raises(ConfigError, match=rf"^batch_size 16 needs a "
                                              rf"{needed}-byte training"):
            run_stage("pretrain", params, _toy_dataset(), epochs=1,
                      batch_size=16)

    def test_teacher_targets_count_toward_the_budget(self, monkeypatch):
        # The budget fits exactly the batch-8 finetune with one teacher:
        # 5 + 4 squares and three model-sized vectors (the gradient and
        # AdamW's scratch); three teachers need 13 squares.
        params = init_params(8, 6, 4, seed=0)
        size = sum(t.size for t in params.named_tensors().values())
        monkeypatch.setattr(core, "_ALLOC_BYTES", 8 * (9 * 64 + 3 * size))
        stage = dict(epochs=1, batch_size=8)
        teachers = [init_params(8, 6, 4, seed=s) for s in (1, 2, 3)]
        assert len(run_stage("finetune", params, _toy_dataset(),
                             teachers=teachers[:1], **stage)[1]) == 4
        needed = 8 * (13 * 64 + 3 * size)
        with pytest.raises(ConfigError, match=rf"^batch_size 8 needs a "
                                              rf"{needed}-byte training "
                                              rf"workspace with 3 teachers"):
            run_stage("finetune", params, _toy_dataset(), teachers=teachers,
                      **stage)

    def test_pseudo_labels_need_one_per_row(self):
        params = headed_params(8, 6, 4, 3, seed=0)
        with pytest.raises(ContractError,
                           match=r"^\(31,\) labels for 32 items$"):
            run_stage("refinetune", params, _toy_dataset(),
                      pseudo_labels=np.zeros(31, dtype=int), epochs=1,
                      batch_size=8)

    def test_dataset_short_of_a_batch_fails_before_the_workspace(
            self, monkeypatch):
        def no_workspace(*args):
            raise AssertionError("built a workspace")

        monkeypatch.setattr(training, "_Workspace", no_workspace)
        with pytest.raises(ContractError, match=r"^dataset of 32 cannot "
                                                r"fill a batch of 64$"):
            run_stage("pretrain", init_params(8, 6, 4, seed=0),
                      _toy_dataset(), epochs=1, batch_size=64)

    def test_out_of_range_label_rejected_before_training(self):
        params = headed_params(8, 6, 4, 3, seed=0)
        labels = np.zeros(32, dtype=int)
        labels[5] = 3
        with pytest.raises(DataError, match=r"^cluster label outside"):
            run_stage("refinetune", params, _toy_dataset(),
                      pseudo_labels=labels, epochs=1, batch_size=8)

    def test_self_teacher_first_step_distills_at_target_entropy(self):
        # before any update the student equals its teacher, so the first
        # recorded distillation loss is the targets' own entropy
        params = init_params(8, 6, 4, seed=2)
        dataset = _toy_dataset(32)
        cfg = LossConfig(lambda2=0.0)
        _, log = run_stage("finetune", params, dataset, teachers=[params],
                           epochs=1, batch_size=8, loss_cfg=cfg, peak_lr=1e-3,
                           seed=3)
        first_idx = make_batches(32, 8, seed=3, epoch=0)[0]
        batch = PairedDataset(dataset.audio_features[first_idx],
                              dataset.text_features[first_idx])
        targets = targets_from_teacher_sims(
            [student_similarity(params, batch)], cfg)
        pa = targets.p_hat_audio
        pc = targets.p_hat_text
        entropy = (-(pa * np.log(pa)).sum(axis=0).mean()
                   - (pc * np.log(pc)).sum(axis=1).mean())
        assert abs(log[0].l_dist - entropy) < 1e-6

    def test_finetune_with_mixes_grows_the_epoch(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = init_params(8, 6, 4, seed=9)
        mixed = expand_with_mixes(_toy_dataset(32), mix_count=8, rng_seed=1)
        _, log = run_stage("finetune", params, mixed, teachers=[teacher],
                           epochs=1, batch_size=8, peak_lr=1e-3)
        assert len(log) == (32 + 8) // 8

    def test_refinetune_trains_heads(self):
        params = headed_params(8, 6, 4, 3, seed=0)
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        out, log = run_stage("refinetune", params, _toy_dataset(32),
                             pseudo_labels=labels, epochs=2, batch_size=8,
                             peak_lr=1e-3)
        assert any(r.l_cls_audio > 0 for r in log)
        assert not np.array_equal(out.heads.w2[0], params.heads.w2[0])

    def test_heads_reach_the_stacked_pass_in_place(self, monkeypatch):
        # Each step's head forward reads the stage's own parameter views,
        # not a per-step copy of the heads.
        seen = []
        forward = losses._head_forward

        def spy(heads, emb):
            seen.append(heads.w1)
            return forward(heads, emb)

        monkeypatch.setattr(losses, "_head_forward", spy)
        labels = np.random.default_rng(0).integers(0, 3, size=16)
        out, _ = run_stage("refinetune", headed_params(8, 6, 4, 3, seed=0),
                           _toy_dataset(16), pseudo_labels=labels, epochs=1,
                           batch_size=8)
        assert len(seen) == 2
        assert np.shares_memory(seen[0], seen[1])
        assert np.shares_memory(seen[1], out.heads.w1)

    @staticmethod
    def _param_bytes(params):
        return {name: t.tobytes() for name, t in params.named_tensors().items()}

    def test_finetune_is_exactly_invariant_to_teacher_order(self):
        params = init_params(8, 6, 4, seed=0)
        teachers = [init_params(8, 6, 4, seed=s) for s in (7, 8, 9)]
        tuned = [self._param_bytes(run_stage(
                     "finetune", params, _toy_dataset(), teachers=list(order),
                     epochs=2, batch_size=8, peak_lr=1e-2, seed=4)[0])
                 for order in itertools.permutations(teachers)]
        assert len(tuned) == 6
        assert all(t == tuned[0] for t in tuned)

    def test_finetune_with_zero_lambda1_trains_as_pretrain(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = init_params(8, 6, 4, seed=9)
        kwargs = dict(epochs=2, batch_size=8, peak_lr=1e-2, seed=4)
        tuned, log = run_stage("finetune", params, _toy_dataset(),
                               teachers=[teacher],
                               loss_cfg=LossConfig(lambda1=0.0), **kwargs)
        plain, _ = run_stage("pretrain", params, _toy_dataset(), **kwargs)
        assert all(r.l_dist > 0 for r in log)   # reported, weighted by 0
        assert self._param_bytes(tuned) == self._param_bytes(plain)

    def test_refinetune_with_zero_lambda2_trains_as_pretrain(self):
        params = headed_params(8, 6, 4, 3, seed=0)
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        kwargs = dict(epochs=2, batch_size=8, peak_lr=1e-2, seed=4)
        tuned, log = run_stage("refinetune", params, _toy_dataset(),
                               pseudo_labels=labels,
                               loss_cfg=LossConfig(lambda2=0.0), **kwargs)
        plain, _ = run_stage("pretrain", params, _toy_dataset(), **kwargs)
        assert all(r.l_cls_audio > 0 for r in log)
        assert self._param_bytes(tuned) == self._param_bytes(plain)


class _DictAdamW:
    """AdamW over name -> array dicts, one tensor at a time: the optimizer
    before the flat parameter vector, kept as the reference for its bits."""

    def __init__(self, tensors, weight_decay):
        self.m = {name: np.zeros_like(t) for name, t in tensors.items()}
        self.v = {name: np.zeros_like(t) for name, t in tensors.items()}
        self.step = 0
        self.weight_decay = weight_decay

    def __call__(self, tensors, grads, lr):
        assert list(grads) == list(tensors)
        self.step += 1
        out = {}
        for name, theta in tensors.items():
            assert grads[name].shape == theta.shape
            out[name], self.m[name], self.v[name] = adamw_reference(
                theta, grads[name], self.m[name], self.v[name], self.step,
                lr, self.weight_decay)
        return out


def _reference_stage(params, dataset, teachers=(), labels=None, *, epochs,
                     batch_size, peak_lr, seed, weight_decay=0.01):
    """run_stage spelled out with the default loss weights, schedule ends
    and warmup fraction: loss_and_gradients -> _DictAdamW -> with_tensors."""
    cfg = LossConfig()
    total = len(dataset) // batch_size * epochs
    warmup = min(total - 1, round(0.1 * total))
    tensors = params.named_tensors()
    adamw = _DictAdamW(tensors, weight_decay)
    step = 0
    for epoch in range(epochs):
        for idx in make_batches(len(dataset), batch_size, seed, epoch):
            batch = PairedDataset(dataset.audio_features[idx],
                                  dataset.text_features[idx])
            targets = None
            if teachers:
                targets = targets_from_teacher_sims(
                    [student_similarity(t, batch) for t in teachers], cfg)
            _, grads = loss_and_gradients(
                params, batch, cfg, targets,
                None if labels is None else labels[idx])
            tensors = adamw(tensors, grads,
                            lr_reference(peak_lr, 1e-7, total, warmup, step))
            params = params.with_tensors(tensors)
            step += 1
    return params


class TestRunStageMatchesDictAdamW:
    """run_stage's one-vector AdamW gives the reference loop's exact bits."""

    @staticmethod
    def _bytes(params):
        return {name: t.tobytes() for name, t in params.named_tensors().items()}

    def _assert_same_bits(self, stage_name, params, dataset=None, **inputs):
        stage = dict(epochs=2, batch_size=8)
        dataset = _toy_dataset() if dataset is None else dataset
        trained, _ = run_stage(stage_name, params, dataset,
                               peak_lr=1e-2, seed=4, **stage, **inputs)
        teachers = inputs.pop("teachers", ())
        labels = inputs.pop("pseudo_labels", None)
        reference = _reference_stage(params, dataset, teachers, labels,
                                     peak_lr=1e-2, seed=4, **stage, **inputs)
        assert self._bytes(trained) == self._bytes(reference)
        assert self._bytes(trained) != self._bytes(params)
        return trained

    def test_pretrain_with_idle_heads(self):
        # The heads get zero gradients and only weight decay moves them.
        params = headed_params(8, 6, 4, 3, seed=0)
        trained = self._assert_same_bits("pretrain", params)
        assert not np.array_equal(trained.heads.w2[1], params.heads.w2[1])

    def test_finetune_with_two_teachers_and_mixes(self):
        self._assert_same_bits(
            "finetune", init_params(8, 6, 4, seed=0),
            expand_with_mixes(_toy_dataset(), mix_count=8, rng_seed=1),
            teachers=[init_params(8, 6, 4, seed=s) for s in (7, 9)])

    def test_refinetune(self):
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        self._assert_same_bits("refinetune",
                               headed_params(8, 6, 4, 3, seed=0),
                               pseudo_labels=labels)
