"""Tests for the optimizer, schedule, batching, pair mixing, and stages."""

import dataclasses
import itertools

import numpy as np
import pytest

from xmrt import (AugmentationConfig, ConfigError, ContractError, DataError,
                  LossConfig, PairedDataset, ScheduleConfig, StageConfig,
                  adamw_step, expand_with_mixes, init_optimizer, init_params,
                  lr_at_step, make_batches, run_stage, student_similarity,
                  targets_from_teacher_sims)


def _scalar_tensors(value):
    return {"theta": np.array([float(value)])}


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        tensors = _scalar_tensors(0.7)
        state = init_optimizer(tensors)
        out = adamw_step(state, tensors, _scalar_tensors(0.0), lr=1e-3)
        assert out["theta"][0] == 0.7

    def test_first_step_closed_form(self):
        # bias-corrected m_hat = v_hat = 1, so the step is -lr/(1+eps)
        tensors = _scalar_tensors(0.0)
        state = init_optimizer(tensors)
        out = adamw_step(state, tensors, _scalar_tensors(1.0), lr=1e-3)
        assert abs(out["theta"][0] - (-9.99999994e-4)) < 1e-11

    def test_decay_only(self):
        tensors = _scalar_tensors(1.0)
        state = init_optimizer(tensors, weight_decay=0.01)
        out = adamw_step(state, tensors, _scalar_tensors(0.0), lr=0.1)
        assert out["theta"][0] == 0.999

    def test_decay_is_decoupled_from_moments(self):
        # same gradient, with and without decay: the difference must be
        # exactly lr*wd*theta, untouched by the adaptive scaling
        theta, g, lr = 2.0, 0.5, 1e-2
        plain = adamw_step(init_optimizer(_scalar_tensors(theta)),
                           _scalar_tensors(theta), _scalar_tensors(g), lr)
        decayed = adamw_step(
            init_optimizer(_scalar_tensors(theta), weight_decay=0.1),
            _scalar_tensors(theta), _scalar_tensors(g), lr)
        np.testing.assert_allclose(
            plain["theta"][0] - decayed["theta"][0], lr * 0.1 * theta,
            rtol=1e-12)

    def test_step_counter_and_moments_advance(self):
        tensors = _scalar_tensors(0.0)
        state = init_optimizer(tensors)
        adamw_step(state, tensors, _scalar_tensors(1.0), lr=1e-3)
        assert state.step == 1
        np.testing.assert_allclose(state.m["theta"], [0.1], rtol=1e-12)
        np.testing.assert_allclose(state.v["theta"], [0.001], rtol=1e-12)

    def test_descends_a_quadratic(self):
        # minimize (theta-3)^2; gradient 2(theta-3)
        tensors = _scalar_tensors(0.0)
        state = init_optimizer(tensors)
        for _ in range(400):
            g = 2.0 * (tensors["theta"] - 3.0)
            tensors = adamw_step(state, tensors, {"theta": g}, lr=0.05)
        assert abs(tensors["theta"][0] - 3.0) < 1e-2

    def test_key_mismatch(self):
        state = init_optimizer(_scalar_tensors(0.0))
        with pytest.raises(ContractError, match="keys"):
            adamw_step(state, _scalar_tensors(0.0), {"other": np.zeros(1)},
                       lr=1e-3)

    def test_shape_mismatch(self):
        tensors = {"theta": np.zeros((2, 2))}
        state = init_optimizer(tensors)
        with pytest.raises(ContractError, match="shape"):
            adamw_step(state, tensors, {"theta": np.zeros(3)}, lr=1e-3)

    def test_negative_lr(self):
        tensors = _scalar_tensors(0.0)
        with pytest.raises(ConfigError, match="learning rate"):
            adamw_step(init_optimizer(tensors), tensors,
                       _scalar_tensors(1.0), lr=-1e-3)

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ConfigError):
            init_optimizer(_scalar_tensors(0.0), weight_decay=-0.1)


class TestSchedule:
    def _schedule(self):
        return ScheduleConfig(peak_lr=2e-5, floor_lr=1e-7,
                              total_steps=30, warmup_steps=10)

    def test_warmup_end_hits_peak_exactly(self):
        assert lr_at_step(self._schedule(), 10) == 2e-5

    def test_final_step_hits_floor_exactly(self):
        assert lr_at_step(self._schedule(), 30) == 1e-7

    def test_starts_at_zero(self):
        assert lr_at_step(self._schedule(), 0) == 0.0

    def test_warmup_is_linear(self):
        sched = self._schedule()
        np.testing.assert_allclose(lr_at_step(sched, 5), 1e-5, rtol=1e-12)
        np.testing.assert_allclose(lr_at_step(sched, 1), 2e-6, rtol=1e-12)

    def test_cosine_midpoint_is_the_mean(self):
        sched = self._schedule()
        mid = lr_at_step(sched, 20)  # halfway through the cosine span
        assert abs(mid - (2e-5 + 1e-7) / 2.0) < 1e-12

    def test_monotone_after_warmup(self):
        sched = self._schedule()
        values = [lr_at_step(sched, s) for s in range(10, 31)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup_starts_at_peak(self):
        sched = ScheduleConfig(2e-5, 1e-7, total_steps=10, warmup_steps=0)
        assert lr_at_step(sched, 0) == 2e-5

    def test_step_out_of_range(self):
        sched = self._schedule()
        for step in (-1, 31):
            with pytest.raises(ContractError, match="outside"):
                lr_at_step(sched, step)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(-1e-5, 1e-7, 10, 2)
        with pytest.raises(ConfigError):
            ScheduleConfig(2e-5, 3e-5, 10, 2)  # floor above peak
        with pytest.raises(ConfigError):
            ScheduleConfig(2e-5, 1e-7, 10, 10)  # warmup must end early

    def test_zero_peak_allowed(self):
        sched = ScheduleConfig(0.0, 0.0, total_steps=5, warmup_steps=1)
        assert lr_at_step(sched, 3) == 0.0


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
        mixed = expand_with_mixes(dataset, 1, rng_seed=0)
        np.testing.assert_array_equal(mixed.audio_features[2], row_a)
        np.testing.assert_array_equal(mixed.text_features[2], row_t)

    def test_feature_arithmetic(self):
        dataset = PairedDataset(np.array([[0.0, 2.0], [2.0, 0.0]]),
                                np.array([[0.0], [4.0]]))
        mixed = expand_with_mixes(dataset, 1, rng_seed=0)
        np.testing.assert_array_equal(mixed.audio_features[2], [1.0, 1.0])
        np.testing.assert_array_equal(mixed.text_features[2], [2.0])

    def test_result_is_marked_synthetic(self):
        # synthetic rows carry mix ids; the source rows keep their own
        dataset = PairedDataset(np.eye(2), np.eye(2),
                                caption_ids=("c0", "c1"))
        mixed = expand_with_mixes(dataset, 2, rng_seed=0)
        assert mixed.caption_ids == ("c0", "c1", "mix0000", "mix0001")


class TestExpandWithMixes:
    def _dataset(self, n=6):
        rng = np.random.default_rng(0)
        return PairedDataset(rng.standard_normal((n, 4)),
                             rng.standard_normal((n, 3)),
                             caption_ids=tuple(f"c{i}" for i in range(n)))

    def test_zero_count_returns_dataset_unchanged(self):
        dataset = self._dataset()
        assert expand_with_mixes(dataset, 0, rng_seed=1) is dataset

    def test_appends_requested_rows(self):
        dataset = self._dataset()
        grown = expand_with_mixes(dataset, 3, rng_seed=1)
        assert len(grown) == 9
        np.testing.assert_array_equal(grown.audio_features[:6],
                                      dataset.audio_features)
        assert grown.caption_ids[6:] == ("mix0000", "mix0001", "mix0002")

    def test_rows_are_midpoints_of_source_rows(self):
        dataset = self._dataset()
        grown = expand_with_mixes(dataset, 5, rng_seed=2)
        for row in grown.audio_features[6:]:
            # each synthetic row must be the average of two source rows
            diffs = dataset.audio_features[:, None, :] \
                + dataset.audio_features[None, :, :]
            match = np.isclose(0.5 * diffs, row, atol=1e-12).all(axis=2)
            assert match.any()

    def test_deterministic_per_seed(self):
        a = expand_with_mixes(self._dataset(), 4, rng_seed=7)
        b = expand_with_mixes(self._dataset(), 4, rng_seed=7)
        np.testing.assert_array_equal(a.audio_features, b.audio_features)
        c = expand_with_mixes(self._dataset(), 4, rng_seed=8)
        assert not np.array_equal(a.audio_features, c.audio_features)

    def test_needs_two_items(self):
        tiny = PairedDataset(np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ContractError, match="2"):
            expand_with_mixes(tiny, 1, rng_seed=0)


class TestStageConfig:
    def test_stage_names_validated(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            StageConfig("warmup")

    # The name is the only switch: the rules below follow from it alone.
    def test_pretrain_cannot_distill(self):
        # no field can switch a term on; that run_stage rejects a
        # pretrain's teachers is test_teachers_rejected_when_distillation_off
        assert ([f.name for f in dataclasses.fields(StageConfig)]
                == ["name", "epochs", "batch_size"])

    def test_clusters_only_in_refinetune(self):
        params = init_params(8, 6, 4, n_clusters=2, seed=0)
        with pytest.raises(ConfigError, match="finetune does not accept "
                                              "labels"):
            run_stage(StageConfig("finetune", epochs=1, batch_size=8),
                      params, _toy_dataset(), teachers=[params],
                      pseudo_labels=np.zeros(32, dtype=int))

    def test_clusters_exclude_augmentation(self):
        params = init_params(8, 6, 4, n_clusters=2, seed=0)
        with pytest.raises(ConfigError, match="augmentation"):
            run_stage(StageConfig("refinetune", epochs=1, batch_size=8),
                      params, _toy_dataset(),
                      pseudo_labels=np.zeros(32, dtype=int),
                      augmentation=AugmentationConfig())

    def test_zero_epochs_allowed(self):
        assert StageConfig("pretrain", epochs=0).epochs == 0

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError):
            StageConfig("pretrain", epochs=-1)


def _toy_dataset(n=32, d_audio=8, d_text=6, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal((n, 4))
    a_mix = rng.standard_normal((4, d_audio))
    t_mix = rng.standard_normal((4, d_text))
    return PairedDataset(latent @ a_mix, latent @ t_mix)


class TestRunStage:
    def test_zero_epochs_is_identity(self):
        params = init_params(8, 6, 4, seed=0)
        out, log = run_stage(StageConfig("pretrain", epochs=0), params,
                             _toy_dataset())
        assert out is params and log == []

    def test_zero_lr_leaves_params_bit_identical(self):
        params = init_params(8, 6, 4, seed=0)
        out, log = run_stage(StageConfig("pretrain", epochs=2, batch_size=8),
                             params, _toy_dataset(), peak_lr=0.0,
                             floor_lr=0.0, weight_decay=0.0)
        assert len(log) == 8
        for name, tensor in params.named_tensors().items():
            np.testing.assert_array_equal(tensor,
                                          out.named_tensors()[name])

    def test_supervised_loss_descends(self):
        # separable planted data: mean supervised loss must drop
        params = init_params(8, 6, 4, seed=0)
        stage = StageConfig("pretrain", epochs=20, batch_size=8)
        _, log = run_stage(stage, params, _toy_dataset(64), peak_lr=0.05,
                           floor_lr=1e-4, seed=0)
        per_epoch = {}
        for record in log:
            per_epoch.setdefault(record.epoch, []).append(record.l_sup)
        first = np.mean(per_epoch[0])
        last = np.mean(per_epoch[19])
        assert last < first

    def test_deterministic_per_seed(self):
        def train():
            params = init_params(8, 6, 4, seed=1)
            return run_stage(StageConfig("pretrain", epochs=3, batch_size=8),
                             params, _toy_dataset(), peak_lr=1e-3, seed=5)

        out_a, log_a = train()
        out_b, log_b = train()
        for name, tensor in out_a.named_tensors().items():
            np.testing.assert_array_equal(tensor,
                                          out_b.named_tensors()[name])
        assert [r.total for r in log_a] == [r.total for r in log_b]

    def test_log_carries_schedule_and_steps(self):
        params = init_params(8, 6, 4, seed=0)
        _, log = run_stage(StageConfig("pretrain", epochs=2, batch_size=8),
                           params, _toy_dataset(), peak_lr=2e-5,
                           floor_lr=1e-7)
        assert [r.step for r in log] == list(range(8))
        assert log[0].lr == 0.0  # warmup starts at zero
        assert all(np.isfinite(r.total) for r in log)
        assert all(r.l_dist == 0.0 for r in log)

    def test_distillation_stage_needs_teachers(self):
        params = init_params(8, 6, 4, seed=0)
        stage = StageConfig("finetune", epochs=1, batch_size=8)
        with pytest.raises(ConfigError, match="teacher"):
            run_stage(stage, params, _toy_dataset())

    def test_teachers_rejected_when_distillation_off(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = init_params(8, 6, 4, seed=9)
        with pytest.raises(ConfigError, match="teachers"):
            run_stage(StageConfig("pretrain", epochs=1, batch_size=8),
                      params, _toy_dataset(), teachers=[teacher])

    def test_cluster_stage_needs_labels_and_heads(self):
        stage = StageConfig("refinetune", epochs=1, batch_size=8)
        headless = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="labels"):
            run_stage(stage, headless, _toy_dataset())
        with pytest.raises(ConfigError, match="heads"):
            run_stage(stage, headless, _toy_dataset(),
                      pseudo_labels=np.zeros(32, dtype=int))

    def test_labels_rejected_when_clusters_off(self):
        params = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="labels"):
            run_stage(StageConfig("pretrain", epochs=1, batch_size=8),
                      params, _toy_dataset(),
                      pseudo_labels=np.zeros(32, dtype=int))

    @pytest.mark.filterwarnings("error")
    def test_divergence_names_stage_step_and_loss_terms(self):
        # Warmup reaches lr 2.5e307 at step 1, which overflows AdamW.
        params = init_params(8, 6, 4, seed=0)
        stage = StageConfig("finetune", epochs=2, batch_size=8)
        with pytest.raises(DataError,
                           match="stage finetune diverged at step 1 ") as err:
            run_stage(stage, params, _toy_dataset(),
                      teachers=[init_params(8, 6, 4, seed=9)],
                      peak_lr=1e308, warmup_fraction=0.5)
        message = str(err.value)
        for part in ("epoch 0", "lr 2.5e+307", "l_sup=", "l_dist=",
                     "l_cls_audio=0", "l_cls_text=0", "total=",
                     "non-finite parameters"):
            assert part in message
        assert isinstance(err.value.__cause__, DataError)

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
        stage = StageConfig("pretrain", epochs=1, batch_size=8)
        with pytest.raises(DataError,
                           match="stage pretrain diverged at step 0 ") as err:
            run_stage(stage, params, _toy_dataset())
        assert "norm overflowed" in str(err.value)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_teacher_forward_names_the_step(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = self._scaled(init_params(8, 6, 4, seed=9), 1e160)
        stage = StageConfig("finetune", epochs=1, batch_size=8)
        with pytest.raises(DataError,
                           match=r"stage finetune diverged at step 0 "
                                 r"\(epoch 0, lr 2e-05\): an embedding norm"):
            run_stage(stage, params, _toy_dataset(), teachers=[teacher])

    def test_out_of_range_label_rejected_before_training(self):
        params = init_params(8, 6, 4, seed=0, n_clusters=3)
        labels = np.zeros(32, dtype=int)
        labels[5] = 3
        with pytest.raises(DataError, match=r"^cluster label outside"):
            run_stage(StageConfig("refinetune", epochs=1, batch_size=8),
                      params, _toy_dataset(), pseudo_labels=labels)

    def test_augmentation_config_rejected_when_flag_off(self):
        params = init_params(8, 6, 4, seed=0)
        with pytest.raises(ConfigError, match="augmentation"):
            run_stage(StageConfig("pretrain", epochs=1, batch_size=8),
                      params, _toy_dataset(),
                      augmentation=AugmentationConfig())

    def test_self_teacher_first_step_distills_at_target_entropy(self):
        # before any update the student equals its teacher, so the first
        # recorded distillation loss is the targets' own entropy
        params = init_params(8, 6, 4, seed=2)
        dataset = _toy_dataset(32)
        stage = StageConfig("finetune", epochs=1, batch_size=8)
        cfg = LossConfig(lambda2=0.0)
        _, log = run_stage(stage, params, dataset, teachers=[params],
                           loss_cfg=cfg, peak_lr=1e-3, seed=3)
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
        stage = StageConfig("finetune", epochs=1, batch_size=8)
        aug = AugmentationConfig(mix_count=8, rng_seed=1)
        _, log = run_stage(stage, params, _toy_dataset(32),
                           teachers=[teacher], augmentation=aug,
                           peak_lr=1e-3)
        assert len(log) == (32 + 8) // 8

    def test_refinetune_trains_heads(self):
        params = init_params(8, 6, 4, n_clusters=3, seed=0)
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        stage = StageConfig("refinetune", epochs=2, batch_size=8)
        out, log = run_stage(stage, params, _toy_dataset(32),
                             pseudo_labels=labels, peak_lr=1e-3)
        assert any(r.l_cls_audio > 0 for r in log)
        assert not np.array_equal(out.audio_head.w2, params.audio_head.w2)

    @staticmethod
    def _param_bytes(params):
        return {name: t.tobytes() for name, t in params.named_tensors().items()}

    def test_finetune_is_exactly_invariant_to_teacher_order(self):
        params = init_params(8, 6, 4, seed=0)
        teachers = [init_params(8, 6, 4, seed=s) for s in (7, 8, 9)]
        stage = StageConfig("finetune", epochs=2, batch_size=8)
        tuned = [self._param_bytes(run_stage(
                     stage, params, _toy_dataset(), teachers=list(order),
                     peak_lr=1e-2, seed=4)[0])
                 for order in itertools.permutations(teachers)]
        assert len(tuned) == 6
        assert all(t == tuned[0] for t in tuned)

    def test_finetune_with_zero_lambda1_trains_as_pretrain(self):
        params = init_params(8, 6, 4, seed=0)
        teacher = init_params(8, 6, 4, seed=9)
        kwargs = dict(peak_lr=1e-2, seed=4)
        tuned, log = run_stage(StageConfig("finetune", epochs=2, batch_size=8),
                               params, _toy_dataset(), teachers=[teacher],
                               loss_cfg=LossConfig(lambda1=0.0), **kwargs)
        plain, _ = run_stage(StageConfig("pretrain", epochs=2, batch_size=8),
                             params, _toy_dataset(), **kwargs)
        assert all(r.l_dist > 0 for r in log)   # reported, weighted by 0
        assert self._param_bytes(tuned) == self._param_bytes(plain)

    def test_refinetune_with_zero_lambda2_trains_as_pretrain(self):
        params = init_params(8, 6, 4, n_clusters=3, seed=0)
        labels = np.random.default_rng(0).integers(0, 3, size=32)
        kwargs = dict(peak_lr=1e-2, seed=4)
        tuned, log = run_stage(
            StageConfig("refinetune", epochs=2, batch_size=8), params,
            _toy_dataset(), pseudo_labels=labels,
            loss_cfg=LossConfig(lambda2=0.0), **kwargs)
        plain, _ = run_stage(StageConfig("pretrain", epochs=2, batch_size=8),
                             params, _toy_dataset(), **kwargs)
        assert all(r.l_cls_audio > 0 for r in log)
        assert self._param_bytes(tuned) == self._param_bytes(plain)
