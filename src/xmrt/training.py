"""Three-stage training loop: optimizer, schedule, batching, pair mixing.

A stage's name alone picks its loss terms: pretrain is contrastive only,
finetune adds distillation from frozen teachers, refinetune adds cluster
classification.  The LossConfig weights only scale those terms.

The optimizer is AdamW with decoupled weight decay operating on flat
name-to-array dicts, so the same step function serves encoders and heads
alike.  The learning-rate schedule is a linear warmup into a cosine decay
between a peak and a floor.  Batch order and synthetic pair mixing both
draw from explicitly seeded generators, which makes every stage
bit-reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import _rng, as_matrix
from .errors import ConfigError, ContractError, DataError
from .losses import (LossConfig, loss_and_gradients, student_similarity,
                     targets_from_teacher_sims)

STAGES = ("pretrain", "finetune", "refinetune")
_MIX_STREAM = 104729      # distinguishes the mixing rng from batch shuffles
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """AdamW moment estimates, step counter, and weight decay."""

    m: dict
    v: dict
    step: int = 0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.step < 0:
            raise ContractError("step must be >= 0")


def init_optimizer(tensors, weight_decay=0.0):
    """Zeroed moments shaped like the given name-to-array dict."""
    return OptimizerState(
        m={name: np.zeros_like(t) for name, t in tensors.items()},
        v={name: np.zeros_like(t) for name, t in tensors.items()},
        step=0, weight_decay=weight_decay)


def adamw_step(state, tensors, grads, lr):
    """One decoupled-weight-decay Adam update; returns new tensors.

    Decay is applied directly to the parameter, scaled by lr but not by
    the adaptive moments.  Bias vectors decay too; at desk scale the
    distinction is not worth a carve-out.
    """
    if set(tensors) != set(grads):
        raise ContractError("gradient keys do not match parameter keys")
    if lr < 0:
        raise ConfigError(f"learning rate must be nonnegative, got {lr}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    out = {}
    # A divergent step overflows here; run_stage reports the non-finite
    # parameters it leaves, so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, theta in tensors.items():
            g = grads[name]
            if g.shape != theta.shape:
                raise ContractError(
                    f"gradient for {name} has shape {g.shape}, "
                    f"parameter has {theta.shape}")
            state.m[name] = (ADAM_BETA1 * state.m[name]
                             + (1.0 - ADAM_BETA1) * g)
            state.v[name] = (ADAM_BETA2 * state.v[name]
                             + (1.0 - ADAM_BETA2) * g * g)
            m_hat = state.m[name] / bc1
            v_hat = state.v[name] / bc2
            out[name] = (theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                         - lr * state.weight_decay * theta)
    return out


@dataclass(frozen=True)
class ScheduleConfig:
    """Linear warmup then cosine decay from peak_lr down to floor_lr."""

    peak_lr: float
    floor_lr: float
    total_steps: int
    warmup_steps: int

    def __post_init__(self):
        if self.peak_lr < 0:
            raise ConfigError(
                f"peak_lr must be nonnegative, got {self.peak_lr}")
        if not 0 <= self.floor_lr <= self.peak_lr:
            raise ConfigError("need 0 <= floor_lr <= peak_lr")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ConfigError("need 0 <= warmup_steps < total_steps")


def lr_at_step(schedule, step):
    """Learning rate at a given step, 0-indexed over [0, total_steps].

    Warmup rises linearly from zero and hits peak_lr exactly at step
    warmup_steps; the cosine then lands exactly on floor_lr at
    total_steps.  Step total_steps itself is legal to query so the final
    value is observable.  The cosine is evaluated as a convex blend
    peak*w + floor*(1-w) so both endpoints are exact in floating point.
    """
    if not 0 <= step <= schedule.total_steps:
        raise ContractError(
            f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.warmup_steps > 0 and step < schedule.warmup_steps:
        return schedule.peak_lr * (step / schedule.warmup_steps)
    span = schedule.total_steps - schedule.warmup_steps
    progress = (step - schedule.warmup_steps) / span
    w = 0.5 * (1.0 + np.cos(np.pi * progress))
    return float(schedule.peak_lr * w + schedule.floor_lr * (1.0 - w))


@dataclass(frozen=True)
class AugmentationConfig:
    """Synthetic pair mixing: mix_count averaged pairs join the training set."""

    mix_count: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("mix_count", "rng_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be a non-negative integer")


@dataclass(frozen=True)
class PairedDataset:
    """Matched audio/caption feature rows, one pair per row, with optional
    caption ids.

    The one matched-row type: a loaded split, a mixed training set and
    each training batch run_stage hands to loss_and_gradients.  Features
    must be finite 2-D arrays with equal row counts.
    """

    audio_features: np.ndarray
    text_features: np.ndarray
    caption_ids: tuple = ()

    def __post_init__(self):
        a = as_matrix(self.audio_features, "audio features")
        t = as_matrix(self.text_features, "text features")
        if a.shape[0] != t.shape[0]:
            raise ContractError(
                f"{a.shape[0]} audio rows vs {t.shape[0]} caption rows")
        object.__setattr__(self, "audio_features", a)
        object.__setattr__(self, "text_features", t)
        object.__setattr__(self, "caption_ids", tuple(self.caption_ids))
        if self.caption_ids and len(self.caption_ids) != a.shape[0]:
            raise ContractError(
                f"{len(self.caption_ids)} caption ids for {a.shape[0]} rows")

    def __len__(self):
        return self.audio_features.shape[0]


def expand_with_mixes(dataset, mix_count, rng_seed):
    """Append mix_count synthetic averaged pairs drawn from the dataset."""
    if mix_count == 0:
        return dataset
    n = len(dataset)
    if n < 2:
        raise ContractError("mixing needs at least 2 items")
    rng = _rng(rng_seed, _MIX_STREAM)
    extra_a = np.empty((mix_count, dataset.audio_features.shape[1]))
    extra_t = np.empty((mix_count, dataset.text_features.shape[1]))
    for j in range(mix_count):
        i1, i2 = rng.choice(n, size=2, replace=False)
        extra_a[j] = 0.5 * (dataset.audio_features[i1]
                            + dataset.audio_features[i2])
        extra_t[j] = 0.5 * (dataset.text_features[i1]
                            + dataset.text_features[i2])
    caption_ids = dataset.caption_ids
    if caption_ids:
        caption_ids += tuple(f"mix{j:04d}" for j in range(mix_count))
    return PairedDataset(
        audio_features=np.vstack([dataset.audio_features, extra_a]),
        text_features=np.vstack([dataset.text_features, extra_t]),
        caption_ids=caption_ids)


def make_batches(n_items, batch_size, seed, epoch):
    """Shuffled index batches over n_items for one epoch; a short final
    batch is dropped.

    The shuffle generator is seeded from (seed, epoch) so epochs differ but
    reruns do not.
    """
    n_items = operator.index(n_items)
    if batch_size < 2:
        raise ConfigError(
            f"contrastive batches need >= 2 items, got {batch_size}")
    if n_items < batch_size:
        raise ContractError(
            f"dataset of {n_items} cannot fill a batch of {batch_size}")
    rng = _rng(seed, epoch)
    order = rng.permutation(n_items)
    n_full = n_items // batch_size
    return [order[i * batch_size:(i + 1) * batch_size]
            for i in range(n_full)]


@dataclass(frozen=True)
class StageConfig:
    """One training stage: its name picks the objective, epochs and batch
    size set its length.

    pretrain is contrastive only, finetune adds teacher distillation (and
    synthetic pair mixing when an AugmentationConfig is given), refinetune
    adds the cluster classification heads.  run_stage checks that the
    inputs match the name, so a misconfigured run fails immediately
    instead of training the wrong objective.
    """

    name: str
    epochs: int = 20
    batch_size: int = 16

    def __post_init__(self):
        if self.name not in STAGES:
            raise ConfigError(
                f"unknown stage {self.name!r}, expected one of {STAGES}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")


@dataclass(frozen=True)
class StepRecord:
    """One optimizer step's diagnostics."""

    step: int
    epoch: int
    lr: float
    l_sup: float
    l_dist: float
    l_cls_audio: float
    l_cls_text: float
    total: float


def run_stage(stage, params, dataset, teachers=None, pseudo_labels=None, *,
              loss_cfg=None, peak_lr=2e-5, floor_lr=1e-7,
              warmup_fraction=0.1, weight_decay=0.01, augmentation=None,
              seed=0):
    """Train one stage to completion; returns (params, records).

    `dataset` is a PairedDataset; each step slices its batch rows as
    another PairedDataset.  The stage name picks the loss terms.
    finetune distills from `teachers`, a sequence of frozen ModelParams
    whose averaged similarities give the targets (required there,
    rejected elsewhere).  refinetune classifies `pseudo_labels`, a 1-D
    int array with one label per dataset row (required there along with
    classification heads, rejected elsewhere); a batch passes its rows'
    labels on, and both heads classify them since rows are matched
    pairs.  `loss_cfg` only weights the terms, so a weight of 0 turns its
    term off.  `augmentation` mixes synthetic pairs into the dataset and
    is accepted only in finetune.  A step whose teacher targets, loss or
    parameters are not finite raises DataError naming the stage, step,
    epoch and lr, and the loss terms once known.
    """
    cfg = loss_cfg if loss_cfg is not None else LossConfig()
    distills = stage.name == "finetune"
    clusters = stage.name == "refinetune"
    if distills and not teachers:
        raise ConfigError(f"stage {stage.name} needs teacher models")
    if teachers and not distills:
        raise ConfigError(f"stage {stage.name} does not accept teachers")
    if clusters:
        if pseudo_labels is None:
            raise ConfigError(f"stage {stage.name} needs pseudo labels")
        if not params.has_heads:
            raise ConfigError("refinetune requires classification heads")
    elif pseudo_labels is not None:
        raise ConfigError(f"stage {stage.name} does not accept labels")
    if augmentation is not None and stage.name != "finetune":
        # Synthetic averaged rows carry no curated cluster label.
        raise ConfigError(
            f"stage {stage.name} does not accept an augmentation config")

    labels_all = None
    if pseudo_labels is not None:
        labels_all = np.asarray(pseudo_labels, dtype=np.int64)
        if labels_all.shape != (len(dataset),):
            raise ContractError(
                f"{labels_all.shape} labels for {len(dataset)} items")
        k = params.n_clusters
        if labels_all.size and (labels_all.min() < 0
                                or labels_all.max() >= k):
            raise DataError(f"cluster label outside [0, {k})")

    if augmentation is not None:
        dataset = expand_with_mixes(dataset, augmentation.mix_count,
                                    augmentation.rng_seed)

    if stage.epochs == 0:
        return params, []

    steps_per_epoch = len(dataset) // stage.batch_size
    if steps_per_epoch == 0:
        raise ContractError(
            f"dataset of {len(dataset)} cannot fill a batch of "
            f"{stage.batch_size}")
    total_steps = steps_per_epoch * stage.epochs
    warmup = min(total_steps - 1, round(warmup_fraction * total_steps))
    schedule = ScheduleConfig(peak_lr=peak_lr, floor_lr=floor_lr,
                              total_steps=total_steps, warmup_steps=warmup)

    tensors = params.named_tensors()
    state = init_optimizer(tensors, weight_decay=weight_decay)
    records = []
    step = 0
    for epoch in range(stage.epochs):
        for batch_idx in make_batches(len(dataset), stage.batch_size,
                                      seed, epoch):
            batch = PairedDataset(dataset.audio_features[batch_idx],
                                  dataset.text_features[batch_idx])
            labels = labels_all[batch_idx] if clusters else None

            lr = lr_at_step(schedule, step)
            breakdown = None
            try:
                targets = None
                if distills:
                    sims = [student_similarity(t, batch) for t in teachers]
                    targets = targets_from_teacher_sims(sims, cfg)
                breakdown, grads = loss_and_gradients(
                    params, batch, cfg, targets=targets, labels=labels)
                tensors = adamw_step(state, tensors, grads, lr)
                params = params.with_tensors(tensors)
            except DataError as exc:
                terms = "" if breakdown is None else "; " + ", ".join(
                    f"{name}={value:.6g}"
                    for name, value in vars(breakdown).items())
                raise DataError(
                    f"stage {stage.name} diverged at step {step} (epoch "
                    f"{epoch}, lr {lr:.6g}{terms}): {exc}") from exc
            records.append(StepRecord(
                step=step, epoch=epoch, lr=lr, l_sup=breakdown.l_sup,
                l_dist=breakdown.l_dist, l_cls_audio=breakdown.l_cls_audio,
                l_cls_text=breakdown.l_cls_text, total=breakdown.total))
            step += 1
    return params, records
