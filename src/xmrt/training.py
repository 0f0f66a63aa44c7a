"""Three-stage training loop: optimizer, schedule, batching, pair mixing.

A stage's name alone picks its loss terms: pretrain is contrastive only,
finetune adds distillation from frozen teachers, refinetune adds cluster
classification.  The LossConfig weights only scale those terms; pair
mixing is a dataset transform the caller applies before a finetune.

The optimizer is AdamW with decoupled weight decay, updating in place
one float64 vector of every parameter that a stage's model views, so one
step function serves encoders and heads alike.  Its gradient vector, the
batch rows and every n x n array of a step are allocated once per stage,
in one batch PairedDataset and one losses._Workspace.  The learning rate
warms up linearly to a peak, then follows a cosine toward a floor that
it would reach one step after the stage's last, so the last step's rate
lies just above the floor.  Batch order and synthetic pair mixing both
draw from explicitly seeded generators, which makes every stage
bit-reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import _check_alloc, _rng, as_matrix
from .encoders import _check_finite, _flat_views
from .errors import ConfigError, ContractError, DataError
from .losses import (LossConfig, _Workspace, loss_and_gradients,
                     student_similarity, targets_from_teacher_sims)

STAGES = ("pretrain", "finetune", "refinetune")
_MIX_STREAM = 104729      # distinguishes the mixing rng from batch shuffles
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adamw_step(theta, grad, m, v, step, lr, weight_decay):
    """One decoupled-weight-decay Adam update of theta and its moments m
    and v, all three in place; step counts from 1.

    Decay is applied directly to the parameter, scaled by lr but not by
    the adaptive moments.  Bias vectors decay too; at desk scale the
    distinction is not worth a carve-out.
    """
    if not grad.shape == theta.shape == m.shape == v.shape:
        raise ContractError(
            f"gradient has shape {grad.shape}, parameters {theta.shape}, "
            f"moments {m.shape} and {v.shape}")
    if not 0 <= lr < math.inf:
        raise ConfigError(
            f"learning rate lr must be finite and nonnegative, got {lr}")
    if not 0 <= weight_decay < math.inf:
        raise ConfigError(f"weight_decay must be finite and nonnegative, "
                          f"got {weight_decay}")
    if step < 1:
        raise ContractError(f"step must be >= 1, got {step}")
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    # A divergent step overflows here; run_stage reports the non-finite
    # parameters it leaves, so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        decay = lr * weight_decay * theta     # of theta before the update
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        theta -= decay


def _learning_rates(peak_lr, floor_lr, total_steps, warmup_steps):
    """The rate of each step 0 .. total_steps - 1.

    Warmup rises linearly from zero and hits peak_lr exactly at step
    warmup_steps.  The cosine then decays toward floor_lr, which it would
    reach at step total_steps, one past the last step a stage runs, so
    the last rate lies above the floor.  The cosine is evaluated as a
    convex blend peak*w + floor*(1-w), so each of its rates lies in
    [floor_lr, peak_lr] and the peak is exact.
    """
    span = total_steps - warmup_steps
    rates = []
    for step in range(total_steps):
        if step < warmup_steps:
            rates.append(peak_lr * (step / warmup_steps))
        else:
            w = 0.5 * (1.0 + np.cos(np.pi * ((step - warmup_steps) / span)))
            rates.append(float(peak_lr * w + floor_lr * (1.0 - w)))
    return rates


@dataclass(frozen=True)
class PairedDataset:
    """Matched audio/caption feature rows, one pair per row, with optional
    caption ids.

    The one matched-row type: a loaded split, a mixed training set and
    the batch run_stage refills for loss_and_gradients.  Features
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


def expand_with_mixes(dataset, *, mix_count=0, rng_seed=0):
    """The dataset plus mix_count synthetic pairs, each the average of
    two distinct rows drawn by rng_seed's generator.  Only finetune data
    is mixed: an averaged row carries no curated cluster label.  A result
    past core._ALLOC_BYTES is a ConfigError before any row is drawn."""
    for name, value in (("mix_count", mix_count), ("rng_seed", rng_seed)):
        if value < 0:
            raise ConfigError(
                f"{name} must be a non-negative integer, got {value}")
    if mix_count == 0:
        return dataset
    n = len(dataset)
    if n < 2:
        raise ContractError("mixing needs at least 2 items")
    widths = (dataset.audio_features.shape[1], dataset.text_features.shape[1])
    _check_alloc(8 * (n + 2 * mix_count) * sum(widths),
                 f"mix_count {mix_count}", "mixed dataset")
    rng = _rng(rng_seed, _MIX_STREAM)
    extra_a, extra_t = (np.empty((mix_count, d)) for d in widths)
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
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
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

    pretrain is contrastive only, finetune adds teacher distillation,
    refinetune adds the cluster classification heads.  run_stage checks
    that the inputs match the name, so a misconfigured run fails
    immediately instead of training the wrong objective.
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
              warmup_fraction=0.1, weight_decay=0.01, seed=0):
    """Train one stage to completion; returns (params, records).

    `dataset` is a PairedDataset.  A batch_size whose workspace, with
    finetune's teacher targets, would not fit core._ALLOC_BYTES is
    a ConfigError before step 0.
    The stage name picks the loss terms.
    finetune distills from `teachers`, a sequence of frozen ModelParams
    whose averaged similarities give the targets (required there,
    rejected elsewhere).  refinetune classifies `pseudo_labels`, a 1-D
    int array with one label per dataset row (required there along with
    classification heads, rejected elsewhere); a batch passes its rows'
    labels on, and both heads classify them since rows are matched
    pairs.  `loss_cfg` only weights the terms, so a weight of 0 turns its
    term off.  The stage trains views of a private copy of `params` in
    place and never writes `params` or `teachers`.
    A step whose teacher targets, loss or parameters are not finite
    raises DataError naming the stage, step, epoch and lr, and the loss
    terms once known.
    """
    cfg = loss_cfg if loss_cfg is not None else LossConfig()
    for name, value in (("peak_lr", peak_lr), ("weight_decay", weight_decay)):
        if not 0 <= value < math.inf:
            raise ConfigError(
                f"{name} must be finite and nonnegative, got {value}")
    if not 0 <= floor_lr <= peak_lr:
        raise ConfigError(f"floor_lr must lie in [0, peak_lr], got {floor_lr}")
    if not 0 <= warmup_fraction <= 1:
        raise ConfigError(
            f"warmup_fraction must lie in [0, 1], got {warmup_fraction}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
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

    if stage.epochs == 0:
        return params, []

    steps_per_epoch = len(dataset) // stage.batch_size
    if steps_per_epoch == 0:
        raise ContractError(
            f"dataset of {len(dataset)} cannot fill a batch of "
            f"{stage.batch_size}")
    work = _Workspace(params, stage.batch_size, len(teachers or ()))
    batch = PairedDataset(
        np.zeros((stage.batch_size, dataset.audio_features.shape[1])),
        np.zeros((stage.batch_size, dataset.text_features.shape[1])))
    total_steps = steps_per_epoch * stage.epochs
    warmup = min(total_steps - 1, round(warmup_fraction * total_steps))
    rates = _learning_rates(peak_lr, floor_lr, total_steps, warmup)

    theta = np.concatenate(
        [t.ravel() for t in params.named_tensors().values()])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    params = params.with_tensors(_flat_views(params, theta))
    records = []
    step = 0
    for epoch in range(stage.epochs):
        for batch_idx in make_batches(len(dataset), stage.batch_size,
                                      seed, epoch):
            # in-range indices: "clip" only skips the copy "raise" makes
            for rows, out in ((dataset.audio_features, batch.audio_features),
                              (dataset.text_features, batch.text_features)):
                np.take(rows, batch_idx, axis=0, out=out, mode="clip")
            labels = labels_all[batch_idx] if clusters else None

            lr = rates[step]
            breakdown = None
            try:
                targets = None
                if distills:
                    sims = [student_similarity(t, batch) for t in teachers]
                    targets = targets_from_teacher_sims(sims, cfg)
                breakdown, _ = loss_and_gradients(
                    params, batch, cfg, targets=targets, labels=labels,
                    work=work)
                adamw_step(theta, work.grad, m, v, step + 1, lr,
                           weight_decay)
                _check_finite("model", theta)
            except DataError as exc:
                terms = "" if breakdown is None else "; " + ", ".join(
                    f"{name}={value:.6g}"
                    for name, value in vars(breakdown).items())
                raise DataError(
                    f"stage {stage.name} diverged at step {step} (epoch "
                    f"{epoch}, lr {lr:.6g}{terms}): {exc}") from exc
            records.append(StepRecord(step=step, epoch=epoch, lr=lr,
                                      **vars(breakdown)))
            step += 1
    return params, records
