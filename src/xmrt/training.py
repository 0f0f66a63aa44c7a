"""Three-stage training loop: optimizer, schedule, batching, pair mixing.

A stage's name alone picks its loss terms: pretrain is contrastive only,
finetune adds distillation from frozen teachers, refinetune adds cluster
classification.  The LossConfig weights only scale those terms; pair
mixing is a dataset transform the caller applies before a finetune.
A step reads only feature rows (a PairedDataset carries no ids), the
teacher target pair and the batch's labels, and its StepRecord keeps
the one LossBreakdown that loss_and_gradients returned.  A finetune
stage embeds each frozen teacher once, before step 0, over its whole
dataset (the teacher cache); a step gathers its batch's teacher rows
from there.

The optimizer is AdamW with decoupled weight decay, updating in place
one float64 vector of every parameter that a stage's model views, so one
step function serves encoders and heads alike.  Its gradient vector, its
two scratch vectors, the batch rows, the gathered teacher rows and every
n x n array of a step are allocated once per stage, in one batch
PairedDataset and one losses._Workspace.  The learning rate warms up
linearly to a peak, then follows a cosine toward a floor that it would
reach one step after the stage's last, so the last step's rate lies just
above the floor.  Batch order and synthetic pair mixing both draw from
explicitly seeded generators, which makes every stage bit-reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import _check_alloc, _rng, as_matrix
from .encoders import _check_finite, _flat_views
from .errors import ConfigError, ContractError, DataError
from .losses import (LossBreakdown, LossConfig, _forward_embeddings,
                     _teacher_targets, _Workspace, loss_and_gradients)

STAGES = ("pretrain", "finetune", "refinetune")
_MIX_STREAM = 104729      # distinguishes the mixing rng from batch shuffles
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adamw_step(theta, grad, m, v, step, lr, weight_decay, scratch=None):
    """One decoupled-weight-decay Adam update of theta and its moments m
    and v, all three in place; step counts from 1.

    Decay is applied directly to the parameter, scaled by lr but not by
    the adaptive moments.  Bias vectors decay too; at desk scale the
    distinction is not worth a carve-out.  `scratch` is a (2, size)
    array that every intermediate is written into, so a step allocates
    nothing model-sized (run_stage passes its _Workspace's); without it
    the step makes one.
    """
    if scratch is None:
        scratch = np.empty((2,) + theta.shape)
    if not (grad.shape == theta.shape == m.shape == v.shape
            == scratch.shape[1:]):
        raise ContractError(
            f"gradient has shape {grad.shape}, parameters {theta.shape}, "
            f"moments {m.shape} and {v.shape}, scratch {scratch.shape}")
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
    update, denom = scratch
    # A divergent step overflows here; run_stage reports the non-finite
    # parameters it leaves, so numpy's warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=update)
        update *= grad
        v += update
        # lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=update)
        update *= lr
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += ADAM_EPS
        update /= denom
        decay = np.multiply(theta, lr * weight_decay, out=denom)  # old theta
        theta -= update
        theta -= decay


def _learning_rates(peak_lr, floor_lr, total_steps, warmup_steps):
    """Yield the rate of each step 0 .. total_steps - 1, one per step as
    it runs, so no list of every rate is held.

    Warmup rises linearly from zero and hits peak_lr exactly at step
    warmup_steps.  The cosine then decays toward floor_lr, which it would
    reach at step total_steps, one past the last step a stage runs, so
    the last rate lies above the floor.  The cosine is evaluated as a
    convex blend peak*w + floor*(1-w), so each of its rates lies in
    [floor_lr, peak_lr] and the peak is exact.
    """
    span = total_steps - warmup_steps
    for step in range(total_steps):
        if step < warmup_steps:
            yield peak_lr * (step / warmup_steps)
        else:
            w = 0.5 * (1.0 + np.cos(np.pi * ((step - warmup_steps) / span)))
            yield float(peak_lr * w + floor_lr * (1.0 - w))


@dataclass(frozen=True)
class PairedDataset:
    """Matched audio/caption feature rows, one pair per row.

    The one matched-row type: a loaded split's rows, a mixed training
    set and the batch run_stage refills for loss_and_gradients.  It holds
    only what a step reads; a loaded split keeps its caption ids beside
    it (datasets.LoadedSplit).  Features must be finite 2-D arrays with
    equal row counts.
    """

    audio_features: np.ndarray
    text_features: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.audio_features, "audio features")
        t = as_matrix(self.text_features, "text features")
        if a.shape[0] != t.shape[0]:
            raise ContractError(
                f"{a.shape[0]} audio rows vs {t.shape[0]} caption rows")
        object.__setattr__(self, "audio_features", a)
        object.__setattr__(self, "text_features", t)

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
    return PairedDataset(
        audio_features=np.vstack([dataset.audio_features, extra_a]),
        text_features=np.vstack([dataset.text_features, extra_t]))


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


def _embed_teachers(stage, teachers, dataset):
    """Each teacher's (2, n, d_emb) unit rows of every dataset row, audio
    then text: a finetune stage's teacher cache, embedded once before
    step 0 through the one embedding forward.  A teacher whose input
    width is wrong is a ContractError, and one whose embedding overflows
    or collapses on any row a DataError, each naming the stage and the
    teacher."""
    units = []
    for i, teacher in enumerate(teachers):
        unit = np.empty((2, len(dataset), teacher.d_emb))
        try:
            _forward_embeddings(teacher, dataset, out=unit)
        except (ContractError, DataError) as exc:
            raise type(exc)(f"stage {stage}: teacher {i}: {exc}") from exc
        units.append(unit)
    return units


@dataclass(frozen=True)
class StepRecord:
    """One optimizer step's diagnostics: its loss terms are `loss`."""

    step: int
    epoch: int
    lr: float
    loss: LossBreakdown


def run_stage(stage, params, dataset, teachers=None, pseudo_labels=None, *,
              epochs=20, batch_size=16, loss_cfg=None, peak_lr=2e-5,
              floor_lr=1e-7, warmup_fraction=0.1, weight_decay=0.01, seed=0):
    """Train one stage to completion; returns (params, records).

    `stage` is a name from STAGES, and `dataset` a PairedDataset that
    the stage passes over `epochs` times in batches of `batch_size`.  A
    batch_size whose workspace, with finetune's teacher targets, would
    not fit core._ALLOC_BYTES is a ConfigError before step 0, as is a
    teacher cache that would not.
    The stage name picks the loss terms.
    finetune distills from `teachers`, a sequence of frozen ModelParams,
    of any embedding widths, whose averaged similarities give the
    targets (required there, rejected elsewhere).  Each teacher is
    embedded once over the whole dataset before step 0, so a teacher
    whose input width is wrong, or whose embedding of any row overflows
    or collapses to zero, fails there naming the stage and the teacher;
    each step gathers its rows from that cache.  refinetune classifies
    `pseudo_labels`, a 1-D int array with one label per dataset row
    (required there along with classification heads, rejected
    elsewhere); a batch passes its rows' labels on, and both heads
    classify them since rows are matched pairs.  `loss_cfg` only weights
    the terms, so a weight of 0 turns its term off.  The stage trains
    views of a private copy of `params` in place and never writes
    `params` or `teachers`.
    A step whose loss or parameters are not finite raises DataError
    naming the stage, step, epoch and lr, and the loss terms once known.
    """
    if stage not in STAGES:
        raise ConfigError(
            f"unknown stage {stage!r}, expected one of {STAGES}")
    if epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")
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
    distills = stage == "finetune"
    clusters = stage == "refinetune"
    if distills and not teachers:
        raise ConfigError(f"stage {stage} needs teacher models")
    if teachers and not distills:
        raise ConfigError(f"stage {stage} does not accept teachers")
    if clusters:
        if pseudo_labels is None:
            raise ConfigError(f"stage {stage} needs pseudo labels")
        if not params.has_heads:
            raise ConfigError("refinetune requires classification heads")
    elif pseudo_labels is not None:
        raise ConfigError(f"stage {stage} does not accept labels")

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

    if epochs == 0:
        return params, []

    steps_per_epoch = len(dataset) // batch_size
    if steps_per_epoch == 0:
        raise ContractError(
            f"dataset of {len(dataset)} cannot fill a batch of "
            f"{batch_size}")
    teachers = teachers or ()
    n_rows = len(dataset)
    _check_alloc(8 * 2 * n_rows * sum(t.d_emb for t in teachers),
                 f"a dataset of {n_rows} rows", "teacher embedding cache")
    work = _Workspace(params, batch_size, teachers)
    units = _embed_teachers(stage, teachers, dataset)
    batch = PairedDataset(
        np.zeros((batch_size, dataset.audio_features.shape[1])),
        np.zeros((batch_size, dataset.text_features.shape[1])))
    total_steps = steps_per_epoch * epochs
    warmup = min(total_steps - 1, round(warmup_fraction * total_steps))
    rates = _learning_rates(peak_lr, floor_lr, total_steps, warmup)

    theta = np.concatenate(
        [t.ravel() for t in params.named_tensors().values()])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    params = params.with_tensors(_flat_views(params.named_tensors(), theta))
    records = []
    step = 0
    for epoch in range(epochs):
        for batch_idx in make_batches(len(dataset), batch_size,
                                      seed, epoch):
            # in-range indices: "clip" only skips the copy "raise" makes
            for rows, out in ((dataset.audio_features, batch.audio_features),
                              (dataset.text_features, batch.text_features)):
                np.take(rows, batch_idx, axis=0, out=out, mode="clip")
            labels = labels_all[batch_idx] if clusters else None

            lr = next(rates)
            breakdown = None
            try:
                targets = (_teacher_targets(work, units, batch_idx, cfg.tau)
                           if distills else None)
                breakdown, _ = loss_and_gradients(
                    params, batch, cfg, targets=targets, labels=labels,
                    work=work)
                adamw_step(theta, work.grad, m, v, step + 1, lr,
                           weight_decay, work.scratch)
                _check_finite("model", theta)
            except DataError as exc:
                terms = "" if breakdown is None else "; " + ", ".join(
                    f"{name}={value:.6g}"
                    for name, value in vars(breakdown).items())
                raise DataError(
                    f"stage {stage} diverged at step {step} (epoch "
                    f"{epoch}, lr {lr:.6g}{terms}): {exc}") from exc
            records.append(StepRecord(step=step, epoch=epoch, lr=lr,
                                      loss=breakdown))
            step += 1
    return params, records
