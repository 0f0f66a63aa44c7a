"""The training objective, its analytic gradients, and teacher targets.

`loss_and_gradients` is the one implementation of the objective: the
bidirectional supervised contrastive loss over in-batch pairs, plus
lambda1 times soft-target distillation against an averaged teacher
ensemble, plus lambda2 times cluster classification on both encoders.
It reports each term and backpropagates the total through the cosine
normalization, the temperature softmax, and the classification heads.
Both towers, and both heads, run as one stacked pass on (2, n, .)
arrays, audio then text: they share the embedding width, the row
count and, for the heads, the labels, so each per-tower operation is
one numpy call with the bits of the two it replaces.  The heads are
stored stacked (encoders.ClassificationHead), so the pass reads them,
and writes their gradients, in place.

Teacher targets are a plain pair of arrays (p_hat_audio, p_hat_text).
A finetune stage embeds each teacher once, before step 0, into unit rows
that core._unit_rows has checked (every norm finite and nonzero); a
step gathers its batch's rows from there and builds the targets in its
_Workspace (_teacher_targets): one product per teacher, the sorted mean
in place (_sorted_mean) and one softmax per direction (_target_pair),
with no scan of its own.  ensemble_average and targets_from_teacher_sims
run the same two kernels on checked copies.  loss_and_gradients checks
the targets' shapes; a target that is not finite shows in the one
scalar of its distillation term, and a negative one in each target's
minimum.

Convention throughout: similarity matrices have audio items on rows and
captions on columns, matched pairs on the diagonal.  Cross-entropies are
mean-reduced over a batch's distributions, so loss magnitudes do not scale
with batch size.  Loss values are computed in the log-softmax domain
(exact; no probability clamp), which is what makes the analytic gradients
match finite differences to full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Axis, _as_equal_shape_matrices, _check_alloc,
                   _softmax_forward, _unit_rows, softmax_with_temperature)
from .encoders import (_HEAD_TENSORS, MODALITIES, _embed, _flat_views,
                       _head_forward)
from .errors import ConfigError, ContractError, DataError


@dataclass(frozen=True)
class LossConfig:
    """Temperature and loss weights."""

    tau: float = 0.05
    lambda1: float = 1.0       # distillation weight
    lambda2: float = 0.05      # classification weight

    def __post_init__(self):
        # nan fails every comparison; a subnormal tau's 1/tau is inf, and
        # float() keeps a numpy scalar's overflow from warning
        if not (0 < self.tau < np.inf and 1.0 / float(self.tau) < np.inf):
            raise ConfigError(f"tau must be finite and > 0 with a finite "
                              f"1/tau, got {self.tau}")
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ConfigError("lambda1 and lambda2 must be finite and >= 0, "
                              f"got {self.lambda1}, {self.lambda2}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term loss values and their weighted total."""

    l_sup: float
    l_dist: float
    l_cls_audio: float
    l_cls_text: float
    total: float


def _sorted_mean(mats, spare):
    """The elementwise mean of the list `mats` of m equal-shape arrays,
    computed over them and the one extra buffer `spare`; returns the
    buffer that holds it.

    Each element's m values are sorted in place (m rounds of an odd-even
    min/max network) and summed in that order from +0.0, whose sign no
    tied zero can change, then divided by m; so the mean is exactly
    invariant to teacher order, but not correctly rounded.  One array
    comes back as it is.  A sum that overflows is left inf for the
    caller to find.
    """
    m = len(mats)
    if m == 1:
        return mats[0]
    for r in range(m):
        for i in range(r % 2, m - 1, 2):
            low = np.minimum(mats[i], mats[i + 1], out=spare)
            np.maximum(mats[i], mats[i + 1], out=mats[i + 1])
            mats[i], spare = low, mats[i]
    spare.fill(0.0)
    with np.errstate(over="ignore"):
        for mat in mats:
            spare += mat
    spare /= m
    return spare


def _target_pair(z, out):
    """The teacher targets of the scaled average similarity z, softmaxed
    over audios (columns) into out[0] and over captions (rows) into
    out[1]: the pair (p_hat_audio, p_hat_text)."""
    for target, axis in zip(out, (Axis.COLUMNS, Axis.ROWS)):
        _softmax_forward(z, axis, target, target)
    return out[0], out[1]


def ensemble_average(similarities):
    """Elementwise mean of teacher similarity matrices: _sorted_mean of
    checked copies, so exactly invariant to teacher order.  A single
    teacher comes back unchanged; a sum that overflows raises
    OverflowError.
    """
    if len(similarities) == 0:
        raise ContractError("need at least one similarity matrix")
    mats = [mat.copy() for mat in
            _as_equal_shape_matrices(similarities, "similarity")]
    mean = _sorted_mean(mats, np.empty_like(mats[0]))
    if not np.isfinite(mean).all():
        raise OverflowError("teacher similarity sum overflowed")
    return mean


def teacher_soft_targets(avg_sim, cfg):
    """Temperature-softmax the averaged teacher similarities, both
    directions: the pair (p_hat_audio, p_hat_text) of distributions over
    audios (columns sum to 1) and over captions (rows sum to 1)."""
    return (softmax_with_temperature(avg_sim, cfg.tau, Axis.COLUMNS),
            softmax_with_temperature(avg_sim, cfg.tau, Axis.ROWS))


def targets_from_teacher_sims(similarities, cfg):
    """Average a list of teacher similarity matrices and soften them:
    the kernels of a finetune step's _teacher_targets, on fresh arrays."""
    mean = ensemble_average(similarities)
    mean /= cfg.tau
    return _target_pair(mean, np.empty((2,) + mean.shape))


def _teacher_targets(work, units, idx, tau):
    """The teacher target pair of the rows idx of a stage's dataset, in
    the buffers of its _Workspace `work`.

    `units` holds each teacher's (2, N, d_emb) unit rows of the whole
    dataset, audio then text (training's teacher cache); their widths
    may differ.  Each teacher's batch rows are gathered into the
    workspace and multiplied into its similarity, and the sorted mean of
    those, divided by tau, is softened both ways into work.targets.
    """
    for unit, rows, sim in zip(units, work.teacher_rows, work.teacher_sims):
        # in-range indices: "clip" only skips the copy "raise" makes
        np.take(unit, idx, axis=1, out=rows, mode="clip")
        np.matmul(rows[0], rows[1].T, out=sim)
    mean = _sorted_mean(list(work.teacher_sims), work.teacher_mean)
    mean /= tau
    return _target_pair(mean, work.targets)


def _forward_embeddings(params, batch, out=None):
    """(raw, unit, norm): both towers' raw embeddings, stacked as one
    (2, n, d_emb) array, audio then text, their unit rows, and the
    (2, n, 1) norms between them.  Given `out`, the unit rows overwrite
    the raw ones there, so raw is unit."""
    raw = np.empty((2, len(batch), params.d_emb)) if out is None else out
    # Huge weights overflow here; _unit_rows reports it, so numpy's
    # warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        _embed(params.audio_encoder, batch.audio_features, out=raw[0])
        _embed(params.text_encoder, batch.text_features, out=raw[1])
        unit, norm = _unit_rows(raw, *MODALITIES, out=out)
    return raw, unit, norm


def student_similarity(params, batch):
    """Similarity matrix of one model on a batch (no gradients)."""
    unit = _forward_embeddings(params, batch)[1]
    return unit[0] @ unit[1].T


def _unit_norm_backward(grad_unit, unit, norm):
    # d/d(raw) of f(raw/||raw||): project out the radial component.
    radial = (grad_unit * unit).sum(axis=-1, keepdims=True)
    return (grad_unit - radial * unit) / norm


def _head_forward_backward(heads, raw, labels, grads):
    """The head pair's unweighted losses (audio, text) on the stacked raw
    embeddings and shared labels, as one stacked pass; writes their
    parameter gradients into the (2, ...) views grads["heads.*"] and
    returns the (2, n, d_emb) gradient of the embeddings."""
    pre, hidden, logits = _head_forward(heads, raw)
    shifted, log_s, probs = _softmax_forward(logits, Axis.ROWS, logits)
    n = len(labels)
    rows = np.arange(n)
    # the mean -log q of each row's label
    losses = np.add.reduce(log_s[..., 0] - shifted[:, rows, labels],
                           axis=1) / n
    probs[:, rows, labels] -= 1.0
    d_logits = probs
    d_logits /= n
    np.matmul(d_logits.transpose(0, 2, 1), hidden, out=grads["heads.w2"])
    np.add.reduce(d_logits, axis=1, out=grads["heads.b2"])
    d_pre = np.matmul(d_logits, heads.w2)
    d_pre *= pre > 0.0
    np.matmul(d_pre.transpose(0, 2, 1), raw, out=grads["heads.w1"])
    np.add.reduce(d_pre, axis=1, out=grads["heads.b1"])
    return losses, np.matmul(d_pre, heads.w1)


class _Workspace:
    """Every n x n array of a step at batch size n, the gradient vector
    with its views in params' layout (the head pair's are (2, ...), audio
    then text), and the two scratch vectors of training.adamw_step.

    The squares are the five of loss_and_gradients and, for m > 0
    `teachers`, the m + 3 of _teacher_targets: m similarities, the
    scaled average and the target pair; beside them lie each teacher's
    (2, n, d_emb) gathered rows.  A workspace whose bytes would pass
    core._ALLOC_BYTES is a ConfigError before any allocation.
    """

    def __init__(self, params, n, teachers):
        tensors = params.named_tensors()
        size = sum(t.size for t in tensors.values())
        m = len(teachers)
        squares = 5 + (m + 3 if m else 0)
        rows = 2 * n * sum(t.d_emb for t in teachers)
        with_teachers = f" with {m} teachers" if m else ""
        _check_alloc(8 * (squares * n * n + rows + 3 * size),
                     f"batch_size {n}", f"training workspace{with_teachers}")
        block = np.empty((squares, n, n))
        self.z, self.shifted_r, self.q_r, self.shifted_c, self.q_c = block[:5]
        self.teacher_sims = block[5:5 + m]
        self.teacher_mean = block[5 + m] if m else None
        self.targets = block[6 + m:]
        self.teacher_rows = [np.empty((2, n, t.d_emb)) for t in teachers]
        self.grad = np.zeros(size)
        self.grads = _flat_views(tensors, self.grad)
        self.scratch = np.empty((2, size))


def loss_and_gradients(params, batch, cfg, targets=None, labels=None,
                       work=None):
    """Total loss and its exact gradient for every parameter.

    `batch` holds matched rows in `audio_features` and `text_features`
    (a training.PairedDataset); only those and len(batch) are read.  The
    distillation term runs iff teacher `targets` are given, and the
    classification term iff cluster `labels` are given.  `targets` is
    the pair (p_hat_audio, p_hat_text) of teacher_soft_targets, each the
    shape of the batch similarity (else ContractError).  A target entry
    that is not finite is a DataError, and a negative one a ContractError;
    both are raised before the gradient is touched.  `labels` is a 1-D int
    array with one label per row, which both heads of params.heads
    classify (so it needs them).  cfg.lambda1 and cfg.lambda2 only weight
    the terms: a term with weight 0 is still computed and reported, but
    adds nothing to the total or the gradient.  Teacher targets are
    constants: no gradient flows into them.  Each gradient is a view whose
    .base is one zeroed vector, in named_tensors() order (the head
    pair's are (2, ...)); unused heads get 0.  It and every n x n array
    of the call live in `work`, the _Workspace run_stage keeps per
    stage, so they last until its next call; without `work` they are
    fresh arrays.
    """
    distill = targets is not None
    cluster = labels is not None
    n = len(batch)
    if cluster:
        if not params.has_heads:
            raise ConfigError("cluster labels require classification heads")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ContractError(f"need one label per row: labels of shape "
                                f"{labels.shape} for a batch of {n}")
        k = params.n_clusters
        if labels.min() < 0 or labels.max() >= k:
            raise DataError(f"cluster label outside [0, {k})")
    if work is None:   # targets, if given, are already the caller's
        work = _Workspace(params, n, ())

    raw, unit, norm = _forward_embeddings(params, batch)
    z = np.matmul(unit[0], unit[1].T, out=work.z)
    z /= cfg.tau

    # One forward per direction serves both loss terms and the gradient;
    # log q = shifted - log s is read where needed, never formed.
    shifted_r, log_s_r, q_r = _softmax_forward(       # captions | audio
        z, Axis.ROWS, work.shifted_r, work.q_r)
    shifted_c, log_s_c, q_c = _softmax_forward(       # audios | caption
        z, Axis.COLUMNS, work.shifted_c, work.q_c)
    log_s_r, log_s_c = log_s_r[:, 0], log_s_c[0]
    # Per direction, the mean -log q at the matched pairs on the diagonal.
    l_sup = (float((log_s_c - shifted_c.diagonal()).sum() / n)
             + float((log_s_r - shifted_r.diagonal()).sum() / n))
    grad_sim = np.add(q_r, q_c, out=z)

    l_dist = 0.0
    if distill:
        p_hat_a, p_hat_c = map(np.asarray, targets)
        if p_hat_a.shape != z.shape or p_hat_c.shape != z.shape:
            raise ContractError(
                f"teacher target shapes {p_hat_a.shape} and {p_hat_c.shape} "
                f"do not match batch similarity {z.shape}")
        # -sum(p * log q) is sum(p) . log s - sum(p * shifted), with sum(p)
        # along the softmax axis.  einsum's order, unlike BLAS vdot's,
        # does not depend on the BLAS thread count.
        l_dist = (float((p_hat_a.sum(axis=0) @ log_s_c - np.einsum(
                      "ij,ij->", p_hat_a, shifted_c)) / n)
                  + float((p_hat_c.sum(axis=1) @ log_s_r - np.einsum(
                      "ij,ij->", p_hat_c, shifted_r)) / n))
        # A nan or infinite target entry makes l_dist nan or infinite, so
        # this scalar is the targets' one finiteness check; the entries
        # are then finite, and the targets' minima are their sign check.
        if not math.isfinite(l_dist):
            raise DataError(f"teacher targets give a non-finite l_dist "
                            f"({l_dist})")
        if (low := min(p_hat_a.min(), p_hat_c.min())) < 0:
            raise ContractError(f"teacher targets must be nonnegative, got "
                                f"an entry {low}")
        # lambda1 * ((q_r - p_hat_c) + (q_c - p_hat_a)), in a spent buffer
        pull = np.add(p_hat_c, p_hat_a, out=shifted_r)
        np.subtract(grad_sim, pull, out=pull)
        pull *= cfg.lambda1
        grad_sim += pull
    grad_sim.flat[::n + 1] -= 2.0    # the one-hot targets, both directions

    # Back through the mean, z = unit[0] @ unit[1].T / tau, and the
    # normalization, both towers at once from here on.
    grad_unit = np.empty_like(unit)
    np.matmul(grad_sim, unit[1], out=grad_unit[0])
    np.matmul(grad_sim.T, unit[0], out=grad_unit[1])
    grad_unit /= n * cfg.tau
    grad_raw = _unit_norm_backward(grad_unit, unit, norm)

    grads = work.grads
    work.grad.fill(0.0)
    l_cls_a = l_cls_c = 0.0
    if cluster:
        losses, d_raw = _head_forward_backward(params.heads, raw, labels,
                                               grads)
        l_cls_a, l_cls_c = losses.tolist()
        d_raw *= cfg.lambda2
        grad_raw += d_raw
        for name in _HEAD_TENSORS:
            grads[name] *= cfg.lambda2

    for modality, g, x in zip(MODALITIES, grad_raw, (batch.audio_features,
                                                      batch.text_features)):
        np.matmul(g.T, x, out=grads[f"{modality}_encoder.weight"])
        np.add.reduce(g, axis=0, out=grads[f"{modality}_encoder.bias"])

    total = l_sup + cfg.lambda1 * l_dist + cfg.lambda2 * (l_cls_a + l_cls_c)
    return LossBreakdown(l_sup=l_sup, l_dist=l_dist, l_cls_audio=l_cls_a,
                         l_cls_text=l_cls_c, total=total), grads

