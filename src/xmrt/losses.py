"""The complete training objective and its analytic gradients.

Bidirectional supervised contrastive loss over in-batch pairs, soft-target
distillation against an averaged teacher ensemble, auxiliary cluster
classification on both encoders, and the weighted combination of all four
terms.  `loss_and_gradients` backpropagates the total through the cosine
normalization, the temperature softmax, and the classification heads.

Convention throughout: similarity matrices have audio items on rows and
captions on columns, matched pairs on the diagonal.  Cross-entropies are
mean-reduced over a batch's distributions, so loss magnitudes do not scale
with batch size.  Loss values are computed in the log-softmax domain
(exact; no probability clamp), which is what makes the analytic gradients
match finite differences to full precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Axis, _softmax_forward, _unit_rows, as_matrix,
                   softmax_with_temperature)
from .encoders import _embed, _head_forward
from .errors import ConfigError, ContractError, DataError


@dataclass(frozen=True)
class LossConfig:
    """Temperature and loss weights."""

    tau: float = 0.05
    lambda1: float = 1.0       # distillation weight
    lambda2: float = 0.05      # classification weight

    def __post_init__(self):
        # nan fails every comparison, so it is rejected too.
        if not 0 < self.tau < np.inf:
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
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


@dataclass(frozen=True)
class TeacherTargets:
    """Soft correspondence targets from an averaged teacher ensemble."""

    p_hat_audio: np.ndarray    # distributions over audios (columns sum to 1)
    p_hat_text: np.ndarray     # distributions over captions (rows sum to 1)

    def __post_init__(self):
        p_a = as_matrix(self.p_hat_audio, "p_hat_audio")
        p_c = as_matrix(self.p_hat_text, "p_hat_text")
        if p_a.shape != p_c.shape:
            raise ContractError("teacher target shapes disagree")
        object.__setattr__(self, "p_hat_audio", p_a)
        object.__setattr__(self, "p_hat_text", p_c)

    @property
    def shape(self):
        return self.p_hat_audio.shape


def _bidirectional_ce(p_audio, p_text, logq_audio, logq_text):
    """Column (over audios) plus row (over captions) mean cross-entropy.

    Each direction is -sum(p * log q) divided by its number of
    distributions: columns for the audio direction, rows for the caption
    direction.
    """
    n_rows, n_cols = logq_audio.shape
    return (float(-(p_audio * logq_audio).sum() / n_cols)
            + float(-(p_text * logq_text).sum() / n_rows))


def _label_ce(logq, labels):
    """Mean cross-entropy of row log-probabilities against integer labels."""
    return float(-logq[np.arange(logq.shape[0]), labels].mean())


def supervised_contrastive_loss(sim, cfg):
    """Bidirectional cross-entropy pulling diagonal pairs together.

    Both retrieval directions are scored: captions given each audio (row
    softmax) and audios given each caption (column softmax), against
    one-hot diagonal targets.
    """
    s = as_matrix(sim, "similarity matrix")
    n, m = s.shape
    if n != m:
        raise ContractError(
            f"supervised loss needs a square matrix, got {s.shape}")
    eye = np.eye(n)
    z = s / cfg.tau
    return _bidirectional_ce(eye, eye, _softmax_forward(z, Axis.COLUMNS)[0],
                             _softmax_forward(z, Axis.ROWS)[0])


def ensemble_average(similarities):
    """Elementwise mean of teacher similarity matrices.

    Each element's m values are sorted (m rounds of an odd-even min/max
    network) and summed in that order from +0.0, whose sign no tied zero
    can change; so the mean is exactly invariant to teacher order, but
    not correctly rounded.  A single teacher comes back unchanged; a sum
    that overflows raises OverflowError.
    """
    if len(similarities) == 0:
        raise ContractError("need at least one similarity matrix")
    mats = [as_matrix(s, f"similarity {i}") for i, s in enumerate(similarities)]
    shape = mats[0].shape
    for i, mat in enumerate(mats[1:], start=1):
        if mat.shape != shape:
            raise ContractError(
                f"similarity {i} has shape {mat.shape}, expected {shape}")
    m = len(mats)
    if m == 1:
        return mats[0].copy()
    for r in range(m):
        for i in range(r % 2, m - 1, 2):
            lo, hi = mats[i], mats[i + 1]
            mats[i], mats[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    total = np.zeros(shape)
    with np.errstate(over="ignore"):
        for mat in mats:
            total += mat
    if not np.isfinite(total).all():
        raise OverflowError("teacher similarity sum overflowed")
    return total / m


def teacher_soft_targets(avg_sim, cfg):
    """Temperature-softmax the averaged teacher similarities, both directions."""
    s = as_matrix(avg_sim, "averaged similarity")
    return TeacherTargets(
        p_hat_audio=softmax_with_temperature(s, cfg.tau, Axis.COLUMNS),
        p_hat_text=softmax_with_temperature(s, cfg.tau, Axis.ROWS))


def targets_from_teacher_sims(similarities, cfg):
    """Average a list of teacher similarity matrices and soften them."""
    return teacher_soft_targets(ensemble_average(similarities), cfg)


def distillation_loss(targets, sim, cfg):
    """Cross-entropy of the teacher soft targets against the student."""
    s = as_matrix(sim, "similarity matrix")
    if s.shape != targets.shape:
        raise ContractError(
            f"student shape {s.shape} != teacher target shape {targets.shape}")
    z = s / cfg.tau
    return _bidirectional_ce(targets.p_hat_audio, targets.p_hat_text,
                             _softmax_forward(z, Axis.COLUMNS)[0],
                             _softmax_forward(z, Axis.ROWS)[0])


def classification_loss(logits, labels):
    """Mean softmax cross-entropy of cluster logits against integer labels."""
    z = as_matrix(logits, "logits")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1 or lab.shape[0] != z.shape[0]:
        raise ContractError(
            f"need one label per row: {lab.shape} labels for {z.shape} logits")
    k = z.shape[1]
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        bad = lab[(lab < 0) | (lab >= k)][0]
        raise DataError(f"label {bad} outside [0, {k})")
    return _label_ce(_softmax_forward(z, Axis.ROWS)[0], lab)


def combined_loss(l_sup, l_dist, l_cls_audio, l_cls_text, cfg):
    """Weighted total: l_sup + lambda1*l_dist + lambda2*(cls_a + cls_c)."""
    parts = {"l_sup": l_sup, "l_dist": l_dist,
             "l_cls_audio": l_cls_audio, "l_cls_text": l_cls_text}
    for name, value in parts.items():
        if value < 0:
            raise ContractError(f"{name} must be nonnegative, got {value}")
    total = (l_sup + cfg.lambda1 * l_dist
             + cfg.lambda2 * (l_cls_audio + l_cls_text))
    return LossBreakdown(l_sup=float(l_sup), l_dist=float(l_dist),
                         l_cls_audio=float(l_cls_audio),
                         l_cls_text=float(l_cls_text), total=float(total))


def _forward_embeddings(params, batch):
    """Raw and unit-normalized embeddings plus the cosine similarity."""
    # Huge weights overflow here; _unit_rows reports it, so numpy's
    # warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        raw_a = _embed(params.audio_encoder, batch.audio_features)
        raw_c = _embed(params.text_encoder, batch.text_features)
    unit_a, norm_a = _unit_rows(raw_a, "audio")
    unit_c, norm_c = _unit_rows(raw_c, "text")
    return raw_a, raw_c, norm_a, norm_c, unit_a, unit_c, unit_a @ unit_c.T


def student_similarity(params, batch):
    """Similarity matrix of one model on a batch (no gradients)."""
    return _forward_embeddings(params, batch)[-1]


def _unit_norm_backward(grad_unit, unit, norm):
    # d/d(raw) of f(raw/||raw||): project out the radial component.
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norm


def _head_forward_backward(head, raw_emb, labels, n):
    """Loss, parameter grads, and embedding grad for one head (unweighted)."""
    pre, hidden, logits = _head_forward(head, raw_emb)
    logq, probs = _softmax_forward(logits, Axis.ROWS)
    loss = _label_ce(logq, labels)
    probs[np.arange(n), labels] -= 1.0
    d_logits = probs / n
    d_w2 = d_logits.T @ hidden
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ head.w2
    d_pre = d_hidden * (pre > 0.0)
    d_w1 = d_pre.T @ raw_emb
    d_b1 = d_pre.sum(axis=0)
    d_emb = d_pre @ head.w1
    grads = {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}
    return loss, grads, d_emb


def loss_and_gradients(params, batch, cfg, targets=None, labels=None):
    """Total loss and its exact gradient for every parameter.

    `batch` holds matched rows in `audio_features` and `text_features`
    (a training.PairedDataset); only those and len(batch) are read.  The
    distillation term runs iff teacher `targets` are given, and the
    classification term iff cluster `labels` are given: a 1-D int array
    with one label per row, which both heads classify (so it needs
    classification heads).  cfg.lambda1 and cfg.lambda2 only weight the
    terms: a term with weight 0 is still computed and reported, but adds
    nothing to the total or the gradient.  Teacher targets are
    constants: no gradient flows into them.
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

    raw_a, raw_c, norm_a, norm_c, unit_a, unit_c, sim = _forward_embeddings(
        params, batch)
    z = sim / cfg.tau
    eye = np.eye(n)

    # One forward per direction serves both loss terms and the gradient.
    logq_rows, q_rows = _softmax_forward(z, Axis.ROWS)     # captions | audio
    logq_cols, q_cols = _softmax_forward(z, Axis.COLUMNS)  # audios | caption
    l_sup = _bidirectional_ce(eye, eye, logq_cols, logq_rows)
    grad_sim = (q_rows - eye) + (q_cols - eye)

    l_dist = 0.0
    if distill:
        if targets.shape != sim.shape:
            raise ContractError(
                f"teacher target shape {targets.shape} does not match "
                f"batch similarity {sim.shape}")
        p_hat_a = targets.p_hat_audio
        p_hat_c = targets.p_hat_text
        l_dist = _bidirectional_ce(p_hat_a, p_hat_c, logq_cols, logq_rows)
        grad_sim = grad_sim + cfg.lambda1 * ((q_rows - p_hat_c)
                                             + (q_cols - p_hat_a))
    grad_sim = grad_sim / (n * cfg.tau)

    # Back through sim = unit_a @ unit_c.T, then the normalization.
    grad_unit_a = grad_sim @ unit_c
    grad_unit_c = grad_sim.T @ unit_a
    grad_raw_a = _unit_norm_backward(grad_unit_a, unit_a, norm_a)
    grad_raw_c = _unit_norm_backward(grad_unit_c, unit_c, norm_c)

    l_cls_a = l_cls_c = 0.0
    grads = {}
    if cluster:
        l_cls_a, head_grads_a, d_emb_a = _head_forward_backward(
            params.audio_head, raw_a, labels, n)
        l_cls_c, head_grads_c, d_emb_c = _head_forward_backward(
            params.text_head, raw_c, labels, n)
        grad_raw_a = grad_raw_a + cfg.lambda2 * d_emb_a
        grad_raw_c = grad_raw_c + cfg.lambda2 * d_emb_c
        for prefix, head_grads in (("audio_head", head_grads_a),
                                   ("text_head", head_grads_c)):
            for name, g in head_grads.items():
                grads[f"{prefix}.{name}"] = cfg.lambda2 * g

    grads["audio_encoder.weight"] = grad_raw_a.T @ batch.audio_features
    grads["audio_encoder.bias"] = grad_raw_a.sum(axis=0)
    grads["text_encoder.weight"] = grad_raw_c.T @ batch.text_features
    grads["text_encoder.bias"] = grad_raw_c.sum(axis=0)

    if params.has_heads and not cluster:
        # Heads exist but the path is off this step: zero gradients keep
        # the optimizer state shapes aligned.
        for prefix, head in (("audio_head", params.audio_head),
                             ("text_head", params.text_head)):
            grads[f"{prefix}.w1"] = np.zeros_like(head.w1)
            grads[f"{prefix}.b1"] = np.zeros_like(head.b1)
            grads[f"{prefix}.w2"] = np.zeros_like(head.w2)
            grads[f"{prefix}.b2"] = np.zeros_like(head.b2)

    breakdown = combined_loss(l_sup, l_dist, l_cls_a, l_cls_c, cfg)
    ordered = {name: grads[name] for name in params.named_tensors()}
    return breakdown, ordered

