"""Shared test helpers: small batch and parameter builders, a weight
table writer, and the references that the objective's terms, the
optimizer step and the learning-rate schedule are checked against."""

import numpy as np
import pytest

from xmrt import (ClassificationHead, LinearEncoder, ModelParams,
                  PairedDataset, init_heads, init_params)
from xmrt.ensemble import _TABLE_HEADER
from xmrt.tensorfile import _write_rows
from xmrt.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def headed_params(d_audio, d_text, d_emb, n_clusters, seed):
    """init_params with init_heads joined, as the CLI builds a refinetune
    model: both drawn from seed."""
    return init_params(d_audio, d_text, d_emb, seed=seed).with_heads(
        init_heads(d_emb, n_clusters, seed=seed))


def head_pair(w1, b1, w2, b2):
    """A ClassificationHead pair whose audio and text heads are both the
    one head with these layers."""
    return ClassificationHead(*(np.stack((t, t)) for t in (w1, b1, w2, b2)))


def random_batch(n, d_audio, d_text, seed):
    rng = np.random.default_rng(seed)
    return PairedDataset(rng.standard_normal((n, d_audio)),
                         rng.standard_normal((n, d_text)))


@pytest.fixture
def small_batch():
    return random_batch(4, 6, 5, seed=3)


@pytest.fixture
def small_params():
    return init_params(6, 5, 4, seed=0)


@pytest.fixture
def head_params():
    return headed_params(6, 5, 4, 3, seed=0)


def identity_batch(audio_rows, text_rows, heads=None):
    """(params, batch) for loss_and_gradients where both encoders are the
    identity, so the rows are the raw embeddings and the batch similarity
    is their cosine; `heads` is a ClassificationHead pair or None."""
    batch = PairedDataset(audio_rows, text_rows)
    width = batch.audio_features.shape[1]
    encoders = (LinearEncoder(np.eye(width), np.zeros(width), modality)
                for modality in ("audio", "text"))
    return ModelParams(*encoders, heads), batch


def write_weight_rows(path, specs):
    """Write {row name: EnsembleSpec} as a weight table file laid out as
    the bundled one: its header, then each row's name and member weights
    in float repr, in the members' order."""
    _write_rows(path, [_TABLE_HEADER, *(
        [name, *(repr(m.weight) for m in spec.members)]
        for name, spec in specs.items())])


def relevance_entries(relevance):
    """A RelevanceMap's flat ids as one tuple of ints per query."""
    flat = relevance.ids.tolist()
    return tuple(tuple(flat[a:a + w]) for a, w in
                 zip(relevance.starts.tolist(), relevance.widths.tolist()))


# Closed-form references for the terms of loss_and_gradients.  The first
# three make the same floating-point operations in the same order, so each
# term must agree with the engine's to the last bit; full_matrix_ce forms
# the log-softmax matrices that the engine never does.

def log_softmax(z, np_axis):
    shifted = z - z.max(axis=np_axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=np_axis, keepdims=True))


def _directions(sim, tau):
    """(np_axis, shifted, log s) of the softmax of sim/tau over audios
    (columns), then over captions (rows): log q = shifted - log s."""
    z = sim / tau
    for np_axis in (0, 1):
        shifted = z - z.max(axis=np_axis, keepdims=True)
        yield np_axis, shifted, np.log(np.exp(shifted).sum(axis=np_axis))


def supervised_ce(sim, tau):
    """The contrastive term: -log q = log s - shifted at the matched pairs
    on the diagonal, averaged over each direction's n distributions."""
    total = 0.0
    for _, shifted, log_s in _directions(sim, tau):
        total += float((log_s - shifted.diagonal()).sum() / len(sim))
    return total


def distillation_ce(targets, sim, tau):
    """The distillation term: per direction, -sum(p * log q) as
    sum(p) . log s - sum(p * shifted), with sum(p) along the softmax
    axis, averaged over the n distributions."""
    total = 0.0
    for p, (np_axis, shifted, log_s) in zip(
            targets, _directions(sim, tau)):
        total += float((p.sum(axis=np_axis) @ log_s
                        - np.einsum("ij,ij->", p, shifted)) / len(sim))
    return total


def full_matrix_ce(p_audio, p_text, sim, tau):
    """Mean cross-entropy of p_audio against the column log-softmax of
    sim/tau (over audios) plus that of p_text against the row
    log-softmax (over captions), each a full matrix; each direction
    averages over its own distributions."""
    z = sim / tau
    n_rows, n_cols = z.shape
    return (float(-(p_audio * log_softmax(z, 0)).sum() / n_cols)
            + float(-(p_text * log_softmax(z, 1)).sum() / n_rows))


def label_ce(logits, labels):
    """The classification term: mean row cross-entropy against labels."""
    logq = log_softmax(logits, 1)
    return float(-logq[np.arange(len(labels)), labels].mean())


# Out-of-place references for the training step.  They make the same
# floating-point operations in the same order as adamw_step and
# run_stage's schedule, so the engine must agree to the last bit.

def adamw_reference(theta, grad, m, v, step, lr, weight_decay):
    """(theta, m, v) after one AdamW step, all three new arrays."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat, v_hat = m / bc1, v / bc2
    return (theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            - lr * weight_decay * theta), m, v


def lr_reference(peak_lr, floor_lr, total_steps, warmup_steps, step):
    """The rate at one step of a linear warmup from zero to peak_lr at
    warmup_steps, then a cosine that reaches floor_lr at total_steps."""
    if warmup_steps > 0 and step < warmup_steps:
        return peak_lr * (step / warmup_steps)
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    w = 0.5 * (1.0 + np.cos(np.pi * progress))
    return float(peak_lr * w + floor_lr * (1.0 - w))
