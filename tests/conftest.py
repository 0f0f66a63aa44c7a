"""Shared test helpers: small batch and parameter builders, and the
closed-form references that the objective's terms are checked against."""

import numpy as np
import pytest

from xmrt import (LinearEncoder, ModelParams, PairedDataset, init_heads,
                  init_params)


def headed_params(d_audio, d_text, d_emb, n_clusters, seed):
    """init_params with init_heads joined, as the CLI builds a refinetune
    model: both drawn from seed."""
    return init_params(d_audio, d_text, d_emb, seed=seed).with_heads(
        *init_heads(d_emb, n_clusters, seed=seed))


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


def identity_batch(audio_rows, text_rows, heads=(None, None)):
    """(params, batch) for loss_and_gradients where both encoders are the
    identity, so the rows are the raw embeddings and the batch similarity
    is their cosine; `heads` is an (audio, text) head pair or none."""
    batch = PairedDataset(audio_rows, text_rows)
    width = batch.audio_features.shape[1]
    encoders = (LinearEncoder(np.eye(width), np.zeros(width), modality)
                for modality in ("audio", "text"))
    return ModelParams(*encoders, *heads), batch


def relevance_entries(relevance):
    """A RelevanceMap's flat ids as one tuple of ints per query."""
    flat = relevance.ids.tolist()
    return tuple(tuple(flat[a:a + w]) for a, w in
                 zip(relevance.starts.tolist(), relevance.widths.tolist()))


# Closed-form references for the terms of loss_and_gradients.  They make
# the same floating-point operations in the same order, so each term must
# agree with the engine's to the last bit.

def log_softmax(z, np_axis):
    shifted = z - z.max(axis=np_axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=np_axis, keepdims=True))


def bidirectional_ce(p_audio, p_text, sim, tau):
    """Mean cross-entropy of p_audio against the column softmax of
    sim/tau (over audios) plus that of p_text against the row softmax
    (over captions); each direction averages over its own distributions."""
    z = sim / tau
    n_rows, n_cols = z.shape
    return (float(-(p_audio * log_softmax(z, 0)).sum() / n_cols)
            + float(-(p_text * log_softmax(z, 1)).sum() / n_rows))


def supervised_ce(sim, tau):
    """The contrastive term: one-hot diagonal targets in both directions."""
    eye = np.eye(sim.shape[0])
    return bidirectional_ce(eye, eye, sim, tau)


def distillation_ce(targets, sim, tau):
    """The distillation term: the teacher soft targets in both directions."""
    return bidirectional_ce(targets.p_hat_audio, targets.p_hat_text, sim, tau)


def label_ce(logits, labels):
    """The classification term: mean row cross-entropy against labels."""
    logq = log_softmax(logits, 1)
    return float(-logq[np.arange(len(labels)), labels].mean())
