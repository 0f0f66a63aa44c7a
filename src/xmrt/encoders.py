"""Trainable dual encoders and cluster-classification heads.

Each encoder is a single affine map from precomputed modality features to
the shared embedding space (embeddings are normalized later, inside cosine
similarity).  Classification heads are two linear layers with a ReLU in
between; the hidden width is structurally three times the embedding width.
A model holds its audio and text heads as one stacked pair, each tensor
with a leading modality axis, because the loss runs them as one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import _check_alloc, _rng, as_matrix
from .errors import ConfigError, ContractError, DataError

MODALITIES = ("audio", "text")
HEAD_WIDTH_FACTOR = 3
_ENCODER_TENSORS = tuple(f"{m}_encoder.{p}" for m in MODALITIES
                         for p in ("weight", "bias"))
_HEAD_LAYERS = ("w1", "b1", "w2", "b2")
_HEAD_TENSORS = tuple(f"heads.{p}" for p in _HEAD_LAYERS)


def _check_finite(name, *arrays):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise DataError(f"{name} contains non-finite parameters")


@dataclass(frozen=True)
class LinearEncoder:
    """Affine map W x + b from feature space to the embedding space."""

    weight: np.ndarray       # (d_out, d_in)
    bias: np.ndarray         # (d_out,)
    modality: str

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ContractError(
                f"encoder shapes disagree: weight {w.shape}, bias {b.shape}")
        if w.shape[0] < 2:
            raise ConfigError("embedding width must be at least 2")
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        _check_finite("encoder", w, b)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def d_in(self):
        return self.weight.shape[1]

    @property
    def d_out(self):
        return self.weight.shape[0]


@dataclass(frozen=True)
class ClassificationHead:
    """The audio and text heads, each two linear layers with a ReLU to K
    cluster logits, stacked on a leading modality axis: audio at index 0
    of every tensor, text at 1."""

    w1: np.ndarray           # (2, 3*d_emb, d_emb)
    b1: np.ndarray           # (2, 3*d_emb)
    w2: np.ndarray           # (2, K, 3*d_emb)
    b2: np.ndarray           # (2, K)

    def __post_init__(self):
        w1, b1, w2, b2 = (np.asarray(getattr(self, p), dtype=np.float64)
                          for p in _HEAD_LAYERS)
        if (w1.ndim, b1.ndim, w2.ndim, b2.ndim) != (3, 2, 3, 2):
            raise ContractError("head parameters have wrong ranks")
        (pair, hidden, d_emb), k = w1.shape, w2.shape[1]
        if pair != len(MODALITIES):
            raise ContractError(f"head tensors need a leading axis of "
                                f"{len(MODALITIES)}, one per modality")
        if hidden != HEAD_WIDTH_FACTOR * d_emb:
            raise ContractError(
                f"head hidden width must be exactly {HEAD_WIDTH_FACTOR}x the "
                f"embedding width; got {hidden} for width {d_emb}")
        if (b1.shape, w2.shape, b2.shape) != (
                (pair, hidden), (pair, k, hidden), (pair, k)):
            raise ContractError("head layer shapes disagree")
        _check_finite("head", w1, b1, w2, b2)
        for name, arr in zip(_HEAD_LAYERS, (w1, b1, w2, b2)):
            object.__setattr__(self, name, arr)

    @property
    def d_emb(self):
        return self.w1.shape[2]

    @property
    def n_clusters(self):
        return self.w2.shape[1]


@dataclass(frozen=True)
class ModelParams:
    """All trainable parameters of one dual-encoder model."""

    audio_encoder: LinearEncoder
    text_encoder: LinearEncoder
    heads: Optional[ClassificationHead] = None

    def __post_init__(self):
        if self.audio_encoder.d_out != self.text_encoder.d_out:
            raise ContractError("encoders must share the embedding width")
        if self.has_heads and self.heads.d_emb != self.d_emb:
            raise ContractError("head width does not match encoders")

    @property
    def d_emb(self):
        return self.audio_encoder.d_out

    @property
    def has_heads(self):
        return self.heads is not None

    @property
    def n_clusters(self):
        return self.heads.n_clusters if self.has_heads else None

    def named_tensors(self):
        """Ordered name -> array view of every parameter: the encoders,
        then the head pair's (2, ...) tensors w1, b1, w2, b2."""
        tensors = dict(zip(_ENCODER_TENSORS, (
            self.audio_encoder.weight, self.audio_encoder.bias,
            self.text_encoder.weight, self.text_encoder.bias)))
        if self.has_heads:
            tensors.update(zip(_HEAD_TENSORS, (getattr(self.heads, p)
                                               for p in _HEAD_LAYERS)))
        return tensors

    def with_tensors(self, tensors):
        """Rebuild ModelParams from a name -> array mapping."""
        return _params_from_tensors(tensors, self.has_heads)

    def with_heads(self, heads):
        return replace(self, heads=heads)


def _params_from_tensors(tensors, has_heads):
    """The one constructor from named tensors back to ModelParams.

    The names must be exactly the encoder tensors, plus the head tensors
    when has_heads; otherwise ContractError names every tensor that is
    missing or unexpected.
    """
    expected = set(_ENCODER_TENSORS + (_HEAD_TENSORS if has_heads else ()))
    if set(tensors) != expected:
        mismatch = expected.symmetric_difference(tensors)
        raise ContractError(f"tensor names do not match: {sorted(mismatch)}")
    audio_enc, text_enc = (
        LinearEncoder(tensors[f"{m}_encoder.weight"],
                      tensors[f"{m}_encoder.bias"], m) for m in MODALITIES)
    heads = (ClassificationHead(*(tensors[name] for name in _HEAD_TENSORS))
             if has_heads else None)
    return ModelParams(audio_enc, text_enc, heads)


def _flat_views(tensors, flat):
    """Name -> view of the 1-D `flat`, laid out in the order and shapes of
    the name -> array mapping `tensors` (a model's named_tensors(), whose
    head pair gives (2, ...) views); the one owner of the flat layout."""
    views, start = {}, 0
    for name, tensor in tensors.items():
        views[name] = flat[start:start + tensor.size].reshape(tensor.shape)
        start += tensor.size
    return views


def _uniform_fanin(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_heads(d_emb, n_clusters, seed=0):
    """A fresh classification head pair with fan-in uniform init.

    The one head constructor: the pair joins a model through
    ModelParams.with_heads.  Draw order is the audio head then the text
    head, w1 before w2; biases start at zero.  A pair past
    core._ALLOC_BYTES is a ConfigError before any draw.
    """
    if d_emb < 2:
        raise ConfigError(f"d_emb must be >= 2, got {d_emb}")
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    hidden = HEAD_WIDTH_FACTOR * d_emb
    pair = len(MODALITIES)
    _check_alloc(8 * pair * (hidden * (d_emb + 1 + n_clusters) + n_clusters),
                 f"n_clusters {n_clusters}", "classification head pair")
    rng = _rng(seed)
    w1 = np.empty((pair, hidden, d_emb))
    w2 = np.empty((pair, n_clusters, hidden))
    for i in range(pair):
        w1[i] = _uniform_fanin(rng, (hidden, d_emb), d_emb)
        w2[i] = _uniform_fanin(rng, (n_clusters, hidden), hidden)
    return ClassificationHead(w1, np.zeros((pair, hidden)),
                              w2, np.zeros((pair, n_clusters)))


def init_params(d_in_audio, d_in_text, d_emb=16, seed=0):
    """Seed-deterministic fan-in uniform encoders without heads; biases
    start at zero.  Encoders past core._ALLOC_BYTES are a ConfigError."""
    for name, dim in (("d_in_audio", d_in_audio), ("d_in_text", d_in_text)):
        if dim < 1:
            raise ConfigError(f"{name} must be >= 1, got {dim}")
    if d_emb < 2:
        raise ConfigError(f"d_emb must be >= 2, got {d_emb}")
    _check_alloc(8 * d_emb * (d_in_audio + d_in_text + 2), f"d_emb {d_emb}",
                 "model")
    rng = _rng(seed)
    audio_enc = LinearEncoder(_uniform_fanin(rng, (d_emb, d_in_audio), d_in_audio),
                              np.zeros(d_emb), "audio")
    text_enc = LinearEncoder(_uniform_fanin(rng, (d_emb, d_in_text), d_in_text),
                             np.zeros(d_emb), "text")
    return ModelParams(audio_enc, text_enc)


def _embed(encoder, x, out=None):
    """x @ W.T + b for a float64 feature matrix x of the encoder's width,
    written into `out` if given.

    The one affine map: `encode` and the training forward both call it,
    the forward into its half of one (2, n, d_emb) array of both towers.
    """
    if x.shape[1] != encoder.d_in:
        raise ContractError(
            f"{encoder.modality} encoder expects width {encoder.d_in}, "
            f"got {x.shape[1]}")
    out = np.matmul(x, encoder.weight.T, out=out)
    out += encoder.bias
    return out


def encode(encoder, feats):
    """Row-wise affine map of a feature batch into the embedding space."""
    return _embed(encoder, as_matrix(feats, "features"))


def _head_forward(heads, emb):
    """(pre, hidden, logits) of W2 relu(W1 e + b1) + b2, each (2, n, .),
    for the ClassificationHead pair `heads` on the (2, n, d) embeddings
    emb, audio head on emb[0] and text head on emb[1]: the one head
    forward, which the training loss runs as one stacked pass."""
    if emb.shape[-1] != heads.d_emb:
        raise ContractError(
            f"classification head expects width {heads.d_emb}, "
            f"got {emb.shape[-1]}")
    pre = np.matmul(emb, heads.w1.transpose(0, 2, 1))
    pre += heads.b1[:, None]
    hidden = np.maximum(pre, 0.0)
    logits = np.matmul(hidden, heads.w2.transpose(0, 2, 1))
    logits += heads.b2[:, None]
    return pre, hidden, logits
