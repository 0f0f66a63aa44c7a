"""Trainable dual encoders and cluster-classification heads.

Each encoder is a single affine map from precomputed modality features to
the shared embedding space (embeddings are normalized later, inside cosine
similarity).  Classification heads are two linear layers with a ReLU in
between; the hidden width is structurally three times the embedding width.
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
_HEAD_TENSORS = tuple(f"{m}_head.{p}" for m in MODALITIES
                      for p in ("w1", "b1", "w2", "b2"))


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
    """Two linear layers with a ReLU, projecting embeddings to K cluster logits."""

    w1: np.ndarray           # (3*d_emb, d_emb)
    b1: np.ndarray           # (3*d_emb,)
    w2: np.ndarray           # (K, 3*d_emb)
    b2: np.ndarray           # (K,)

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise ContractError("head parameters have wrong ranks")
        d_emb = w1.shape[1]
        hidden = w1.shape[0]
        if hidden != HEAD_WIDTH_FACTOR * d_emb:
            raise ContractError(
                f"head hidden width must be exactly {HEAD_WIDTH_FACTOR}x the "
                f"embedding width; got {hidden} for width {d_emb}")
        if b1.shape[0] != hidden or w2.shape[1] != hidden:
            raise ContractError("head layer widths disagree")
        if b2.shape[0] != w2.shape[0]:
            raise ContractError("head output widths disagree")
        _check_finite("head", w1, b1, w2, b2)
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, arr)

    @property
    def d_emb(self):
        return self.w1.shape[1]

    @property
    def n_clusters(self):
        return self.w2.shape[0]

    def named_tensors(self):
        """Ordered name -> array of the four layers' tensors."""
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass(frozen=True)
class ModelParams:
    """All trainable parameters of one dual-encoder model."""

    audio_encoder: LinearEncoder
    text_encoder: LinearEncoder
    audio_head: Optional[ClassificationHead] = None
    text_head: Optional[ClassificationHead] = None

    def __post_init__(self):
        if self.audio_encoder.d_out != self.text_encoder.d_out:
            raise ContractError("encoders must share the embedding width")
        if (self.audio_head is None) != (self.text_head is None):
            raise ContractError("heads must be present for both modalities "
                                "or neither")
        if self.audio_head is not None:
            d_emb = self.audio_encoder.d_out
            for head in (self.audio_head, self.text_head):
                if head.d_emb != d_emb:
                    raise ContractError("head width does not match encoders")
            if self.audio_head.n_clusters != self.text_head.n_clusters:
                raise ContractError("heads must share the cluster count")

    @property
    def d_emb(self):
        return self.audio_encoder.d_out

    @property
    def has_heads(self):
        return self.audio_head is not None

    @property
    def n_clusters(self):
        return self.audio_head.n_clusters if self.has_heads else None

    def named_tensors(self):
        """Ordered name -> array view of every parameter: the encoders,
        then the audio head's and the text head's equal-sized blocks."""
        names = _ENCODER_TENSORS
        arrays = [self.audio_encoder.weight, self.audio_encoder.bias,
                  self.text_encoder.weight, self.text_encoder.bias]
        if self.has_heads:
            names += _HEAD_TENSORS
            for head in (self.audio_head, self.text_head):
                arrays += head.named_tensors().values()
        return dict(zip(names, arrays))

    def with_tensors(self, tensors):
        """Rebuild ModelParams from a name -> array mapping."""
        return _params_from_tensors(tensors, self.has_heads)

    def with_heads(self, audio_head, text_head):
        return replace(self, audio_head=audio_head, text_head=text_head)


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
    audio_head = text_head = None
    if has_heads:
        audio_head, text_head = (
            ClassificationHead(tensors[f"{m}_head.w1"], tensors[f"{m}_head.b1"],
                               tensors[f"{m}_head.w2"], tensors[f"{m}_head.b2"])
            for m in MODALITIES)
    return ModelParams(audio_enc, text_enc, audio_head, text_head)


def _flat_views(tensors, flat):
    """Name -> view of the last axis of `flat`, laid out in the order and
    shapes of the name -> array mapping `tensors`, behind flat's leading
    axes; the one owner of the flat layout.

    A model's gradient vector takes params.named_tensors(); its two
    heads' blocks, last and equal-sized, reshaped to (2, block) take one
    head's named_tensors() and give (2, ...) views, audio then text.
    """
    views, start = {}, 0
    for name, tensor in tensors.items():
        views[name] = flat[..., start:start + tensor.size].reshape(
            flat.shape[:-1] + tensor.shape)
        start += tensor.size
    return views


def _stack_heads(heads):
    """Name -> (m, ...) copy of each head tensor of the m `heads`, stacked
    in order: the parameters of one stacked _head_forward."""
    tensors = [head.named_tensors() for head in heads]
    return {name: np.array([t[name] for t in tensors]) for name in tensors[0]}


def _uniform_fanin(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_heads(d_emb, n_clusters, seed=0):
    """Fresh classification heads (audio, text) with fan-in uniform init.

    The one head constructor: heads join a model through
    ModelParams.with_heads.  Draw order is audio head then text head,
    w1 before w2; biases start at zero.
    """
    if d_emb < 2:
        raise ConfigError(f"d_emb must be >= 2, got {d_emb}")
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    rng = _rng(seed)
    hidden = HEAD_WIDTH_FACTOR * d_emb
    heads = []
    for _ in MODALITIES:
        w1 = _uniform_fanin(rng, (hidden, d_emb), d_emb)
        w2 = _uniform_fanin(rng, (n_clusters, hidden), hidden)
        heads.append(ClassificationHead(w1, np.zeros(hidden),
                                        w2, np.zeros(n_clusters)))
    return tuple(heads)


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
    """(pre, hidden, logits) of W2 relu(W1 e + b1) + b2, each (m, n, .),
    for the m stacked heads `heads` (from _stack_heads) on the (m, n, d)
    embeddings emb, head i on emb[i].

    The one head forward: the training loss runs both towers' heads in
    it as one stacked pass.
    """
    w1 = heads["w1"]
    if emb.shape[-1] != w1.shape[-1]:
        raise ContractError(
            f"classification head expects width {w1.shape[-1]}, "
            f"got {emb.shape[-1]}")
    pre = np.matmul(emb, w1.transpose(0, 2, 1))
    pre += heads["b1"][:, None]
    hidden = np.maximum(pre, 0.0)
    logits = np.matmul(hidden, heads["w2"].transpose(0, 2, 1))
    logits += heads["b2"][:, None]
    return pre, hidden, logits
