"""Dense-matrix primitives the rest of the engine builds on.

Cosine similarity between embedding batches and the temperature softmax
forward that every loss shares.  Everything is float64 and pure: no
function here mutates its inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, DataError


class Axis(enum.Enum):
    """Which slices of a matrix form probability distributions."""

    ROWS = "rows"          # each row sums to 1
    COLUMNS = "columns"    # each column sums to 1

    @property
    def np_axis(self):
        return 1 if self is Axis.ROWS else 0


def as_matrix(values, name="matrix"):
    """Coerce to a finite 2-D float64 array; raise DataError otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class VectorBatch:
    """A batch of feature or embedding vectors with optional item ids."""

    values: np.ndarray                       # (n, width) float64
    ids: Optional[tuple] = None              # per-row item ids

    def __post_init__(self):
        arr = as_matrix(self.values, "batch values")
        object.__setattr__(self, "values", arr)
        if self.ids is not None:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != arr.shape[0]:
                raise ContractError(
                    f"got {len(ids)} ids for {arr.shape[0]} rows")
            object.__setattr__(self, "ids", ids)

    def __len__(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    def id_of(self, row):
        if self.ids is not None:
            return self.ids[row]
        return f"row {row}"


def _coerce_batch(batch, name):
    if isinstance(batch, VectorBatch):
        return batch
    return VectorBatch(as_matrix(batch, name))


def cosine_similarity_matrix(audio_emb, text_emb):
    """Pairwise cosine similarities, audio rows by caption columns.

    Entry (i, j) is the dot product of the i-th audio embedding and the
    j-th text embedding after unit-normalizing both.  Raises DataError
    naming the offending item if any row has zero norm.
    """
    a = _coerce_batch(audio_emb, "audio embeddings")
    c = _coerce_batch(text_emb, "text embeddings")
    if a.width != c.width:
        raise ContractError(
            f"embedding widths differ: audio {a.width} vs text {c.width}")
    for batch, label in ((a, "audio"), (c, "text")):
        norms = np.linalg.norm(batch.values, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(
                f"{label} item {batch.id_of(zero[0])!r} has a zero-norm "
                "embedding; cosine similarity is undefined")
    a_hat = a.values / np.linalg.norm(a.values, axis=1, keepdims=True)
    c_hat = c.values / np.linalg.norm(c.values, axis=1, keepdims=True)
    return np.clip(a_hat @ c_hat.T, -1.0, 1.0)


def _softmax_forward(z, axis):
    """(log q, q) of softmax(z) along `axis` from one max-shift and one exp.

    The single softmax forward of the package: the contrastive,
    distillation and classification losses and their gradients all read
    their probabilities and log-probabilities from here.
    """
    np_axis = axis.np_axis
    shifted = z - z.max(axis=np_axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=np_axis, keepdims=True)
    return shifted - np.log(s), e / s


def softmax_with_temperature(logits, tau, axis):
    """Temperature softmax along the chosen axis, max-shifted for stability."""
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    return _softmax_forward(as_matrix(logits, "logits") / tau, axis)[1]
