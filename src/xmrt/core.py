"""Dense-matrix primitives the rest of the engine builds on.

Cosine similarity between embedding batches and the temperature softmax
forward that every loss shares.  `_unit_rows` is the one embedding
normalizer, with the overflow and zero-norm checks: evaluation, teacher
targets and the training forward all normalize through it.  Everything
is float64 and pure: no function here mutates its inputs.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, ContractError, DataError

_ALLOC_BYTES = 1 << 29    # the most one config-sized allocation may take


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


def _as_equal_shape_matrices(values, name):
    """as_matrix of each item ("<name> <i>"); all must share one shape."""
    mats = [as_matrix(v, f"{name} {i}") for i, v in enumerate(values)]
    for i, mat in enumerate(mats[1:], start=1):
        if mat.shape != mats[0].shape:
            raise ContractError(f"{name} {i} has shape {mat.shape}, "
                                f"expected {mats[0].shape}")
    return mats


def _check_alloc(nbytes, who, what):
    """Raise ConfigError if the nbytes that setting `who` asks for its
    `what` pass _ALLOC_BYTES, so that it fails before it allocates."""
    if nbytes > _ALLOC_BYTES:
        raise ConfigError(f"{who} needs a {nbytes}-byte {what}, over the "
                          f"{_ALLOC_BYTES}-byte limit")


def _rng(seed, *stream):
    """numpy Generator seeded from [seed, *stream]; seed must be >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng([seed, *stream])


def _unit_rows(raw, modality):
    """(raw / norm, norm) with norm the (n, 1) column of row norms.

    The one embedding normalizer: cosine similarity and the training
    forward both divide by it.  A norm that overflows to inf or nan, or
    that is zero, raises DataError naming the modality and the first bad
    row.  Callers enter np.errstate(over="ignore", invalid="ignore")
    once around their whole forward, since that error reports what
    numpy's overflow warnings would.
    """
    norm = np.linalg.norm(raw, axis=1, keepdims=True)
    # Norms are >= 0 or nan, and nan fails `< inf` too.
    if not norm.max(initial=0.0) < np.inf:
        row = np.flatnonzero(~(norm[:, 0] < np.inf))[0]
        raise DataError("an embedding norm overflowed to a non-finite "
                        f"value at {modality} row {row}")
    if norm.min(initial=np.inf) == 0.0:
        row = np.flatnonzero(norm[:, 0] == 0.0)[0]
        raise DataError(f"an embedding collapsed to zero norm at {modality} "
                        f"row {row}; cosine similarity is undefined")
    return raw / norm, norm


def cosine_similarity_matrix(audio_emb, text_emb):
    """Pairwise cosine similarities, audio rows by caption columns.

    Entry (i, j) is the dot product of the i-th audio embedding and the
    j-th text embedding after unit-normalizing both.  Raises DataError
    naming the modality and row if any row's norm is zero or overflows.
    """
    a = as_matrix(audio_emb, "audio embeddings")
    c = as_matrix(text_emb, "text embeddings")
    if a.shape[1] != c.shape[1]:
        raise ContractError(f"embedding widths differ: audio {a.shape[1]} "
                            f"vs text {c.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        sim = _unit_rows(a, "audio")[0] @ _unit_rows(c, "text")[0].T
    return np.clip(sim, -1.0, 1.0, out=sim)


def _softmax_forward(z, axis, shifted=None, out=None):
    """(shifted, log s, q) of softmax(z) along `axis` from one max-shift
    and one exp: q = exp(shifted) / s and log q = shifted - log s.

    The single softmax forward of the package: every loss and its
    gradient read their probabilities and log-probabilities from here,
    and the soft cluster memberships their probabilities.  `shifted` and
    `out` receive the shifted logits and q if given; one array, even z,
    as both keeps q alone.
    """
    np_axis = axis.np_axis
    shifted = np.subtract(z, z.max(axis=np_axis, keepdims=True), out=shifted)
    q = np.exp(shifted, out=out)
    s = q.sum(axis=np_axis, keepdims=True)
    q /= s
    return shifted, np.log(s), q


def softmax_with_temperature(logits, tau, axis):
    """Temperature softmax along the chosen axis, max-shifted for stability."""
    if not 0 < tau < np.inf:   # nan fails both comparisons
        raise ConfigError(f"temperature must be finite and > 0, got {tau}")
    z = as_matrix(logits, "logits") / tau
    return _softmax_forward(z, axis, z, z)[2]
