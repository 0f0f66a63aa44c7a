"""Pseudo-label construction: reduction, density clustering, reassignment.

Caption embeddings are projected onto their top principal directions,
grouped by a radius-density rule (clusters grow outward from points whose
neighborhood is dense enough), and leftover outliers are folded into the
nearest cluster by a softmax over negative centroid distances.  The
resulting labels supervise the auxiliary classification heads; a pairing
map carries each caption's label over to its audio clip.

Every step is deterministic for a fixed input order, so pseudo-labels are
reproducible without any stored state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import ConfigError, ContractError, DataError

OUTLIER = -1
_NEIGHBORHOOD_BLOCK_BYTES = 32 << 20    # per row block of differences


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the reduction and density steps (which draw nothing random)."""

    neighborhood_radius: float
    reduced_dim: int = 5
    min_cluster_size: int = 5

    def __post_init__(self):
        if self.reduced_dim < 1:
            raise ConfigError("reduced_dim must be >= 1")
        if self.min_cluster_size < 2:
            raise ConfigError("min_cluster_size must be >= 2")
        if self.neighborhood_radius <= 0:
            raise ConfigError(
                f"neighborhood_radius must be positive, "
                f"got {self.neighborhood_radius}")
        if not math.isfinite(self.neighborhood_radius
                             * self.neighborhood_radius):
            raise ConfigError(
                f"neighborhood_radius {self.neighborhood_radius} has no "
                f"finite square")


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-point labels with soft topic probabilities and centroids.

    labels holds a cluster id in [0, k) or OUTLIER per point.
    probabilities is n x k, each row a distribution over clusters
    (softmax of negative centroid distances).  centroids is k x r in the
    reduced space.  k may be zero straight out of the density step when
    nothing was dense enough.
    """

    labels: np.ndarray
    probabilities: np.ndarray
    k: int
    centroids: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        cents = np.asarray(self.centroids, dtype=np.float64)
        if lab.ndim != 1:
            raise ContractError("labels must be 1-D")
        if probs.shape != (lab.shape[0], self.k):
            raise ContractError(
                f"probabilities shape {probs.shape}, expected "
                f"{(lab.shape[0], self.k)}")
        if cents.ndim != 2 or cents.shape[0] != self.k:
            raise ContractError(
                f"centroids shape {cents.shape} does not match k={self.k}")
        valid = (lab == OUTLIER) | ((lab >= 0) & (lab < self.k))
        if not valid.all():
            raise ContractError("labels must lie in [0, k) or be OUTLIER")
        if self.k > 0 and lab.size:
            sums = probs.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-6:
                raise ContractError("probability rows must sum to 1")
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "centroids", cents)

    @property
    def n_outliers(self):
        return int((self.labels == OUTLIER).sum())


def reduce_dimensionality(embeddings, reduced_dim):
    """Project centered data onto its top principal directions.

    Directions are ordered by descending variance; each direction's sign
    is fixed so its largest-magnitude loading is positive, making the
    projection deterministic across runs and platforms.
    """
    x = as_matrix(embeddings, "embeddings")
    n, d = x.shape
    if not 1 <= reduced_dim <= min(n, d):
        raise ConfigError(
            f"reduced_dim {reduced_dim} outside [1, {min(n, d)}] "
            f"for {n}x{d} data")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    vt = vt[:reduced_dim]
    flips = np.where(
        vt[np.arange(vt.shape[0]), np.abs(vt).argmax(axis=1)] < 0, -1.0, 1.0)
    return centered @ (vt * flips[:, None]).T


def _soft_probabilities(points, centroids):
    """Softmax over negative euclidean distances to each centroid."""
    if centroids.shape[0] == 0:
        return np.zeros((points.shape[0], 0))
    dists = np.linalg.norm(
        points[:, None, :] - centroids[None, :, :], axis=2)
    scores = -dists
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=1, keepdims=True)


def density_cluster(points, cfg):
    """Radius-density clustering; sparse points come back as OUTLIER.

    A point seeds or extends a cluster when its closed radius ball (the
    point itself included) holds at least min_cluster_size points.
    Clusters are grown breadth-first from such core points in index
    order, so ids are numbered by first appearance; boundary points join
    the first cluster that reaches them.
    """
    x = as_matrix(points, "points")
    n = x.shape[0]
    if n < cfg.min_cluster_size:
        raise DataError(
            f"{n} points cannot meet min_cluster_size "
            f"{cfg.min_cluster_size}")
    # Row blocks bound the n x rows x r difference array; each distance
    # is reduced exactly as over the whole array, so labels do not move.
    within = np.empty((n, n), dtype=bool)
    rows = max(1, _NEIGHBORHOOD_BLOCK_BYTES // max(1, x.nbytes))
    for i in range(0, n, rows):
        with np.errstate(over="ignore"):
            d2 = ((x[i:i + rows, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        if not np.isfinite(d2.max()):
            raise DataError("squared distances between points overflowed; "
                            "the points are too large to cluster")
        within[i:i + rows] = d2 <= cfg.neighborhood_radius ** 2
    is_core = within.sum(axis=1) >= cfg.min_cluster_size
    labels = np.full(n, OUTLIER, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if not is_core[start] or labels[start] != OUTLIER:
            continue
        labels[start] = next_label
        frontier = deque([start])
        while frontier:
            point = frontier.popleft()
            for neighbor in np.flatnonzero(within[point]):
                if labels[neighbor] != OUTLIER:
                    continue
                labels[neighbor] = next_label
                if is_core[neighbor]:
                    frontier.append(neighbor)
        next_label += 1
    k = next_label
    if k > 0:
        centroids = np.stack([x[labels == c].mean(axis=0) for c in range(k)])
    else:
        centroids = np.zeros((0, x.shape[1]))
    return ClusterAssignment(labels=labels,
                             probabilities=_soft_probabilities(x, centroids),
                             k=k, centroids=centroids)


def reassign_outliers(assignment, points):
    """Fold every OUTLIER into its most probable cluster.

    Each outlier takes the argmax of softmax(-distance to each centroid);
    ties break toward the lowest cluster id.  Probabilities are refreshed
    for all points and no OUTLIER labels remain.
    """
    x = as_matrix(points, "points")
    if x.shape[0] != assignment.labels.shape[0]:
        raise ContractError(
            f"{x.shape[0]} points for {assignment.labels.shape[0]} labels")
    if assignment.k < 1:
        raise DataError(
            "no clusters to reassign outliers into; rerun with a larger "
            "neighborhood_radius or smaller min_cluster_size")
    probs = _soft_probabilities(x, assignment.centroids)
    labels = assignment.labels.copy()
    outliers = labels == OUTLIER
    labels[outliers] = probs[outliers].argmax(axis=1)
    return ClusterAssignment(labels=labels, probabilities=probs,
                             k=assignment.k, centroids=assignment.centroids)


@dataclass(frozen=True)
class PseudoLabels:
    """Cluster labels for both modalities, aligned with item order."""

    caption_labels: np.ndarray
    audio_labels: np.ndarray
    k: int

    def __post_init__(self):
        cap = np.asarray(self.caption_labels, dtype=np.int64)
        aud = np.asarray(self.audio_labels, dtype=np.int64)
        for name, lab in (("caption", cap), ("audio", aud)):
            if lab.ndim != 1:
                raise ContractError(f"{name} labels must be 1-D")
            if lab.size and (lab.min() < 0 or lab.max() >= self.k):
                raise ContractError(f"{name} labels must lie in [0, k)")
        object.__setattr__(self, "caption_labels", cap)
        object.__setattr__(self, "audio_labels", aud)


def build_pseudo_labels(assignment, caption_to_audio):
    """Carry caption cluster labels over to their paired audio items.

    caption_to_audio[i] is the audio index caption i describes.  With
    several captions on one audio the audio takes the majority label,
    ties resolving to the lowest label id.  Every audio item up to the
    largest index must receive at least one caption.
    """
    pairing = np.asarray(caption_to_audio, dtype=np.int64)
    cap_labels = assignment.labels
    if pairing.ndim != 1 or pairing.shape != cap_labels.shape:
        raise ContractError(
            f"pairing shape {pairing.shape} does not match "
            f"{cap_labels.shape} caption labels")
    if np.any(cap_labels == OUTLIER):
        raise DataError("reassign outliers before building pseudo labels")
    if pairing.size == 0:
        raise DataError("no captions to pair")
    if pairing.min() < 0:
        raise DataError(f"caption {int((pairing < 0).argmax())} is unpaired")
    n_audio = int(pairing.max()) + 1
    audio_labels = np.empty(n_audio, dtype=np.int64)
    for a in range(n_audio):
        votes = cap_labels[pairing == a]
        if votes.size == 0:
            raise DataError(f"audio item {a} has no paired caption")
        audio_labels[a] = np.bincount(votes, minlength=assignment.k).argmax()
    return PseudoLabels(caption_labels=cap_labels.copy(),
                        audio_labels=audio_labels, k=assignment.k)


def cluster_pipeline(embeddings, cfg):
    """Reduce, density-cluster, and reassign in one deterministic pass."""
    reduced = reduce_dimensionality(embeddings, cfg.reduced_dim)
    raw = density_cluster(reduced, cfg)
    if raw.k < 1:
        raise DataError(
            "density step found no cluster; rerun with a larger "
            "neighborhood_radius or smaller min_cluster_size")
    return reassign_outliers(raw, reduced)
