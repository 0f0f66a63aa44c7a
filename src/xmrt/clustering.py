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


def _screen_bound(r, scale):
    """Proved bound on |g - d| in _balls (derivation in CHANGES.md)."""
    return (6 * r + 16) * 2.0 ** -53 * scale + 4 * r * math.ulp(0.0)


def _balls(x, left, right, index, r2):
    """Row blocks of d <= r2, d = ((x_i - x_j) ** 2).sum(), for i in index;
    g = left_i.right_j decides where rounding cannot put it across r2."""
    rows = max(1, _NEIGHBORHOOD_BLOCK_BYTES // max(1, x.nbytes))
    for at in (index[i:i + rows] for i in range(0, len(index), rows)):
        reach = math.sqrt(left[at, -2].max()) + math.sqrt(left[:, -2].max())
        g = (left[at] @ right.T if reach < 1e153   # else it could overflow,
             else np.full((len(at), len(x)), r2))   # and d decides all
        tol = _screen_bound(x.shape[1], reach * reach)
        within = g <= np.nextafter(r2 + tol, math.inf)
        unsure = within & (g > np.nextafter(r2 - tol, -math.inf))
        i, j = np.unravel_index(np.flatnonzero(unsure), within.shape)
        with np.errstate(over="ignore"):
            d = ((x[at][i] - x[j]) ** 2).sum(axis=-1)
        if not np.isfinite(d).all():
            raise DataError("squared distances between points overflowed; "
                            "the points are too large to cluster")
        within[i, j] = d <= r2
        yield within


def density_cluster(points, cfg):
    """Radius-density clustering; sparse points come back as OUTLIER.

    A point seeds or extends a cluster when its closed radius ball (the
    point itself included) holds at least min_cluster_size points.
    Clusters are grown breadth-first from such core points in index
    order, so ids are numbered by first appearance; boundary points join
    the first cluster that reaches them.  Two screened passes of _balls
    count the balls and grow clusters a level at a time: decisions are
    exact, and memory is O(block rows x n) with no n x n array.
    """
    x = as_matrix(points, "points")
    n = x.shape[0]
    if n < cfg.min_cluster_size:
        raise DataError(
            f"{n} points cannot meet min_cluster_size "
            f"{cfg.min_cluster_size}")
    r2 = cfg.neighborhood_radius ** 2
    with np.errstate(over="ignore"):   # inf sends _balls exact
        sq, ones = (x * x).sum(axis=1, keepdims=True), np.ones((n, 1))
        left, right = np.hstack([x, sq, ones]), np.hstack([-2 * x, ones, sq])
    is_core = np.concatenate([np.count_nonzero(w, axis=1) for w in _balls(
        x, left, right, np.arange(n), r2)]) >= cfg.min_cluster_size
    labels = np.full(n, OUTLIER, dtype=np.int64)
    k = 0
    while (seeds := np.flatnonzero(is_core & (labels == OUTLIER))).size:
        # A seed reaches the same unlabelled points through core points
        # in any visit order, so each frontier level is taken at once.
        frontier = seeds[:1]    # its first level labels the seed itself
        while frontier.size:
            reached = np.zeros(n, dtype=bool)
            for within in _balls(x, left, right, frontier, r2):
                reached |= within.any(axis=0)
            reached &= labels == OUTLIER
            labels[reached] = k
            frontier = np.flatnonzero(reached & is_core)
        k += 1
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


def build_pseudo_labels(assignment, caption_to_audio):
    """Carry caption clusters over to their paired audio items; returns
    (audio_labels, audio_probabilities).

    caption_to_audio[i] is the audio index caption i describes.  With
    several captions on one audio the audio takes the majority label,
    ties resolving to the lowest label id, and the mean of their topic
    probabilities.  Both sums run in caption order.  Every audio item up
    to the largest index must receive at least one caption.
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
    votes = np.zeros((n_audio, assignment.k), dtype=np.int64)
    np.add.at(votes, (pairing, cap_labels), 1)
    counts = votes.sum(axis=1)
    if not counts.all():
        raise DataError(
            f"audio item {int(counts.argmin())} has no paired caption")
    probs = np.zeros((n_audio, assignment.k))
    np.add.at(probs, pairing, assignment.probabilities)
    return votes.argmax(axis=1), probs / probs.sum(axis=1, keepdims=True)


def cluster_pipeline(embeddings, cfg):
    """Reduce, density-cluster, and reassign in one deterministic pass."""
    reduced = reduce_dimensionality(embeddings, cfg.reduced_dim)
    raw = density_cluster(reduced, cfg)
    if raw.k < 1:
        raise DataError(
            "density step found no cluster; rerun with a larger "
            "neighborhood_radius or smaller min_cluster_size")
    return reassign_outliers(raw, reduced)
