"""Tests for reduction, density clustering, and pseudo-label building."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from xmrt import (ClusterAssignment, ClusterConfig, ConfigError,
                  ContractError, DataError, OUTLIER, build_pseudo_labels,
                  cluster_pipeline, density_cluster, reassign_outliers,
                  reduce_dimensionality)
from xmrt import clustering
from xmrt.core import Axis, _softmax_forward


def _blobs(centers, per_blob=30, sigma=0.1, seed=0, dim=2):
    """Gaussian blobs around the given centers; returns points and labels."""
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for label, center in enumerate(centers):
        c = np.zeros(dim)
        c[:len(center)] = center
        points.append(c + sigma * rng.standard_normal((per_blob, dim)))
        labels.extend([label] * per_blob)
    return np.vstack(points), np.array(labels)


def _reference_density_cluster(points, cfg):
    """The distance-block and deque-BFS density_cluster that the screened
    one must match bit for bit: every distance is the summed squared
    difference, and each popped core point scans its full row."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    within = np.empty((n, n), dtype=bool)
    rows = max(1, (32 << 20) // max(1, x.nbytes))
    for i in range(0, n, rows):
        with np.errstate(over="ignore"):
            d2 = ((x[i:i + rows, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert np.isfinite(d2.max())
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
    return ClusterAssignment(
        labels=labels, n_outliers=int((labels == OUTLIER).sum()),
        probabilities=clustering._soft_probabilities(x, centroids))


def _assert_same_assignment(got, expected):
    assert got.k == expected.k
    assert got.n_outliers == expected.n_outliers
    assert got.labels.tobytes() == expected.labels.tobytes()
    assert got.probabilities.tobytes() == expected.probabilities.tobytes()


class TestReduceDimensionality:
    def test_two_points_keep_their_distance(self):
        x = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        out = reduce_dimensionality(x, 1)
        assert out.shape == (2, 1)
        np.testing.assert_allclose(abs(out[0, 0] - out[1, 0]), 5.0,
                                   atol=1e-12)

    def test_lossless_when_data_lives_in_a_subspace(self):
        # 40 points in a planted 3-dim subspace of R^10: keeping 3
        # directions must preserve all pairwise distances
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 3))
        x = z @ rng.standard_normal((3, 10))
        out = reduce_dimensionality(x, 3)
        orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        red = np.linalg.norm(out[:, None] - out[None, :], axis=2)
        np.testing.assert_allclose(red, orig, atol=1e-9)

    def test_captured_variance_matches_eigenvalue_oracle(self):
        # variance of each projected column equals the corresponding
        # eigenvalue of the data covariance, largest first
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 10)) * np.linspace(3.0, 0.5, 10)
        k = 4
        out = reduce_dimensionality(x, k)
        captured = out.var(axis=0, ddof=1)
        eigvals = np.linalg.eigvalsh(np.cov(x.T))[::-1][:k]
        np.testing.assert_allclose(captured, eigvals, atol=1e-8)

    def test_columns_ordered_by_variance(self):
        rng = np.random.default_rng(3)
        out = reduce_dimensionality(rng.standard_normal((30, 6)), 4)
        variances = out.var(axis=0)
        assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((25, 5))
        a = reduce_dimensionality(x, 3)
        b = reduce_dimensionality(x.copy(), 3)
        np.testing.assert_array_equal(a, b)

    def test_projection_is_centered(self):
        rng = np.random.default_rng(5)
        out = reduce_dimensionality(rng.standard_normal((20, 4)) + 7.0, 2)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)

    def test_reduced_dim_bounds(self):
        x = np.random.default_rng(0).standard_normal((10, 4))
        with pytest.raises(ConfigError, match="reduced_dim"):
            reduce_dimensionality(x, 5)
        with pytest.raises(ConfigError, match="reduced_dim"):
            reduce_dimensionality(x, 0)


class TestDensityCluster:
    def test_three_blobs_are_found_exactly(self):
        points, truth = _blobs([(0, 0), (10, 0), (5, 10 * 3 ** 0.5 / 2)],
                               per_blob=30, sigma=0.1)
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                            min_cluster_size=5)
        assignment = density_cluster(points, cfg)
        assert assignment.k == 3
        # purity: every found cluster maps onto exactly one true blob
        for c in range(3):
            members = truth[assignment.labels == c]
            assert members.size > 0 and len(set(members.tolist())) == 1

    def test_all_identical_points_form_one_cluster(self):
        points = np.zeros((10, 3))
        cfg = ClusterConfig(neighborhood_radius=0.5, min_cluster_size=5)
        assignment = density_cluster(points, cfg)
        assert assignment.k == 1
        assert assignment.n_outliers == 0
        np.testing.assert_array_equal(assignment.labels, np.zeros(10))

    def test_far_point_is_an_outlier(self):
        points, _ = _blobs([(0, 0)], per_blob=12, sigma=0.05)
        points = np.vstack([points, [[100.0, 100.0]]])
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=5)
        assignment = density_cluster(points, cfg)
        assert assignment.labels[-1] == OUTLIER
        assert assignment.n_outliers == 1
        assert assignment.k == 1

    def test_cluster_ids_numbered_by_first_appearance(self):
        points, _ = _blobs([(0, 0), (50, 0)], per_blob=6, sigma=0.01)
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=3)
        assignment = density_cluster(points, cfg)
        assert assignment.labels[0] == 0
        assert assignment.labels[6] == 1

    def test_probability_rows_sum_to_one(self):
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=10)
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=4)
        assignment = density_cluster(points, cfg)
        np.testing.assert_allclose(assignment.probabilities.sum(axis=1),
                                   1.0, atol=1e-12)
        assert assignment.probabilities.shape == (20, assignment.k)

    def test_sparse_data_can_yield_zero_clusters(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0],
                           [10.0, 10.0], [5.0, 5.0]])
        cfg = ClusterConfig(neighborhood_radius=0.5, min_cluster_size=2)
        assignment = density_cluster(points, cfg)
        assert assignment.k == 0
        assert assignment.n_outliers == 5
        assert assignment.probabilities.shape == (5, 0)

    @pytest.mark.parametrize("dim", [5, 9])   # numpy sums r >= 8 pairwise
    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_blocks_give_the_same_result(self, monkeypatch, dim, rows):
        points, _ = _blobs([(0, 0), (3, 0), (0, 3)], per_blob=16,
                           sigma=0.6, dim=dim)
        points = np.vstack([points, [[9.0] * dim, [-9.0] * dim]])
        cfg = ClusterConfig(neighborhood_radius=0.6 * dim ** 0.5,
                            reduced_dim=dim, min_cluster_size=4)
        whole = density_cluster(points, cfg)
        # 50 points: 7-row blocks end on a partial block of one row.
        monkeypatch.setattr(clustering, "_NEIGHBORHOOD_BLOCK_BYTES",
                            rows * points.nbytes)
        blocked = density_cluster(points, cfg)
        assert whole.k >= 2 and whole.n_outliers >= 2
        assert blocked.k == whole.k
        assert blocked.labels.tobytes() == whole.labels.tobytes()
        assert blocked.n_outliers == whole.n_outliers
        assert (blocked.probabilities.tobytes()
                == whole.probabilities.tobytes())

    @pytest.mark.parametrize("bound", ["proved", "infinite"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("dim", range(1, 10))  # pairwise sums from 8
    def test_screen_matches_the_reference(self, monkeypatch, bound, offset,
                                          dim):
        # Lattice points 0.1 apart put many pairs exactly on the radius
        # (up to rounding); a large offset makes the GEMM form cancel.
        if bound == "infinite":   # every entry takes the exact path
            monkeypatch.setattr(clustering, "_screen_bound",
                                lambda r, scale: math.inf)
        rng = np.random.default_rng(dim)
        points = offset + 0.1 * rng.integers(0, max(2, 7 - dim), (160, dim))
        for squares in (1, 2, 3):
            cfg = ClusterConfig(neighborhood_radius=0.1 * squares ** 0.5,
                                reduced_dim=dim, min_cluster_size=4)
            _assert_same_assignment(density_cluster(points, cfg),
                                    _reference_density_cluster(points, cfg))

    @pytest.mark.filterwarnings("error")
    def test_large_coordinates_with_small_differences_cluster(self):
        # |x|^2 overflows, so the GEMM form cannot screen; the exact
        # differences are finite and decide as the reference does
        blobs, _ = _blobs([(0, 0), (4, 0)], per_blob=12, sigma=0.4)
        points = 1e155 + 1e141 * blobs
        cfg = ClusterConfig(neighborhood_radius=1e141, reduced_dim=2,
                            min_cluster_size=4)
        got = density_cluster(points, cfg)
        assert got.k >= 2
        _assert_same_assignment(got, _reference_density_cluster(points, cfg))

    def test_dense_radius_stays_within_the_block_budget(self, monkeypatch):
        # every point neighbours every other: an n x n bool matrix would
        # be 16 MB, and a CSR neighbour list 128 MB
        budget = 1 << 20
        monkeypatch.setattr(clustering, "_NEIGHBORHOOD_BLOCK_BYTES", budget)
        points = np.random.default_rng(13).random((4000, 2))
        cfg = ClusterConfig(neighborhood_radius=2.0, reduced_dim=2)
        tracemalloc.start()
        try:
            assignment = density_cluster(points, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert assignment.k == 1 and assignment.n_outliers == 0
        assert peak <= 2 * budget

    def test_too_few_points_rejected(self):
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=5)
        with pytest.raises(DataError, match="min_cluster_size"):
            density_cluster(np.zeros((4, 2)), cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(neighborhood_radius=0.0)
        with pytest.raises(ConfigError):
            ClusterConfig(neighborhood_radius=1.0, reduced_dim=0)
        with pytest.raises(ConfigError):
            ClusterConfig(neighborhood_radius=1.0, min_cluster_size=1)


class TestSoftProbabilities:
    @staticmethod
    def _points(n, k, dim):
        rng = np.random.default_rng(dim)
        return (100.0 * rng.standard_normal((n, dim)),
                rng.standard_normal((k, dim)))

    @pytest.mark.parametrize("dim", [3, 8, 9, 20])   # pairwise sums from 8
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_row_blocks_give_the_unblocked_bytes(self, monkeypatch, dim,
                                                 rows):
        points, centroids = self._points(50, 4, dim)
        logits = -np.linalg.norm(
            points[:, None, :] - centroids[None, :, :], axis=2)
        whole = _softmax_forward(logits, Axis.ROWS, logits, logits)[2]
        if rows is not None:   # 50 rows in 7s end on a one-row block
            monkeypatch.setattr(clustering, "_NEIGHBORHOOD_BLOCK_BYTES",
                                rows * centroids.nbytes)
        got = clustering._soft_probabilities(points, centroids)
        assert got.tobytes() == whole.tobytes()

    def test_peak_stays_within_one_block_beside_the_result(self,
                                                           monkeypatch):
        # the unblocked differences and their squares would take
        # 2 * 4000 * 100 * 16 * 8 bytes, about 98 MiB
        budget = 1 << 20
        monkeypatch.setattr(clustering, "_NEIGHBORHOOD_BLOCK_BYTES", budget)
        points, centroids = self._points(4000, 100, 16)
        tracemalloc.start()
        try:
            probs = clustering._soft_probabilities(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (4000, 100)
        assert peak <= probs.nbytes + 2 * budget


class TestClusterAssignment:
    def test_k_is_the_probability_width(self):
        probs = np.full((3, 4), 0.25)
        assignment = ClusterAssignment(np.array([0, 3, OUTLIER]), probs, 1)
        assert assignment.k == 4
        assert ClusterAssignment(np.full(2, OUTLIER), np.zeros((2, 0)),
                                 2).k == 0

    # at least the OUTLIER labels, at most every point
    @pytest.mark.parametrize("n_outliers", [0, 1, 4])
    def test_n_outliers_outside_its_range_rejected(self, n_outliers):
        labels = np.array([OUTLIER, 0, OUTLIER])
        with pytest.raises(ContractError, match=rf"^n_outliers {n_outliers} "
                                                rf"outside \[2, 3\]"):
            ClusterAssignment(labels, np.full((3, 2), 0.5), n_outliers)

    def test_probabilities_need_one_row_per_label(self):
        with pytest.raises(ContractError, match="probabilities shape"):
            ClusterAssignment(np.array([0, 1]), np.full((3, 2), 0.5), 0)
        with pytest.raises(ContractError, match="probabilities shape"):
            ClusterAssignment(np.array([0, 1]), np.full(2, 0.5), 0)


class TestReassignOutliers:
    def test_no_outliers_is_identity(self):
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=10)
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=4)
        assignment = density_cluster(points, cfg)
        assert assignment.n_outliers == 0
        again = reassign_outliers(assignment)
        np.testing.assert_array_equal(again.labels, assignment.labels)
        assert again.probabilities.tobytes() \
            == assignment.probabilities.tobytes()

    def test_outlier_joins_nearest_centroid(self):
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=10, sigma=0.05)
        probe = np.array([[1.5, 0.0]])  # distance ~1.5 vs ~8.5
        points = np.vstack([points, probe])
        cfg = ClusterConfig(neighborhood_radius=1.0, min_cluster_size=5)
        assignment = density_cluster(points, cfg)
        assert assignment.labels[-1] == OUTLIER
        fixed = reassign_outliers(assignment)
        assert fixed.labels[-1] == assignment.labels[0]
        assert (fixed.labels != OUTLIER).all()
        assert fixed.n_outliers == assignment.n_outliers == 1

    def test_equidistant_tie_takes_lowest_id(self):
        labels = np.array([0, 1, OUTLIER])
        probs = np.array([[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]])
        assignment = ClusterAssignment(labels, probs, 1)
        fixed = reassign_outliers(assignment)
        assert fixed.labels[-1] == 0

    def test_zero_clusters_is_an_error_with_advice(self):
        assignment = ClusterAssignment(
            np.full(4, OUTLIER), np.zeros((4, 0)), 4)
        with pytest.raises(DataError, match="neighborhood_radius"):
            reassign_outliers(assignment)


class TestBuildPseudoLabels:
    def _assignment(self, labels, k=3):
        labels = np.asarray(labels)
        n = labels.shape[0]
        probs = np.full((n, k), 1.0 / k)
        return ClusterAssignment(labels, probs,
                                 int((labels == OUTLIER).sum()))

    def test_one_to_one_pairing_copies_labels(self):
        assignment = self._assignment([2, 0, 1, 2])
        labels, probs = build_pseudo_labels(assignment, [0, 1, 2, 3])
        np.testing.assert_array_equal(labels, [2, 0, 1, 2])
        np.testing.assert_array_equal(probs, assignment.probabilities)

    def test_majority_vote(self):
        # five captions on one audio: labels 2,2,1,0,2 vote 2
        assignment = self._assignment([2, 2, 1, 0, 2])
        labels, _ = build_pseudo_labels(assignment, [0, 0, 0, 0, 0])
        assert labels.tolist() == [2]

    def test_tie_vote_takes_lowest_label(self):
        assignment = self._assignment([1, 1, 0, 0])
        labels, _ = build_pseudo_labels(assignment, [0, 0, 0, 0])
        assert labels.tolist() == [0]

    def test_audio_probabilities_average_captions_in_caption_order(self):
        rng = np.random.default_rng(7)
        n_captions, n_audio, k = 60, 7, 4
        pairing = np.concatenate([np.arange(n_audio), rng.integers(
            0, n_audio, n_captions - n_audio)])
        rng.shuffle(pairing)
        raw = rng.random((n_captions, k)) + 1e-3
        assignment = ClusterAssignment(
            raw.argmax(axis=1), raw / raw.sum(axis=1, keepdims=True), 0)
        labels, probs = build_pseudo_labels(assignment, pairing)
        expected = np.zeros((n_audio, k))
        votes = np.zeros((n_audio, k), dtype=np.int64)
        for cap, audio in enumerate(pairing):
            expected[audio] += assignment.probabilities[cap]
            votes[audio, assignment.labels[cap]] += 1
        expected /= expected.sum(axis=1, keepdims=True)
        assert probs.tobytes() == expected.tobytes()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(labels, votes.argmax(axis=1))

    def test_outliers_must_be_reassigned_first(self):
        assignment = self._assignment([0, OUTLIER, 1])
        with pytest.raises(DataError, match="reassign"):
            build_pseudo_labels(assignment, [0, 1, 2])

    def test_unpaired_audio_rejected(self):
        assignment = self._assignment([0, 1, 2])
        with pytest.raises(DataError, match="no paired caption"):
            build_pseudo_labels(assignment, [0, 0, 2])  # audio 1 skipped

    def test_negative_pairing_rejected(self):
        assignment = self._assignment([0, 1])
        with pytest.raises(DataError, match="unpaired"):
            build_pseudo_labels(assignment, [0, -1])

    def test_pairing_shape_must_match(self):
        assignment = self._assignment([0, 1])
        with pytest.raises(ContractError):
            build_pseudo_labels(assignment, [0])


class TestClusterPipeline:
    def test_blobs_in_high_dimension_recovered(self):
        # blobs planted in 2-D then embedded in R^12 by a random rotation
        points2d, truth = _blobs([(0, 0), (10, 0), (5, 8.7)], per_blob=30,
                                 sigma=0.1, seed=6)
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        embedded = points2d @ basis[:2, :]
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                            min_cluster_size=5)
        assignment = cluster_pipeline(embedded, cfg)
        assert assignment.k == 3
        assert assignment.n_outliers == 0
        for c in range(3):
            members = truth[assignment.labels == c]
            assert len(set(members.tolist())) == 1

    def test_keeps_the_density_steps_outlier_count(self):
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=10, sigma=0.05)
        points = np.vstack([points, [[1.5, 0.0], [5.0, 30.0]]])
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                            min_cluster_size=5)
        dense = density_cluster(reduce_dimensionality(points, 2), cfg)
        assignment = cluster_pipeline(points, cfg)
        assert dense.n_outliers == 2
        assert assignment.n_outliers == dense.n_outliers
        assert (assignment.labels != OUTLIER).all()
        assert (assignment.labels[dense.labels != OUTLIER]
                == dense.labels[dense.labels != OUTLIER]).all()

    def test_deterministic(self):
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=20, sigma=0.2, seed=8)
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                            min_cluster_size=5)
        a = cluster_pipeline(points, cfg)
        b = cluster_pipeline(points.copy(), cfg)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.n_outliers == b.n_outliers

    def test_hopeless_radius_gives_advice(self):
        rng = np.random.default_rng(9)
        spread = rng.uniform(-100.0, 100.0, size=(30, 4))
        cfg = ClusterConfig(neighborhood_radius=0.01, reduced_dim=2,
                            min_cluster_size=5)
        with pytest.raises(DataError, match="larger"):
            cluster_pipeline(spread, cfg)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_distances_are_named(self):
        # the radius is not to blame when the distances themselves overflow
        points, _ = _blobs([(0, 0), (10, 0), (5, 8.7)], seed=12)
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2)
        with pytest.raises(DataError, match="distances between points "
                                            "overflowed"):
            cluster_pipeline(points * 1e160, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [1e200, np.inf, np.nan])
    def test_radius_needs_a_finite_square(self, radius):
        with pytest.raises(ConfigError, match="no finite square"):
            ClusterConfig(neighborhood_radius=radius, reduced_dim=2)

    def test_partition_is_permutation_consistent(self):
        # permuting the input rows permutes the labels as a partition:
        # same groups, possibly different ids
        points, _ = _blobs([(0, 0), (10, 0)], per_blob=15, sigma=0.1, seed=10)
        cfg = ClusterConfig(neighborhood_radius=1.0, reduced_dim=2,
                            min_cluster_size=5)
        base = cluster_pipeline(points, cfg)
        perm = np.random.default_rng(11).permutation(len(points))
        permuted = cluster_pipeline(points[perm], cfg)
        inverse = np.argsort(perm)  # original row r sits at permuted inverse[r]
        for c in range(base.k):
            rows = np.flatnonzero(base.labels == c)
            mapped = permuted.labels[inverse[rows]]
            assert len(set(mapped.tolist())) == 1
