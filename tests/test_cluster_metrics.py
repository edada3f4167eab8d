import numpy as np
import pytest
from itertools import combinations
from scipy.spatial.distance import cdist

from atrellis.cluster_metrics import (_squared_distances, dunn_index, kmeans,
                                      purity)
from atrellis.errors import (BadK, DegenerateDiameter, LengthMismatch,
                             NeedTwoClusters)


def brute_force_dunn(points, labels):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    labels = np.asarray(labels)
    n = len(points)
    max_diam = 0.0
    min_between = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(points[i] - points[j]))
            if labels[i] == labels[j]:
                max_diam = max(max_diam, d)
            else:
                min_between = min(min_between, d)
    return min_between / max_diam


class TestDunnIndex:
    def test_two_tight_clusters(self):
        points = [0.0, 1.0, 10.0, 11.0]
        labels = [0, 0, 1, 1]
        assert dunn_index(points, labels) == pytest.approx(9.0)
        assert dunn_index(points, labels) == pytest.approx(
            brute_force_dunn(points, labels))

    def test_scale_invariance(self):
        points = np.array([0.0, 1.0, 10.0, 11.0])
        labels = [0, 0, 1, 1]
        a = dunn_index(points, labels)
        b = dunn_index(points * 10.0, labels)
        assert abs(a - b) <= 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        assert dunn_index(points, labels) == pytest.approx(
            dunn_index(points + 7.5, labels), abs=1e-12)

    def test_degenerate_diameter(self):
        with pytest.raises(DegenerateDiameter):
            dunn_index([0.0, 5.0], [0, 1])

    def test_needs_two_clusters(self):
        with pytest.raises(NeedTwoClusters):
            dunn_index([0.0, 1.0, 2.0], [0, 0, 0])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, 5))
            points = rng.normal(size=(n, 2))
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            assert dunn_index(points, labels) == pytest.approx(
                brute_force_dunn(points, labels), rel=1e-12)


@pytest.mark.parametrize("n, m, d", [(1, 1, 1), (7, 7, 1), (30, 4, 3),
                                     (12, 40, 8), (150, 9, 20)])
@pytest.mark.parametrize("seed", range(3))
def test_squared_distances_match_cdist(n, m, d, seed):
    rng = np.random.default_rng([seed, n, m, d])
    a = rng.normal(0, 10, (n, d))
    b = rng.normal(0, 10, (m, d))
    d2 = _squared_distances(a, b)
    np.testing.assert_allclose(d2, cdist(a, b, "sqeuclidean"), rtol=1e-12,
                               atol=0)
    np.testing.assert_allclose(np.sqrt(d2), cdist(a, b), rtol=1e-12, atol=0)
    assert np.all(np.diag(_squared_distances(a, a)) == 0.0)


def exhaustive_two_partition(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = np.inf
    for r in range(1, n // 2 + 1):
        for comb in combinations(range(n), r):
            rest = [i for i in range(n) if i not in comb]
            a, b = points[list(comb)], points[rest]
            obj = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
            best = min(best, obj)
    return best


class TestKmeans:
    def test_k_equals_n(self):
        _, obj = kmeans([[0.0], [10.0]], 2, seed=0)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_objective(self):
        _, obj = kmeans([[0.0], [2.0]], 1, seed=0)
        assert obj == pytest.approx(2.0)

    def test_two_pairs(self):
        assignment, obj = kmeans([[0.0], [1.0], [9.0], [10.0]], 2, seed=0)
        assert obj == pytest.approx(1.0)
        assert assignment[0] == assignment[1] != assignment[2]

    def test_bad_k(self):
        with pytest.raises(BadK):
            kmeans([[0.0], [1.0]], 3, seed=0)
        with pytest.raises(BadK):
            kmeans([[0.0], [1.0]], 0, seed=0)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 4))
        a1, o1 = kmeans(points, 5, seed=9)
        a2, o2 = kmeans(points, 5, seed=9)
        assert o1 == o2 and np.array_equal(a1, a2)

    def test_near_optimal_at_micro_scale(self):
        rng = np.random.default_rng(42)
        hits = 0
        for trial in range(100):
            n = int(rng.integers(4, 9))
            dim = int(rng.integers(1, 4))
            points = rng.normal(size=(n, dim))
            _, obj = kmeans(points, 2, seed=trial)
            if obj <= exhaustive_two_partition(points) + 1e-9:
                hits += 1
        assert hits >= 95


class TestPurity:
    def test_perfect(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0

    def test_one_mislabeled(self):
        assert purity([0, 0, 1, 1], ["a", "a", "b", "a"]) == 0.75

    def test_single_cluster_two_labels(self):
        assert purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            purity([0, 1], ["a"])
