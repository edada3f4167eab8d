"""Cluster-quality evaluation: Dunn Index, a Lloyd k-means baseline, and
label purity.

Points are real-valued row vectors in a 2-D numpy array; a clustering is a
1-D integer array of cluster ids.  Distances are Euclidean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadK, DegenerateDiameter, LengthMismatch, NeedTwoClusters


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    return pts


# rows of the first point set whose distances are summed together; their
# sums then stay in the CPU cache across the dimensions
_ROWS = 64


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The squared Euclidean distance from each row of ``a`` to each row
    of ``b``, summed one dimension at a time as scipy's ``cdist`` does, so
    that no (n, m, d) array is built."""
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], _ROWS):
        rows, sums = a[start:start + _ROWS], d2[start:start + _ROWS]
        for k in range(a.shape[1]):
            diff = np.subtract.outer(rows[:, k], b[:, k])
            diff *= diff
            sums += diff
    return d2


def dunn_index(points, assignment) -> float:
    """Ratio of the minimum inter-cluster distance to the maximum cluster
    diameter; larger is better.

    Inter-cluster distance is single linkage (minimum pairwise point
    distance across the two clusters); diameter is the maximum pairwise
    distance within a cluster.
    """
    pts = _as_points(points)
    labels = np.asarray(assignment)
    if labels.shape[0] != pts.shape[0]:
        raise LengthMismatch("one cluster id per point required")
    ids = np.unique(labels)
    if ids.size < 2:
        raise NeedTwoClusters(f"need k >= 2 clusters, got {ids.size}")

    d2 = _squared_distances(pts, pts)
    same = labels[:, None] == labels[None, :]
    max_diam = math.sqrt(np.max(d2[same]))
    if max_diam == 0.0:
        raise DegenerateDiameter("every cluster has zero diameter")
    return math.sqrt(np.min(d2[~same])) / max_diam


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100,
           n_init: int = 10):
    """Lloyd's algorithm with deterministic k-means++-style seeding.

    Runs ``n_init`` seeded restarts and keeps the lowest objective.
    Returns ``(assignment, objective)`` where the objective is the sum of
    squared distances to the assigned centroids.  Empty clusters are
    repaired by re-seeding them on the point farthest from its centroid.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise BadK(f"k must be in [1, {n}], got {k}")
    best = None
    for restart in range(n_init):
        result = _lloyd_once(pts, k, np.random.default_rng([seed, restart]),
                             max_iters)
        if best is None or result[1] < best[1]:
            best = result
    return best


def _lloyd_once(pts: np.ndarray, k: int, rng, max_iters: int):
    n = pts.shape[0]

    # k-means++ seeding
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    closest = np.sum((pts - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total == 0:
            centroids[i] = pts[rng.integers(n)]
        else:
            centroids[i] = pts[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest,
                             np.sum((pts - centroids[i]) ** 2, axis=1))

    assignment = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        d2 = _squared_distances(pts, centroids)
        new_assignment = np.argmin(d2, axis=1)
        for cid in range(k):
            members = new_assignment == cid
            if members.any():
                centroids[cid] = pts[members].mean(axis=0)
            else:
                worst = int(np.argmax(np.min(d2, axis=1)))
                centroids[cid] = pts[worst]
                new_assignment[worst] = cid
        if np.array_equal(new_assignment, assignment):
            assignment = new_assignment
            break
        assignment = new_assignment

    objective = float(np.sum((pts - centroids[assignment]) ** 2))
    return assignment, objective


def purity(assignment, labels) -> float:
    """Fraction of points whose cluster's majority label matches theirs."""
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape[0] != labels.shape[0]:
        raise LengthMismatch(
            f"{assignment.shape[0]} assignments vs {labels.shape[0]} labels")
    hit = 0
    for cid in np.unique(assignment):
        _, counts = np.unique(labels[assignment == cid], return_counts=True)
        hit += int(counts.max())
    return hit / assignment.shape[0]
