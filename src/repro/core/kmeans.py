"""Plain NumPy k-means and the paper's grow-until-bounded partitioning.

Sections 3.2.1 / 5.1 partition points by increasing the number of clusters
until every point is within ``eps`` of its cluster centroid (Eq. 7/8, and
Alg. 3 line 1 with eps_s). We realise the "q increases until satisfied"
loop as bisecting splits of violating clusters, which terminates (a
singleton always satisfies any eps >= 0) and matches Lemma 1's
O(q*m*N*l) shape: each round splits every violating cluster once.
"""
from __future__ import annotations

import numpy as np


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (len(a), len(b)) between rows of a and b.

    Adds one coordinate's squared difference at a time instead of reducing
    an (n, m, d) temporary. Bit-identical to
    ``((a[:, None] - b[None]) ** 2).sum(axis=2)`` below eight coordinates,
    where numpy sums the terms left to right. The builds pass one or two
    (points, or PPQ-A's default k = 2 AR features).
    """
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    for c in range(1, a.shape[1]):
        d2 += (a[:, None, c] - b[None, :, c]) ** 2
    return d2


def centroid(pts: np.ndarray) -> np.ndarray:
    """Mean of the rows of a non-empty float array: what ``pts.mean(axis=0)``
    computes (the same reduction and division), without its dispatch cost."""
    return np.add.reduce(pts, axis=0) / len(pts)


def farthest_first(pts: np.ndarray, k: int, seed: int) -> np.ndarray:
    """``k`` rows of ``pts`` (2-D, 1 <= k <= len) picked greedily farthest-first
    (k-center maxmin): the first drawn by ``default_rng(seed)``, each next
    one the point farthest from all picked so far."""
    g = np.random.default_rng(seed)
    picked = np.empty((k, pts.shape[1]))
    picked[0] = pts[g.integers(0, len(pts))]
    d2 = ((pts - picked[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        picked[j] = pts[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((pts - picked[j]) ** 2).sum(axis=1))
    return picked


def kmeans(
    pts: np.ndarray, k: int, *, seed: int = 0, iters: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means. Returns (labels, centroids); k is clamped to n.

    Init is greedy farthest-point (deterministic given ``seed`` for the
    first pick), which avoids empty clusters on well-separated data.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    k = max(1, min(k, n))
    if k == 1:
        c = pts.mean(axis=0, keepdims=True)
        return np.zeros(n, dtype=np.int64), c
    centroids = farthest_first(pts, k, seed)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        new_labels = sq_dists(pts, centroids).argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            m = labels == j
            if m.any():
                centroids[j] = centroid(pts[m])
    return labels, centroids


def _split_two(pts: np.ndarray, seed: int) -> np.ndarray:
    """Split points into two non-empty groups, guaranteed to make progress.

    Uses k-means(2) seeded by the farthest pair; falls back to a median
    split along the widest axis when k-means degenerates (e.g. heavy
    duplicates), so the grow loop always terminates.
    """
    labels, _ = kmeans(pts, 2, seed=seed, iters=8)
    if labels.min() == labels.max():
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        med = np.median(pts[:, axis])
        labels = (pts[:, axis] > med).astype(np.int64)
        if labels.min() == labels.max():  # all identical values
            labels = np.zeros(len(pts), dtype=np.int64)
            labels[: len(pts) // 2] = 1
    return labels


def grow_partition(
    pts: np.ndarray, eps: float, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition ``pts`` so every point is within ``eps`` of its centroid.

    Returns ``(labels, centroids, rounds)`` where ``rounds`` counts the
    split rounds (the paper's m in Lemma 1). Each label keeps its member
    indices in ascending order, so a round only recomputes the centroid and
    radius of the clusters the previous round split; the others keep theirs.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim)), 0
    members = [np.arange(n)]
    centroids: list = [None]
    changed = [0]  # labels whose members changed, ascending
    rounds = 0
    while True:
        viol = []
        for j in changed:
            sub = pts[members[j]]
            centroids[j] = centroid(sub)
            d = np.sqrt(((sub - centroids[j]) ** 2).sum(axis=1))
            if d.max() > eps and len(sub) > 1:
                viol.append(j)
        if not viol:
            break
        rounds += 1
        for j in viol:
            idx = members[j]
            sub = _split_two(pts[idx], seed + rounds + j)
            members[j] = idx[sub == 0]
            members.append(idx[sub == 1])
        changed = viol + list(range(len(centroids), len(members)))
        centroids += [None] * len(viol)  # set when ``changed`` is visited
    labels = np.empty(n, dtype=np.int64)
    for j, idx in enumerate(members):
        labels[idx] = j
    return labels, np.array(centroids), rounds


def max_dist_to_centroid(pts: np.ndarray, centroid: np.ndarray) -> float:
    """Max Euclidean distance from any point to ``centroid``."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return float(np.sqrt(((pts - centroid) ** 2).sum(axis=1)).max())
