"""Plain NumPy k-means and the paper's grow-until-bounded partitioning.

Sections 3.2.1 / 5.1 partition points by increasing the number of clusters
until every point is within ``eps`` of its cluster centroid (Eq. 7/8, and
Alg. 3 line 1 with eps_s). We realise the "q increases until satisfied"
loop as bisecting splits of violating clusters, which terminates (a
singleton always satisfies any eps >= 0) and matches Lemma 1's
O(q*m*N*l) shape: each round splits every violating cluster once.

The splits run a dedicated 2-means (``_split_two``) instead of the generic
``kmeans``, and each round measures the clusters it changed in one pass.
Both give the bits the generic code gives.
"""
from __future__ import annotations

from itertools import accumulate

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
    d2 = np.add.reduce((pts - picked[0]) ** 2, axis=1)
    for j in range(1, k):
        if j > 1:
            d2 = np.minimum(d2, np.add.reduce((pts - picked[j - 1]) ** 2, axis=1))
        picked[j] = pts[d2.argmax()]
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
    """Split ``pts`` into two non-empty groups; True marks the second.

    Gives the labels of ``kmeans(pts, 2, seed=seed, iters=8)`` from a
    dedicated 2-means: the same farthest-first seeds, then at most 8 Lloyd
    steps on the coordinate columns with the two centroids held as Python
    floats. A point joins the second centroid when ``d1 < d0``, argmin's
    rule that a tie keeps the first. With two or more coordinates the
    centroids are ``np.bincount`` sums, which add rows in order as numpy's
    axis-0 reduction in ``centroid`` does, and take fewer numpy calls; with
    one coordinate numpy sums that reduction pairwise instead, so the
    groups go through ``centroid`` itself. When 2-means leaves a group
    empty (e.g. heavy duplicates), a median split along the widest axis
    takes over, so the grow loop always terminates.
    """
    n, dim = pts.shape
    cols = list(pts.T.copy())
    c0, c1 = farthest_first(pts, 2, seed).tolist()
    lab = key = None
    for _ in range(8):
        d0 = (cols[0] - c0[0]) ** 2
        d1 = (cols[0] - c1[0]) ** 2
        for i in range(1, dim):
            d0 += (cols[i] - c0[i]) ** 2
            d1 += (cols[i] - c1[i]) ** 2
        new = d1 < d0
        new_key = new.tobytes()
        if new_key == key:
            break
        lab, key = new, new_key
        n1 = int(np.count_nonzero(lab))
        if dim == 1:
            if n1 < n:
                c0 = centroid(pts[~lab]).tolist()
            if n1:
                c1 = centroid(pts[lab]).tolist()
            continue
        for i, col in enumerate(cols):
            s0, s1 = np.bincount(lab, weights=col, minlength=2).tolist()
            if n1 < n:
                c0[i] = s0 / (n - n1)
            if n1:
                c1[i] = s1 / n1
    if 0 < n1 < n:
        return lab
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    lab = pts[:, axis] > np.median(pts[:, axis])
    if not lab.any():  # all identical values
        lab[: n // 2] = True
    return lab


def grow_partition(
    pts: np.ndarray, eps: float, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition ``pts`` so every point is within ``eps`` of its centroid.

    Returns ``(labels, centroids, rounds)`` where ``rounds`` counts the
    split rounds (the paper's m in Lemma 1). Each label keeps its member
    indices in ascending order, so a round only recomputes the centroid and
    radius of the clusters the previous round split; the others keep theirs.
    Those clusters are measured in one pass: their members are gathered
    once, each centroid is ``centroid``'s reduction over its own contiguous
    rows and the radii come from one ``np.maximum.reduceat`` over the
    squared distances (the root of the largest is the largest root, as a
    correctly rounded sqrt is monotone).
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
        segs = [members[j] for j in changed]
        lens = [len(m) for m in segs]
        starts = [0, *accumulate(lens[:-1])]
        sub = pts[np.concatenate(segs)]
        cents = np.array(
            [np.add.reduce(sub[s : s + ln]) for s, ln in zip(starts, lens)]
        ) / np.array(lens)[:, None]
        d2 = np.add.reduce((sub - np.repeat(cents, lens, axis=0)) ** 2, axis=1)
        radii = np.sqrt(np.maximum.reduceat(d2, starts)).tolist()
        viol = []
        for j, c, r, ln in zip(changed, cents, radii, lens):
            centroids[j] = c
            if r > eps and ln > 1:
                viol.append(j)
        if not viol:
            break
        rounds += 1
        for j in viol:
            idx = members[j]
            second = _split_two(pts[idx], seed + rounds + j)
            members[j] = idx[~second]
            members.append(idx[second])
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
