"""Plain NumPy k-means and the paper's grow-until-bounded partitioning.

Sections 3.2.1 / 5.1 partition points by increasing the number of clusters
until every point is within ``eps`` of its cluster centroid (Eq. 7/8, and
Alg. 3 line 1 with eps_s). We realise the "q increases until satisfied"
loop as bisecting splits of violating clusters, which terminates (a
singleton always satisfies any eps >= 0) and matches Lemma 1's
O(q*m*N*l) shape: each round splits every violating cluster once.

The splits run a dedicated 2-means instead of the generic ``kmeans``, and
each round measures only the clusters it changed. Two kernels do this
work, chosen per cluster by size: a 2-D cluster of at most ``SMALL``
points is measured and split on Python floats (``_measure_small``,
``_split_two_small``), because numpy's fixed cost per call outweighs its
speed on a handful of rows; larger clusters, and every cluster of one or
three-plus coordinates, are measured in one numpy pass and split by
``_split_two``. ``SMALL`` sits below the size where the two cost the
same per split and per measured cluster (about 64 points); the index's
insertion rectangles (about 16 points) fall below it and PPQ-A's partitioner
re-splits (about 120) above. The Python kernels repeat numpy's arithmetic
in numpy's order -- sums from +0.0 row by row, ``x*x`` squares, the first
of equal minima or maxima -- so every kernel gives the bits the generic
code gives.

Each split seeds its 2-means with one index drawn as
``np.random.default_rng(seed).integers(0, n)``. ``first_draw`` gives that
index without a ``Generator`` per split: numpy's bounded draw is Lemire's
multiply-shift (Lemire 2019, "Fast random integer generation in an
interval") on the low 32 bits of PCG64's first 64-bit output, and that
word depends on the seed alone, so it is cached per seed and the
multiply-shift runs on Python ints. The rare draw Lemire rejects, and any
input outside the covered range, goes to the real generator.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

#: Largest 2-D cluster ``grow_partition`` measures and splits on Python
#: floats. Per split and per measured cluster, Python cost 0.6x numpy's at
#: 16 points, 0.8x at 48 and 1.0x at 64, so the rule stays below the tie.
SMALL = 48

_U32 = 1 << 32


@lru_cache(maxsize=1 << 12)
def _first_word(seed: int) -> int:
    """PCG64's first 64-bit output for ``seed``, as ``default_rng(seed)``
    makes it (a negative seed raises its ``ValueError``)."""
    return int(np.random.PCG64(seed).random_raw())


def first_draw(seed: int, n: int) -> int:
    """``np.random.default_rng(seed).integers(0, n)``, as a Python int.

    For an integer ``seed`` and ``1 <= n < 2**32`` numpy draws the low 32
    bits ``w`` of the generator's first word and returns ``(w * n) >> 32``
    unless ``(w * n) mod 2**32`` falls below ``2**32 mod n``, when it
    rejects ``w`` and draws again. That rejected case, and every other
    input, runs the generator itself.
    """
    if isinstance(seed, (int, np.integer)) and isinstance(n, int) and 0 < n < _U32:
        m = (_first_word(seed) & (_U32 - 1)) * n
        if m & (_U32 - 1) >= _U32 % n:
            return m >> 32
    return int(np.random.default_rng(seed).integers(0, n))


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
    (k-center maxmin): the first drawn by ``default_rng(seed)`` (through
    ``first_draw``), each next one the point farthest from all picked so
    far."""
    picked = np.empty((k, pts.shape[1]))
    picked[0] = pts[first_draw(seed, len(pts))]
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
    return _median_split(pts)


def _median_split(pts: np.ndarray) -> np.ndarray:
    """The splits' fallback: True above the median of the widest axis, or
    the first half when every value is the same."""
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    lab = pts[:, axis] > np.median(pts[:, axis])
    if not lab.any():  # all identical values
        lab[: len(pts) // 2] = True
    return lab


def _measure_small(rows: list) -> tuple[tuple[float, float], float]:
    """Centroid and radius of a cluster's 2-D ``rows`` (lists of two
    Python floats), with the bits of ``grow_partition``'s numpy pass: the
    sums start from +0.0 and add rows in order, as numpy's axis-0
    reduction does (a column of -0.0 sums to +0.0), and the squares are
    ``x*x``, as ``np.square``'s are."""
    sx = sy = 0.0
    for x, y in rows:
        sx += x
        sy += y
    cx = sx / len(rows)
    cy = sy / len(rows)
    r2 = max([(dx := x - cx) * dx + (dy := y - cy) * dy for x, y in rows])
    return (cx, cy), math.sqrt(r2)


def _split_two_small(rows: list, seed: int) -> list[bool]:
    """``_split_two``'s labels for a cluster's 2-D ``rows`` (lists of two
    Python floats), computed on Python floats.

    The first seed is the same ``first_draw`` as ``farthest_first``'s and
    the second the first row farthest from it, as ``argmax`` picks. The
    Lloyd sums start from +0.0 and add rows in order, as ``np.bincount``
    does; a tie keeps the first centroid. The median fallback runs on
    numpy.
    """
    n = len(rows)
    c0x, c0y = rows[first_draw(seed, n)]
    d2 = [(dx := x - c0x) * dx + (dy := y - c0y) * dy for x, y in rows]
    c1x, c1y = rows[d2.index(max(d2))]
    lab = None
    for _ in range(8):
        new = [
            (ax := x - c1x) * ax + (ay := y - c1y) * ay
            < (bx := x - c0x) * bx + (by := y - c0y) * by
            for x, y in rows
        ]
        if new == lab:
            break
        lab = new
        s0x = s0y = s1x = s1y = 0.0
        n1 = 0
        for (x, y), second in zip(rows, lab):
            if second:
                s1x += x
                s1y += y
                n1 += 1
            else:
                s0x += x
                s0y += y
        if n1 < n:
            c0x = s0x / (n - n1)
            c0y = s0y / (n - n1)
        if n1:
            c1x = s1x / n1
            c1y = s1y / n1
    if 0 < n1 < n:
        return lab
    return _median_split(np.array(rows)).tolist()


def grow_partition(
    pts: np.ndarray, eps: float, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Partition ``pts`` so every point is within ``eps`` of its centroid.

    Returns ``(labels, centroids, rounds)`` where ``rounds`` counts the
    split rounds (the paper's m in Lemma 1). Each label keeps its member
    indices in ascending order, so a round only recomputes the centroid and
    radius of the clusters the previous round split; the others keep theirs.

    Two kernels measure and split a cluster, chosen per cluster by its
    size. A 2-D cluster of at most ``SMALL`` points (finite input) runs on
    Python floats: ``_measure_small`` and ``_split_two_small`` over its
    rows of one ``pts.tolist()``, with no numpy call per step. The larger
    clusters, and every cluster of other dimensions, are measured in one
    numpy pass -- their members are gathered once, each centroid is
    ``centroid``'s reduction over its own contiguous rows and the radii
    come from one ``np.maximum.reduceat`` over the squared distances (the
    root of the largest is the largest root, as a correctly rounded sqrt is
    monotone) -- and split by ``_split_two``. The Python kernels repeat
    numpy's operations in numpy's order, so both give the same bits; one
    coordinate stays on numpy, whose sum over an (n, 1) column is pairwise
    rather than in order, and so does input with a non-finite value, where
    numpy's max and argmax propagate NaN and Python's do not.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, dim)), 0
    small = SMALL if dim == 2 and np.isfinite(pts).all() else 0
    rows = None  # pts.tolist(), once a cluster is small
    # a small cluster's members are a list, a larger one's an array
    members: list = [list(range(n)) if n <= small else np.arange(n)]
    centroids: list = [None]
    changed = [0]  # labels whose members changed, ascending
    rounds = 0
    while True:
        radius = {}
        sub_rows = {}  # small clusters' rows, for their split
        big = []
        for j in changed:
            idx = members[j]
            if len(idx) > small:
                big.append(j)
                continue
            if rows is None:
                rows = pts.tolist()
            if not isinstance(idx, list):
                members[j] = idx = idx.tolist()
            sub_rows[j] = cl = [rows[i] for i in idx]
            centroids[j], radius[j] = _measure_small(cl)
        if big:
            segs = [members[j] for j in big]
            lens = [len(m) for m in segs]
            starts = [0, *accumulate(lens[:-1])]
            sub = pts[np.concatenate(segs)]
            cents = np.array(
                [np.add.reduce(sub[s : s + ln]) for s, ln in zip(starts, lens)]
            ) / np.array(lens)[:, None]
            d2 = np.add.reduce((sub - np.repeat(cents, lens, axis=0)) ** 2, axis=1)
            radii = np.sqrt(np.maximum.reduceat(d2, starts)).tolist()
            for j, c, r in zip(big, cents, radii):
                centroids[j] = c
                radius[j] = r
        viol = [j for j in changed if radius[j] > eps and len(members[j]) > 1]
        if not viol:
            break
        rounds += 1
        for j in viol:
            idx = members[j]
            if j in sub_rows:
                second = _split_two_small(sub_rows[j], seed + rounds + j)
                members[j] = [i for i, s in zip(idx, second) if not s]
                members.append([i for i, s in zip(idx, second) if s])
            else:
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
