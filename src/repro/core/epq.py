"""E-PQ: error-bounded predictive quantization (paper Algorithm 1).

``EPQEngine`` consumes one timestep at a time, every partition at once:
read the active trajectories' reconstructed histories, fit each
partition's prediction coefficients P_j[t] (Eq. 5), quantize each
partition's prediction errors with its own codebook (Eq. 6), reconstruct,
and push the reconstructions back into the history (Alg. 1 lines 3-7).
Section 3.2 makes only the fit and the codebook per partition, so the
history is read and written once per step over all rows, and the
partitions' normal equations go into one stacked solve. In the
error-bounded modes one codeword search covers every partition's rows
(``quantize_each``): partitions are taken in descending codebook size and
packed into blocks, each block padding its codebooks to its largest with
``+inf`` codewords while the padding stays within
``quantizer.BLOCK_PAD_CELLS`` (4,096 cells, chosen by replaying the search
over recorded bench steps), so a step makes about one distance matrix
instead of one per partition, with the same codes. Only a partition with a
point beyond eps1 grows its codebook, and one gather over all rows reads
the codewords. The paper's E-PQ baseline is ``run_ppq(mode=None)``: every
row in partition 0. The engine keeps the stored parts: it files what a
step fits -- each partition's coefficients and, outside global mode, its
codebook for the step -- under (partition, t) in ``coeffs`` and
``codebooks_t``, and ``merge`` moves a merged-away partition's global
codebook into its target's.

Codebook modes:
  * ``global``  -- one incremental error-bounded codebook per partition
                   across all time (the online summarization of Sections
                   3, Tables 5/6);
  * ``per_t``   -- a fresh error-bounded codebook per partition and
                   timestamp (Table 2's "learn C independently for every
                   timestamp");
  * ``fixed``   -- a fresh fixed-size codebook per partition and
                   timestamp: the ``budget`` passed to ``step`` is split
                   across the step's partitions by size (Table 4's 5-9
                   bit budgets). No error bound. With prediction it is
                   k-means; without (Q-trajectory) it is a single-pass
                   farthest-first codebook.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kmeans import farthest_first, kmeans
from repro.core.partitioning import group_rows
from repro.core.predictor import (
    DEFAULT_K,
    History,
    fit_coeffs,
    normal_equations,
    predict,
)
from repro.core.quantizer import IncrementalQuantizer, nearest, quantize_each


@dataclass
class StepResult:
    """Per-timestep output of one engine step, rows in the order given."""

    codes: np.ndarray  # codeword index per point (index into its partition's codebook)
    recon: np.ndarray  # (n, 2) codebook reconstruction That
    pred: np.ndarray  # (n, 2) prediction Ttilde


class EPQEngine:
    """Sequential-in-t E-PQ over every partition's trajectories.

    Partition ``pid`` draws its codebook seeds from ``seed + 7919 * (pid +
    1)`` (plus ``t`` for the per-step codebooks). In global mode
    ``quantizers`` holds the codebook of every partition that has coded
    points. Under (pid, t), ``coeffs`` holds every step's coefficients P[t]
    (zeros if none fitted) and ``codebooks_t`` every per_t/fixed codebook.
    ``remap`` maps a merged-away pid to (target pid, code offset).
    The reconstructed history has one row per trajectory of the build, n
    in all; ``step`` takes the rows of its points (``Encoder.rows_of`` maps
    trajectory ids to them).
    """

    def __init__(
        self,
        eps1: float,
        n: int,
        *,
        k: int = DEFAULT_K,
        seed: int = 0,
        predict_enabled: bool = True,
        codebook_mode: str = "global",
    ):
        if codebook_mode not in ("global", "per_t", "fixed"):
            raise ValueError(f"unknown codebook_mode {codebook_mode!r}")
        self.eps1 = float(eps1)
        self.k = int(k)
        self.seed = seed
        self.predict_enabled = predict_enabled
        self.history = History(k, n)
        self.codebook_mode = codebook_mode
        self.quantizers: dict[int, IncrementalQuantizer] = {}
        self.coeffs: dict[tuple[int, int], np.ndarray] = {}
        self.codebooks_t: dict[tuple[int, int], np.ndarray] = {}
        self.remap: dict[int, tuple[int, int]] = {}

    @property
    def codebooks(self) -> dict[int, np.ndarray]:
        """Global mode's codebook of every partition that has coded points."""
        return {pid: q.codebook for pid, q in self.quantizers.items()}

    def merge(self, merges: list[tuple[int, int]]) -> None:
        """Carry the codebooks of partition merges (src, dst) along
        (Section 3.2.2): in global mode the target's quantizer absorbs the
        source's codewords, and ``remap`` records where the source's emitted
        codes move. A source split off in this same update has coded nothing
        and has no quantizer; any other source merges into a lower, older
        pid, which has one. In per_t/fixed modes codes reference (pid, t)
        codebooks, which a merge leaves as they are."""
        for src, dst in merges:
            if src in self.quantizers:
                self.remap[src] = (dst, self.quantizers[dst].absorb(self.quantizers.pop(src)))

    def step(
        self,
        t: int,
        rows: np.ndarray,
        pts: np.ndarray,
        pids: np.ndarray,
        *,
        budget: int | None = None,
    ) -> StepResult:
        """Process the points at time ``t`` (Alg. 1 body) of the distinct
        history ``rows``. ``pids`` gives each point's partition; ``budget``
        is the step's codeword total in fixed mode."""
        if self.codebook_mode == "fixed" and budget is None:
            raise ValueError("fixed mode needs a codeword budget")
        rows = np.asarray(rows)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        n = len(rows)
        # one stable sort by pid: partition j's rows, in their given order,
        # are the slice [bounds[j]:bounds[j + 1]) of the grouped arrays
        uniq, order, bounds = group_rows(np.asarray(pids))
        rows, pts = rows[order], pts[order]
        counts = bounds[1:] - bounds[:-1]
        pred = np.zeros((n, 2))
        coeffs = np.zeros((len(uniq), self.k))
        if self.predict_enabled:
            hist = self.history.matrix(rows)
            warm = self.history.warm_ids(rows)
            if warm.all():
                # every partition is fitted over all its rows
                w, hw, cur, wb, fitted, gb = slice(None), hist, pts, bounds, slice(None), bounds
            else:
                # Ramp-up: a trajectory with some but fewer than k
                # reconstructions is predicted by its last reconstruction
                # (a random-walk predictor). Only a trajectory's very first
                # point is coded against prediction zero, its history row
                # being zero; without this, every new partition would pay
                # full raw-coordinate codebook coverage for its cold points
                # (see DESIGN.md).
                pred[~warm] = hist[~warm, 0]
                w = np.flatnonzero(warm)
                hw, cur = hist[w], pts[w]
                # partition j's warm rows are hw[wb[j]:wb[j + 1]]; gb holds
                # those bounds for the partitions with warm rows only
                wb = np.searchsorted(w, bounds)
                fitted = np.flatnonzero(wb[1:] > wb[:-1])
                gb = np.append(wb[fitted], len(w))
            if len(hw):
                ata, atb = normal_equations(hw, cur, gb)
                try:
                    # LAPACK solves each stacked system on its own, so this
                    # gives what one solve per partition gives
                    coeffs[fitted] = np.linalg.solve(ata, atb)
                except np.linalg.LinAlgError:
                    coeffs[fitted] = [
                        fit_coeffs(hw[lo:hi], cur[lo:hi])
                        for lo, hi in zip(gb[:-1], gb[1:])
                    ]
                pred[w] = predict(hw, np.repeat(coeffs, wb[1:] - wb[:-1], axis=0))
        errs = pts - pred

        pid_list = uniq.tolist()
        if self.codebook_mode == "fixed":
            codes = np.empty(n, dtype=np.int64)
            cbs = []
            shares = _split_budget(budget, uniq, counts)
            for pid, a, b in zip(pid_list, bounds[:-1].tolist(), bounds[1:].tolist()):
                e = errs[a:b]
                seed = self.seed + 7919 * (pid + 1) + t
                if self.predict_enabled:
                    codes[a:b], cb = kmeans(e, shares[pid], seed=seed)
                else:
                    # Without prediction this is Q-trajectory, an online
                    # quantizer that cannot iterate over the data:
                    # single-pass codebook, picked farthest-first from the
                    # batch, no Lloyd refinement.
                    cb = farthest_first(e, max(1, min(shares[pid], b - a)), seed)
                    codes[a:b], _ = nearest(cb, e)
                cbs.append(cb)
        else:
            if self.codebook_mode == "global":
                qs = []
                for pid in pid_list:
                    q = self.quantizers.get(pid)
                    if q is None:
                        q = self.quantizers[pid] = IncrementalQuantizer(
                            self.eps1, seed=self.seed + 7919 * (pid + 1)
                        )
                    qs.append(q)
            else:
                qs = [
                    IncrementalQuantizer(self.eps1, seed=self.seed + 7919 * (pid + 1) + t)
                    for pid in pid_list
                ]
            codes = quantize_each(qs, errs, bounds)
            cbs = [q.codebook for q in qs]
        if self.codebook_mode != "global":
            for pid, cb in zip(pid_list, cbs):
                self.codebooks_t[(pid, t)] = cb
        # one gather of every row's codeword from the step's codebooks laid
        # end to end in pid order (none in an empty step)
        sizes = [len(cb) for cb in cbs]
        first = np.repeat(np.cumsum(sizes, dtype=np.int64) - sizes, counts)
        recon = pred + (np.concatenate(cbs)[first + codes] if cbs else 0.0)

        self.history.push(rows, recon)
        for pid, c in zip(pid_list, coeffs):
            self.coeffs[(pid, t)] = c
        back = np.empty(n, dtype=np.intp)
        back[order] = np.arange(n)
        return StepResult(codes=codes[back], recon=recon[back], pred=pred[back])


def _split_budget(
    total: int | None, pids: np.ndarray, counts: np.ndarray
) -> dict[int, int]:
    """Split a timestep's codeword budget across its partitions by size:
    largest remainder, ties to the lower pid, at least one each (partitions
    below one by size get one and the others split the rest). The shares
    add up to ``total``, the paper's "same number of codewords", unless
    there are more partitions than that; then each gets one and the
    timestep goes over its budget.
    """
    if total is None:
        return {}
    if len(pids) >= total:
        return dict.fromkeys(pids.tolist(), 1)
    one = np.zeros(len(pids), dtype=bool)  # partitions held at one codeword
    while True:
        quota = (total - one.sum()) * counts / counts[~one].sum()
        if not (quota[~one] < 1).any():
            break
        one |= quota < 1
    quota[one] = 1
    share = np.floor(quota).astype(np.int64)
    # the largest fractional parts take the codewords flooring left over
    share[np.argsort(share - quota, kind="stable")[: total - share.sum()]] += 1
    return dict(zip(pids.tolist(), share.tolist()))
