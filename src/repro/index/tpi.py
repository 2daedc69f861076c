"""TPI: temporal partition-based index (paper Alg. 4, Def. 5.1, Eq. 12-14).

Streams timesteps into a sequence of (period, PI) pairs. For each new
timestamp, the covered points' trajectory-region densities (TRD) are
compared against the densities at the period start: if the average
dropping rate (ADR) exceeds eps_d the current period closes and a fresh PI
is built ("Re-build"); otherwise the points are appended and, if some fall
outside every rectangle, Alg. 3's rectangles over just those points are
grafted onto the current PI first ("Insertion"). Timesteps come in
increasing t, each once (``repro.check_step``), and every push indexes its
timestep with one ``PI.add_points``.
"""
from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro import check_step
from repro.index.pi import PI, build_pi, build_rects


@dataclass
class Period:
    """A closed or open time period served by one PI."""

    ts: int
    te: int | None
    pi: PI


def adr(
    d_now: np.ndarray, d_base: np.ndarray, eps_c: float
) -> float:
    """Average dropping rate of TRD (Eq. 12-14).

    A rectangle counts when its density *dropped* by more than eps_c
    relative to the period-start baseline.
    """
    n = len(d_base)
    if n == 0:
        return 0.0
    base = np.where(d_base > 0, d_base, 1e-30)
    h1 = (d_now - d_base) / base
    flags = (h1 < 0) & (np.abs(h1) > eps_c)
    return float(flags.sum() / n)


@dataclass
class TPI:
    """The temporal index: push timesteps, then answer (x, y, t) lookups."""

    eps_d: float = 0.5
    eps_c: float = 0.5
    eps_s: float = 0.1
    gc: float = 0.0009
    seed: int = 0
    periods: list[Period] = field(default_factory=list)
    n_rebuilds: int = 0
    n_insertions: int = 0
    build_seconds: float = 0.0
    _base_density: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t: int | None = field(default=None, init=False)  # the last successful push's t

    @property
    def current(self) -> Period | None:
        return self.periods[-1] if self.periods else None

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def push(self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> str:
        """Index the points at time ``t``. Returns the action taken:
        'initial', 're-build', 'insertion' or 'append'.

        Raises ``ValueError``, leaving the index as it was, for what
        ``check_step`` rejects: a ``t`` not after the last successful
        push's (so a t is indexed once, and periods stay disjoint and in
        time order, which ``period_for`` relies on), an empty step, ids
        that are not whole numbers or given twice, and ``xs``/``ys`` that
        are not one finite position per id."""
        start = time.perf_counter()
        ids, xs, ys = check_step(t, self.t, ids, xs, ys)
        try:
            action = self._index(t, ids, xs, ys)
        finally:
            self.build_seconds += time.perf_counter() - start
        self.t = t
        return action

    def _index(self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> str:
        """``push``'s work on a checked timestep; returns its action."""
        if self.current is None:
            self._open_period(t, ids, xs, ys)
            return "initial"
        pi = self.current.pi
        ri = pi.rect_of(xs, ys)
        covered = ri >= 0
        counts = np.bincount(ri[covered], minlength=len(pi.rects))
        d_now = counts / pi.rect_sizes()
        if adr(d_now, self._base_density, self.eps_c) > self.eps_d:
            closed = self.current  # closed once the new period is built
            self._open_period(t, ids, xs, ys)
            closed.te = t - 1
            self.n_rebuilds += 1
            return "re-build"
        action = "append"
        if not covered.all():
            uncov = ~covered
            rects, new_ri = build_rects(
                t, xs[uncov], ys[uncov], eps_s=self.eps_s, seed=self.seed + t
            )
            n_old = len(pi.rects)
            pi.add_rects(rects)
            ri[uncov] = new_ri + n_old
            # inserted rectangles join the baseline so later ADR checks
            # see them (their baseline density is their density now)
            counts = np.bincount(new_ri, minlength=len(rects))
            self._base_density = np.concatenate(
                [self._base_density, counts / pi.rect_sizes()[n_old:]]
            )
            self.n_insertions += 1
            action = "insertion"
        pi.add_points(t, ids, xs, ys, ri=ri)
        return action

    def _open_period(self, t: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray):
        pi = build_pi(t, ids, xs, ys, eps_s=self.eps_s, gc=self.gc, seed=self.seed + t)
        self.periods.append(Period(ts=t, te=None, pi=pi))
        self._base_density = pi.counts_per_rect(t) / pi.rect_sizes()

    # ---------------- queries ----------------
    def period_for(self, t: int) -> Period | None:
        """The period whose [ts, te] contains t (te=None means open).

        Periods are disjoint and in ascending ``ts`` order, so the only
        candidate is the last one starting at or before t."""
        i = bisect_right(self.periods, t, key=lambda p: p.ts) - 1
        if i < 0:
            return None
        p = self.periods[i]
        return p if p.te is None or t <= p.te else None

    def query(self, x: float, y: float, t: int) -> np.ndarray:
        p = self.period_for(t)
        return p.pi.query(x, y, t) if p else np.zeros(0, dtype=np.int64)

    def query_circle(self, x: float, y: float, t: int, radius: float) -> np.ndarray:
        p = self.period_for(t)
        return p.pi.query_circle(x, y, t, radius) if p else np.zeros(0, dtype=np.int64)

    # ---------------- accounting ----------------
    def size_bits(self) -> int:
        """Total index size: per-period PI sizes + period table."""
        return sum(p.pi.size_bits() for p in self.periods) + self.n_periods * 2 * 32

    def size_mb(self) -> float:
        return self.size_bits() / 8 / 1e6


def build_tpi_from_points(
    points, *, eps_d: float, eps_c: float, eps_s: float, gc: float, seed: int = 0
) -> TPI:
    """Feed a (traj_id, t, x, y) frame through TPI in timestamp order."""
    tpi = TPI(eps_d=eps_d, eps_c=eps_c, eps_s=eps_s, gc=gc, seed=seed)
    for t, batch in points.sort_values("t").groupby("t", sort=True):
        tpi.push(
            int(t),
            batch.traj_id.to_numpy(),
            batch.x.to_numpy(),
            batch.y.to_numpy(),
        )
    if tpi.current is not None and tpi.current.te is None:
        tpi.current.te = int(points.t.max())
    return tpi
