"""Exploration-threshold solvers for forward-looking agents.

Forward-looking agents withhold what they know until the last slot at which
sharing is still possible, so any schedule collapses to a single effective
sharing slot ``T1``.  Before ``T1`` each agent follows a time-varying
exploration threshold that anticipates the pooled reveal; afterwards she is
on her own and follows the solo optimal-stopping thresholds.  The pre-sharing
thresholds solve a coupled nonlinear system (the belief over other agents'
progress depends on the thresholds themselves); we solve it from the solo
sequence with a full diagonal-Newton step, else one exact G-frozen sweep.
The coupling and the welfare integrate powers of the belief G over one segment
table per candidate (``_OneTimeSystem.table``): its sorted thresholds, G's kinks
and 1, on whose segments G and the post band are smooth.  The coupling is a
suffix of one cumulative integral over it, and each welfare band a run of it.

``scan_comm_times`` runs its candidates in blocks of consecutive slots whose
estimated quadrature arrays fit ``_BLOCK_BYTES``.  A block is solved in
lockstep, one ``integrate`` call per Newton round, and scored by
``_welfare_batch`` in two calls, every candidate exactly as alone.
"""

from __future__ import annotations

import contextvars
import itertools
from dataclasses import dataclass, field

import numpy as np

from .distributions import RewardDistribution, integrate
from .errors import DistributionError, QuadratureError, SolverError
from .schedules import check_horizon

__all__ = [
    "ThresholdSequence",
    "BeliefCdf",
    "solve_single_agent",
    "solve_centralized_nonmyopic",
    "solve_one_time",
    "welfare_one_time",
    "optimize_comm_time",
    "scan_comm_times",
]

_RESID_TOL = 1e-8
_MAX_ITER = 200
_BLOCK_BYTES = 2 << 20  # quadrature working set of one block of candidates, solved then scored
# peak bytes a block adds per piece of `_pieces`, traced at N = 5, 50, T = 50, 150, 300:
# solve 440-474 B, welfare 447-486 B on the fitted hotel prior; solve 553-661 B (most
# in blocks that take a sweep), welfare 572-595 B on beta(2,5), beta(.7,.9), uniform
_PIECE_BYTES = 768
_LOCKSTEP = contextvars.ContextVar("_LOCKSTEP", default=None)  # (d, N, T, bench, {T1: result})


@dataclass(frozen=True, eq=False)
class ThresholdSequence:
    """Solved exploration thresholds ``u_1 .. u_T`` with their residuals.

    ``comm_slot_T1`` is the single effective sharing slot: ``T-1`` for the
    always-open (centralized) policy, ``T`` for the solo benchmark where
    sharing never matters.  Values decrease strictly before the sharing slot
    and after it; no ordering across the two segments is implied.
    """

    horizon_T: int
    comm_slot_T1: int
    values: np.ndarray
    residuals: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.comm_slot_T1 <= self.horizon_T:
            raise SolverError(
                f"comm slot {self.comm_slot_T1} outside [1, {self.horizon_T}]"
            )
        if self.values.shape != (self.horizon_T,):
            raise SolverError("values must hold u_1..u_T")

    def threshold_at(self, t: int) -> float:
        """Threshold applied at slot ``t``; slot 0 always explores (u_0 = 1)."""
        if t == 0:
            return 1.0
        return float(self.values[t - 1])

    @property
    def prefix(self) -> np.ndarray:
        """Pre-sharing thresholds u_1..u_T1."""
        return self.values[: self.comm_slot_T1]


class BeliefCdf:
    """Law of one agent's best-known reward after the sharing slot's draws.

    For a threshold prefix ``u_1 > ... > u_L`` over a base prior ``F``, the
    CDF is ``F(r)^t - (1-F(r)) * sum_(i=t..L) F(u_i)^i`` on the band
    ``u_t < r <= u_(t-1)`` (with ``u_0 = 1``), for every ``t`` in 1..L+1: at
    or below the last threshold the sum is empty and the law is
    ``F(r)^(L+1)``.  Evaluation is vectorized; the thresholds are the kink
    locations, to hand to quadrature wherever they can fall inside a pair.
    """

    def __init__(self, base: RewardDistribution, prefix_thresholds):
        u = np.asarray(prefix_thresholds, dtype=float)
        if u.ndim != 1 or u.size < 1:
            raise DistributionError("prefix must be a non-empty 1-d sequence")
        if np.any(np.diff(u) >= 0):
            raise DistributionError("prefix thresholds must be strictly decreasing")
        if u[0] > 1.0 or u[-1] < 0.0:
            raise DistributionError("prefix thresholds must lie in [0, 1]")
        self.base = base
        self.thresholds = u
        self._asc = u[::-1].copy()
        powers = base.cdf(u) ** np.arange(1, u.size + 1)
        # suffix[t-1] = sum_(i=t..L) F(u_i)^i
        self._suffix = np.concatenate([np.cumsum(powers[::-1])[::-1], [0.0]])

    def __call__(self, r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = self._given(arr, self.base.cdf(arr))
        return float(out[0]) if np.isscalar(r) else out.reshape(np.shape(r))

    def _given(self, r, f):
        """The law at the array ``r``, given the base prior there, ``f = F(r)``."""
        # band index in 1..L+1: one more than the thresholds at or above r
        t_seg = self._asc.size + 1 - self._asc.searchsorted(r, side="left")
        return _law(f, t_seg, self._suffix[t_seg - 1], self.thresholds.size == 1)


def _law(f, t_seg, suffix, square):
    """``F^t - (1-F) * suffix`` clipped to [0, 1], given ``f = F(r)``, the band
    ``t_seg`` and the suffix sum there.  ``square`` (a bool, or a mask per
    point) marks a one-threshold prefix: numpy squares for a scalar exponent
    2, which its array pow can miss by an ulp, so its band 2's ``F^2`` is
    that exact square."""
    power = f**t_seg
    if square is not False:
        power = np.where(square, np.where(t_seg == 1, f, f * f), power)
    return (power - (1.0 - f) * suffix).clip(0.0, 1.0)


def _square(T1s, n):
    """``_law``'s one-threshold mask over ``n`` points of each candidate's row (a
    count, or one per row), or False where no candidate shares at slot 1."""
    return (T1s == 1).repeat(n) if T1s.min() == 1 else False


def _bisect(fun, mu, n):
    """Roots in ``[mu, 1]`` of ``n`` increasing functions, negative at ``mu``.

    ``fun`` maps ``n`` values to their ``n`` residuals; every root is halved
    together, 60 times, so one call serves all of them per step.  A halving
    that moves no bracket end is a fixed point (``fun`` is deterministic, so
    every later halving would repeat it), and the halving stops there with
    the roots of all 60.
    """
    lo = np.full(n, mu)
    hi = np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = fun(mid) < 0.0
        if (np.where(below, lo, hi) == mid).all():
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def solve_single_agent(d: RewardDistribution, T: int) -> ThresholdSequence:
    """Solo optimal-stopping thresholds: ``u_t - mu = (T-t) * tail(u_t)``.

    ``tail(u)`` is the mean excess ``integral_u^1 (1-F)``.  The slots'
    equations are independent and increasing in ``u_t``, negative at ``mu``
    and ``1 - mu`` at 1, so all ``T-1`` of them are bisected at once on
    ``[mu, 1]``.  The sequence strictly decreases to ``u_T = mu``; a prior
    too concentrated at its mean for that is refused as degenerate.
    """
    if T < 1:
        raise DistributionError(f"horizon must be >= 1, got {T}")
    check_horizon(T)
    mu = d.mean()
    w = T - np.arange(1, T)  # slots t = 1 .. T-1 have T-t slots left

    def fun(u):
        return u - mu - w * d.tail_mean_excess(u)

    roots = _bisect(fun, mu, T - 1)
    values = np.concatenate([roots, [mu]])
    if np.any(np.diff(values) >= 0):
        raise DistributionError(f"{d!r} is degenerate at its mean {mu:.6g}: "
                                "its solo thresholds do not decrease strictly")
    residuals = np.concatenate([fun(roots), [0.0]])
    return ThresholdSequence(T, T, values, residuals, {"solver": "bisection"})


class _OneTimeSystem:
    """The pre-sharing threshold systems of the candidates ``T1s`` on the solo benchmark
    ``bench``.  Coordinate ``i`` (slot ``t = i+1``) of ``T1`` has the residual
    ``u - mu - (T1-t) tail(u) - D(u)``; the coupling ``D(x)`` integrates
    ``(T-T1-k) G^(N-1) F^k (1-F)`` over ``[x, 1]``, ``k(r)`` counting the post
    thresholds ``bench[T1:]`` at or above ``r``.  Row ``c`` of a ``(B, T)`` array holds
    candidate ``c``'s coordinates, then its post thresholds; a flat one, the coordinates.
    ``bench`` is one row for every candidate, or one row each (the welfare's sequences)."""

    def __init__(self, d, N, T, T1s, bench):
        self.d, self.N, self.T, self.bench, self.mu = d, N, T, bench, d.mean()
        self.T1s = T1s = np.asarray(T1s)
        self.pre = np.arange(T) < T1s[:, None]
        self.at = self.pre.ravel().nonzero()[0]  # each coordinate's index in the raveled rows
        self.slot = self.at % T  # i, for slot t = i+1
        self.T1, self.square = T1s.repeat(T1s), _square(T1s, T1s)
        self.row, self.n = np.arange(T1s.size)[:, None], T - T1s[:, None]  # n: post thresholds

    def rows(self, x):
        """The rows with the flat coordinates ``x`` before their post thresholds."""
        out = np.empty(self.pre.shape)
        out[...], out[self.pre] = self.bench, x
        return out

    def belief(self, u):
        """Each row's belief ``G`` at the flat prefixes ``u``: the rows, whose prefixes
        are its kinks, its suffix sums (zero past the prefix), and ``F(u)``."""
        fu, powers = self.d.cdf(u), np.zeros(self.pre.shape)
        powers[self.pre] = fu ** (self.slot + 1)
        return self.rows(u), powers[:, ::-1].cumsum(axis=1)[:, ::-1], fu

    def table(self, v, G):
        """Each row's segment table: the sorted entries of the rows ``v``, ``G``'s kinks
        (unless ``v`` holds them, as at ``G``'s own prefixes) and 1.  Ties put post
        thresholds first, then coordinates, kinks and 1, so no segment holds a kink or a
        post threshold inside.  Returns the points; per position ``p`` but the last, the
        post thresholds ``k`` and ``G``'s band ``t`` (one more than its kinks) after it,
        which segment ``p`` (points ``p`` to ``p+1``) reads, and an entry at ``p`` that is
        no kink; each segment's suffix sum; whether each point is an entry; and each
        entry's position."""
        (rows, suffix, _), (B, T), T1, n = G, v.shape, self.T1s[:, None], self.n
        cuts = 0 if (v == rows).all() else self.T1s.max()
        P = T + cuts + 1
        points = np.empty((B, P))
        # v's post thresholds and coordinates, the kinks (a short prefix's after its first
        # post thresholds, which tie entries), all reversed, then 1: kinks from P-1-T1 on
        points[:, :T], points[:, T:-1], points[:, -1] = v[:, ::-1], rows[:, :cuts][:, ::-1], 1.0
        order = points.argsort(axis=1, kind="stable")
        k = n - (order < n).cumsum(axis=1)
        kinks = T1 - (order >= P - 1 - T1).cumsum(axis=1)  # after each position but the last
        return (points.ravel()[order + P * self.row], k, kinks + 1,
                suffix.ravel()[kinks[:, :-1] + T * self.row], order < T,
                order.argsort(axis=1)[:, T - 1 :: -1])

    def coupling(self, G, v):
        """``D`` under ``G`` at every entry of the rows ``v``, from one ``integrate`` call
        over ``table``'s segments, each reading its ``k``, ``G``'s band and suffix by pair.
        A row's pairs join its sorted entries and 1; where the table adds kinks, ``groups``
        joins a pair's segments, exactly the pair alone with them as breakpoints.  A
        pair's term stands at its lower entry, and suffix sums over the points (the
        others add exactly 0) give ``D`` in O(pieces + T)."""
        s, k, t, g_suffix, entry, at = self.table(v, G)
        (B, T), N, d = v.shape, self.N, self.d
        square = _square(self.T1s, s.shape[1] - 1)
        terms = self.n - k
        t, k, g_suffix = t[:, :-1].ravel(), k[:, :-1].ravel(), g_suffix.ravel()

        def integrand(r):
            j, f = r.pair, d.cdf(r)
            law = _law(f, t[j], g_suffix[j], square if square is False else square[j])
            return law ** (N - 1) * f ** k[j] * (1.0 - f)

        pieces = np.zeros(s.shape)
        pieces[entry] = integrate(d, integrand, s[:, :-1].ravel(), s[:, 1:].ravel(), groups=(
            entry[:, :-1].ravel().cumsum() if s.shape[1] > T + 1 else None))
        at_or_above = (terms * pieces)[:, ::-1].cumsum(axis=1)[:, ::-1]
        return at_or_above[self.row, at]

    def residual(self, G, x):
        """g at the flat values ``x`` of the coordinates under the beliefs ``G``."""
        return (x - self.mu - (self.T1 - self.slot - 1) * self.d.tail_mean_excess(x)
                - self.coupling(G, self.rows(x))[self.pre])

    def residuals(self, u):
        """g and the diagonal Jacobian at the flat prefixes ``u``, stacked."""
        N, T, T1, G = self.N, self.T, self.T1, self.belief(u)
        (_, suffix, fu), g = G, self.residual(G, u)
        ks = np.maximum(T - self.bench[::-1].searchsorted(u, side="right") - T1, 0)  # band
        # u_i is in band i+2
        law = _law(fu, self.slot + 2, suffix.ravel()[self.at + 1], self.square)
        slope = (T - T1 - ks) * law ** (N - 1) * fu**ks
        out = np.empty((2, g.size))
        out[0], out[1] = g, 1.0 + (1.0 - fu) * ((T1 - self.slot - 1) + slope)
        return out


def _enforce_decreasing(u, mu):
    """Clamp into (mu, 1) and repair any non-strict ordering from a raw step; a
    repair that ties values at ``mu`` raises the error BeliefCdf raises."""
    out = u.clip(mu, 1.0 - 1e-12)
    if (out[1:] <= out[:-1] - 1e-12).all():
        return out
    for i in range(1, out.size):
        out[i] = min(out[i], max(out[i - 1] - 1e-12, mu))
    if np.any(np.diff(out) >= 0):
        raise DistributionError("prefix thresholds must be strictly decreasing")
    return out


def solve_one_time(
    d: RewardDistribution,
    N: int,
    T: int,
    T1: int,
    benchmark: ThresholdSequence | None = None,
) -> ThresholdSequence:
    """Thresholds under one-time sharing at slot ``T1``.

    Post-sharing slots reuse the solo benchmark; the ``T1`` pre-sharing
    thresholds are solved as a coupled system whose active branch per
    coordinate depends on where the value falls among the post-sharing
    thresholds (half-open bands, lower edge included).  The solve starts from
    the benchmark's prefix.  Each iteration takes the full diagonal-Newton
    step when it lowers ``max|g|``, else one exact sweep of every coordinate
    with the belief G frozen (counted in ``diagnostics["bisection_rescues"]``):
    the one-candidate case of the lockstep of ``scan_comm_times``.
    """
    if not 1 <= T1 <= T - 1:
        raise DistributionError(f"T1 must lie in [1, {T - 1}], got {T1}")
    if N < 1:
        raise DistributionError(f"agent count must be >= 1, got {N}")
    bench = benchmark if benchmark is not None else solve_single_agent(d, T)
    if bench.horizon_T != T:
        raise SolverError("benchmark horizon does not match T")
    block = _LOCKSTEP.get()
    if block is None or block[:4] != (d, N, T, bench) or T1 not in block[4]:
        block = (d, N, T, bench, _solve_block(d, N, T, bench, [T1]))
    if isinstance(out := block[4][T1], Exception):
        raise out
    return out


def _newton(T1, u, mu):
    """One candidate's solve from ``u``: it yields ``(x, False)`` for g and the Jacobian
    at ``x``, ``(u, True)`` for the sweep of ``u``, and returns ``(u, g, diagnostics)``."""
    diag = {"bisection_rescues": 0, "iterations": 0}
    g, jac = yield u, False
    for it in range(_MAX_ITER):
        diag["iterations"] = it + 1
        norm = float(np.abs(g).max())
        if norm < _RESID_TOL:
            return u, g, diag
        cand = _enforce_decreasing(u - g / jac, mu)
        g_c, jac_c = yield cand, False
        if float(np.abs(g_c).max()) < norm:
            u, g, jac = cand, g_c, jac_c
            continue
        diag["bisection_rescues"] += 1
        u = _enforce_decreasing((yield u, True), mu)
        g, jac = yield u, False
    raise SolverError(
        f"one-time solver did not converge at T1={T1} after {_MAX_ITER} iterations",
        diagnostics={**diag, "residual": float(np.abs(g).max())},
    )


def _solve_block(d, N, T, bench, T1s):
    """The candidates ``T1s`` solved in lockstep, each by its own ``_newton``, exactly as
    alone: a round takes all pending points in one ``residuals`` (one ``integrate``) call,
    then the first unsolved candidate's sweep, if it asks for one.  Maps each ``T1`` up to
    the first failed one to its result; an ``integrate`` error names no candidate."""
    solves = {T1: _newton(T1, bench.values[:T1].copy(), d.mean()) for T1 in T1s}
    replies, solved, limit, systems, sweeps = dict.fromkeys(T1s), {}, np.inf, {}, {}
    while replies or sweeps:
        points, stepped, replies = {}, replies, {}
        for T1, reply in stepped.items():
            try:
                x, sweep = solves[T1].send(reply)
                (sweeps if sweep else points)[T1] = x
            except StopIteration as stop:
                solved[T1] = stop.value
            except (DistributionError, SolverError) as exc:
                solved[T1], limit = exc, min(limit, T1)
        # a sweep waits for every earlier candidate, so a failing one's later ones take none
        sweeps = {T1: x for T1, x in sweeps.items() if T1 < limit}
        first = min(set(T1s) - solved.keys(), default=None)
        ready = {first: sweeps.pop(first)} if first in sweeps else {}
        for ask, stage in ((points, _OneTimeSystem.residuals), (ready, _bisection_sweep)):
            rows = tuple(T1 for T1 in sorted(ask) if T1 < limit)
            if rows:
                if rows not in systems:  # the last rows' system serves until one stops
                    systems = {rows: _OneTimeSystem(d, N, T, rows, bench.values)}
                out = stage(systems[rows], np.concatenate([ask[T1] for T1 in rows]))
                ends = itertools.accumulate(rows)
                replies.update((T1, out[..., end - T1 : end]) for T1, end in zip(rows, ends))
    return {T1: out if isinstance(out, Exception) else ThresholdSequence(
                T, T1, np.concatenate([out[0], bench.values[T1:]]),
                np.concatenate([out[1], bench.residuals[T1:]]), out[2])
            for T1, out in sorted(solved.items()) if T1 <= limit}


def _bisection_sweep(system, u):
    """Every coordinate solved exactly by bisection with each row's G frozen at
    ``u``: a probe pins to ``mu`` every coordinate whose residual is already
    nonnegative there, and ``_bisect`` solves the rest together, one
    ``integrate`` call per halving, with the pinned ones at ``mu``."""
    mu, G, x = system.mu, system.belief(u), np.full(u.size, system.mu)
    g_lo = system.residual(G, x)
    out, free = np.where(g_lo >= 0.0, mu, u), g_lo < 0.0
    if free.any():
        def fun(v):  # x keeps mu at the pinned coordinates
            x[free] = v
            return system.residual(G, x)[free]

        out[free] = _bisect(fun, mu, int(free.sum()))
    return out


def solve_centralized_nonmyopic(d: RewardDistribution, N: int, T: int) -> ThresholdSequence:
    """Thresholds under the always-open policy.

    Forward-looking agents still withhold until slot ``T-1``, so this is the
    one-time system specialized to ``T1 = T-1``: only the top branch is
    active and the single post-sharing threshold is ``u_T = mu``.
    """
    if T < 2:
        raise DistributionError(f"horizon must be >= 2, got {T}")
    return solve_one_time(d, N, T, T - 1)


def welfare_one_time(
    d: RewardDistribution,
    N: int,
    T: int,
    seq: ThresholdSequence,
) -> tuple[float, float]:
    """Total welfare over slots {0..T} and the per-agent exploration count
    under one-time sharing with the solved thresholds ``seq``.

    Welfare splits into the pre-sharing solo phase (explore until the own
    threshold is cleared, then exploit), the pooled reveal at the sharing
    slot, and the post-sharing solo continuation weighted by the belief law
    of the pooled best reward.  This is the one-candidate case of the batch
    that ``scan_comm_times`` scores its candidates with.
    """
    T1 = seq.comm_slot_T1
    if seq.horizon_T != T or not 1 <= T1 <= T - 1:
        raise DistributionError("sequence does not match (T, T1)")
    if N < 1:
        raise DistributionError(f"agent count must be >= 1, got {N}")
    return _welfare_batch(d, N, T, [seq])[0]


def _welfare_batch(d, N, T, seqs):
    """``(welfare, count)`` of every solved sequence in ``seqs``, each exactly
    as alone, from two ``integrate`` calls.

    Pre-sharing slot ``t = 0..T1-1`` integrates ``F^(t+1)`` over
    ``[u_(t+1), u_t]``: one pair per slot, its exponent read by pair.  The
    pooled reveal over ``[u_(T1+1), 1]`` and the resumed solo slots
    ``tau = 1..T-T1-1`` over ``[u_(T1+tau+1), u_(T1+tau)]`` integrate
    ``G^N F^tau``: band ``tau`` is the run of the candidate's ``table``
    segments with ``tau`` post thresholds above, one group, so no segment
    holds a kink of ``G``, and each segment reads ``tau``, ``G``'s band and
    its suffix by pair.
    """
    mu = d.mean()
    T1s = np.array([seq.comm_slot_T1 for seq in seqs])
    B, n = T1s.size, T - T1s  # each row's post thresholds, and its bands
    system = _OneTimeSystem(d, N, T, T1s, np.array([seq.values for seq in seqs]))
    u = np.concatenate([np.ones((B, 1)), system.bench], axis=1)  # u_0 = 1, u_1..u_T
    fu = d.cdf(u)
    slot = np.arange(T)
    pre = system.pre  # per row, the slots t < T1; the rest index the post thresholds
    post = ~pre

    # the pre-sharing slots, candidate after candidate
    hi_u, lo_u, f_hi, f_lo = u[:, :-1][pre], u[:, 1:][pre], fu[:, :-1][pre], fu[:, 1:][pre]
    t = system.slot
    p = t + 1
    powers = f_lo**p  # F(u_t)^t for t = 1..T1
    stieltjes = (hi_u * f_hi**p - lo_u * powers
                 - integrate(d, lambda r: d.cdf(r) ** p[r.pair], lo_u, hi_u))
    tail_mean = 1.0 - hi_u * f_hi - ((1.0 - hi_u) - d.tail_mean_excess(hi_u))
    pre_terms = (system.T1 - t) * (stieltjes + f_hi**t * tail_mean)

    G = system.belief(system.bench[pre])
    s, k, g, g_suffix, _, at = system.table(system.bench, G)
    g_at = g[system.row, at]  # G's band at each threshold (the post ones' are read)
    groups = (k[:, :-1] + T * system.row).ravel()  # band tau: the segments with k = tau
    square = _square(T1s, T)
    tau, g, g_suffix = k[:, :-1].ravel(), g[:, :-1].ravel(), g_suffix.ravel()

    def integrand(r):
        j = r.pair
        f = d.cdf(r)
        return _law(f, g[j], g_suffix[j], square if square is False else square[j]) ** N * f ** tau[j]

    # a row's bands from tau = T-T1-1 up to the pooled reveal's tau = 0
    bands = integrate(d, integrand, s[:, :-1].ravel(), s[:, 1:].ravel(), groups=groups)
    band_tau = (n.cumsum() - 1).repeat(n) - np.arange(n.sum())

    # the belief law at the post thresholds, for the exploration count
    fp = fu[:, 1:][post]
    law = _law(fp, g_at[post], G[1][system.row, g_at - 1][post], _square(T1s, n))
    post_terms = law**N * fp ** (slot + 1 - T1s[:, None])[post]

    pre_explore = _run_sums(powers, T1s)
    pooled = n * (1.0 - bands[band_tau == 0])
    resumed = ((n.repeat(n) - band_tau) * bands)[band_tau > 0]
    resume = _run_sums(resumed[::-1], n[::-1] - 1)[::-1]  # each row's in tau order
    welfare = N * (mu * (1.0 + pre_explore) + _run_sums(pre_terms, T1s) + pooled - resume)
    count = 1.0 + pre_explore + _run_sums(post_terms, n)
    return list(zip(welfare.tolist(), count.tolist()))


def _run_sums(values, sizes):
    """The sums of the consecutive runs of ``sizes`` entries of ``values``, each
    exactly its ``.sum()`` alone: numpy adds an array pairwise to 0.0, and
    ``reduceat`` adds a run to its first entry, so each run gets a 0.0 first."""
    runs = np.zeros(values.size + sizes.size)
    runs[np.arange(values.size) + np.arange(1, sizes.size + 1).repeat(sizes)] = values
    return np.add.reduceat(runs, (sizes + 1).cumsum() - sizes - 1)


def scan_comm_times(
    d: RewardDistribution, N: int, T: int
) -> list[tuple[int, float, ThresholdSequence]]:
    """Solve every candidate sharing slot ``T1 = 1 .. T-1`` and report its welfare.

    Rows are ``(T1, welfare, seq)`` in slot order.  The first candidate whose
    solver or quadrature fails fails the scan with that error; a
    ``QuadratureError`` is re-raised naming ``T1`` and the stage (the
    threshold solve or the welfare), with its estimate and error bound.  The
    solo benchmark is solved once and shared.  The last row, ``T1 = T-1``, is
    the always-open policy: its ``seq`` equals
    ``solve_centralized_nonmyopic(d, N, T)`` exactly.

    A block of consecutive slots, closed once its pieces (``_pieces``) reach
    ``_BLOCK_BYTES``, is solved in lockstep (``_solve_block``), then each
    candidate's result comes out of ``solve_one_time``, so its wrappers see
    every candidate, and the block is scored before a solve failure is
    raised.  A block whose solve or welfare raises a ``QuadratureError`` is
    solved and scored again one candidate at a time, so that the first
    failing ``T1`` raises its own error.
    """
    if T < 2 or N < 1:
        raise DistributionError("need T >= 2 and N >= 1")
    bench, seqs, welfare, blocks, size = solve_single_agent(d, T), [], [], [[]], 0
    for T1 in range(1, T):
        if size >= _BLOCK_BYTES:
            blocks, size = blocks + [[]], 0
        blocks[-1].append(T1)
        size += _PIECE_BYTES * _pieces(d, T, T1)
    while blocks:
        block, stage, solved = blocks.pop(0), "threshold solve", []
        try:
            token = _LOCKSTEP.set((d, N, T, bench, _solve_block(d, N, T, bench, block)))
            try:
                for T1 in block:
                    solved.append(solve_one_time(d, N, T, T1, benchmark=bench))
            finally:  # scored before a solve failure propagates: an earlier welfare failure wins
                _LOCKSTEP.reset(token)
                stage = "welfare"
                welfare += [w for w, _ in _welfare_batch(d, N, T, solved)] if solved else []
        except QuadratureError as exc:
            if len(block) == 1:
                raise _named(exc, stage, block[0]) from exc
            blocks[:0] = [[T1] for T1 in block]  # alone, the first failing T1 raises its own error
            continue
        seqs += solved
    return list(zip(range(1, T), welfare, seqs))


def _named(exc, stage, T1):
    return QuadratureError(f"{exc} (in the {stage} at T1={T1})", exc.estimate, exc.error_bound)


def _pieces(d, T, T1):
    """Candidate ``T1``'s pieces for the block budget: ``T`` pairs and, in a sweep, ``T1``
    cuts, cut at the prior's kinks above mu (its welfare may add those above u_T1)."""
    kinks = d.interior_breakpoints()
    return T + T1 + int(kinks.size - kinks.searchsorted(d.mean(), side="right"))


def _scan_and_pick(d, N, T):
    """``scan_comm_times`` rows and the best ``(T1, seq, welfare)`` among them.

    The first maximum wins, so the earliest slot takes ties.
    """
    scan = scan_comm_times(d, N, T)
    T1, welfare, seq = max(scan, key=lambda row: row[1])  # max keeps the first maximum
    return scan, (T1, seq, welfare)


def optimize_comm_time(
    d: RewardDistribution, N: int, T: int
) -> tuple[int, ThresholdSequence, float]:
    """Pick the sharing slot maximizing welfare (first slot wins ties).

    Runs ``scan_comm_times`` once, each candidate warm-started from the shared
    solo benchmark and solved in lockstep exactly as alone; a candidate whose
    solver fails fails the pick.
    """
    return _scan_and_pick(d, N, T)[1]
