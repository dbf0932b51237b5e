"""Exploration-threshold solvers for forward-looking agents.

Forward-looking agents withhold what they know until the last slot at which
sharing is still possible, so any schedule collapses to a single effective
sharing slot ``T1``.  Before ``T1`` each agent follows a time-varying
exploration threshold that anticipates the pooled reveal; afterwards she is
on her own and follows the solo optimal-stopping thresholds.  The pre-sharing
thresholds solve a coupled nonlinear system (the belief over other agents'
progress depends on the thresholds themselves); we solve it from the solo
sequence with a full diagonal-Newton step, else one exact G-frozen sweep.
With the belief frozen, each coordinate's coupling is a suffix of one
cumulative integral over the sorted prefix and post-sharing thresholds.
"""

from __future__ import annotations

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
        t_seg = _count_at_or_above(self._asc, r) + 1
        # numpy squares for a scalar exponent 2, which its array pow can miss
        # by an ulp: with one threshold, band 2's F^2 is that exact square
        power = f**t_seg if self.thresholds.size > 1 else np.where(t_seg == 1, f, f * f)
        return np.clip(power - (1.0 - f) * self._suffix[t_seg - 1], 0.0, 1.0)


def _bisect(fun, mu, n):
    """Roots in ``[mu, 1]`` of ``n`` increasing functions, negative at ``mu``.

    ``fun`` maps ``n`` values to their ``n`` residuals; every root is halved
    together, 60 times, so one call serves all of them per step.
    """
    lo = np.full(n, mu)
    hi = np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = fun(mid) < 0.0
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


def _count_at_or_above(asc, r):
    """Number of entries of the ascending array ``asc`` that are >= each ``r``."""
    return asc.size - np.searchsorted(asc, r, side="left")


class _OneTimeSystem:
    """Residuals and diagonal Jacobian of the pre-sharing threshold system.

    Coordinate ``i`` (slot ``t = i+1``) has the residual
    ``u - mu - (T1-t) tail(u) - D(u)``.  The coupling ``D(x)`` integrates
    ``(T-T1-k) G^(N-1) F^k (1-F)`` over ``[x, 1]``, ``k(r)`` being the number
    of post-sharing thresholds at or above ``r``; for ``u`` in band ``k`` it
    is ``w[k] + (T-T1-k) (C(u) - C(upper[k]))``, with ``upper = [1, *post]``,
    ``C`` the unweighted integral and the segment table ``w[k] = D(upper[k])``.
    With ``G`` frozen, one ``integrate`` call takes the consecutive pairs of
    the sorted distinct points of the coordinates, ``post`` and 1, each to
    `integrate`'s one tolerance, and suffix sums of the weighted pair
    integrals give ``D`` at every point in O(pieces + T).  No pair straddles
    a post threshold, so each has one weight.  A band's lower edge ``post[k]``,
    where the count is ``k + 1``, is a pair's lower end, and ``integrate``
    evaluates no pair at its ends (it nudges those nodes inward, at least to
    the next float).
    """

    def __init__(self, d, N, T, T1, post):
        self.d = d
        self.N = N
        self.T = T
        self.T1 = T1
        self.post = np.asarray(post, dtype=float)  # ubar_(T1+1) .. ubar_T, descending
        self.post_asc = self.post[::-1].copy()
        self.upper = np.concatenate([[1.0], self.post])
        self.mu = d.mean()

    def coupling(self, G, v, kinks=True):
        """Coupling ``D`` under the belief ``G`` at every value of ``v`` in [mu, 1],
        from one ``integrate`` call with ``G``'s kinks as breakpoints.  With
        ``kinks=False`` they are left out: that is exact where ``v`` holds every
        threshold of ``G``, as in `residuals`, since the kinks are then pair
        ends and ``integrate`` cuts a pair only at kinks strictly inside it."""
        d, N = self.d, self.N
        z = np.unique(np.concatenate([v, self.upper]))

        def band(r):
            f = d.cdf(r)
            return G._given(r, f) ** (N - 1) * f ** _count_at_or_above(self.post_asc, r) * (1.0 - f)

        # the pair [z_j, z_(j+1)] lies in the band of the thresholds at or above z_(j+1)
        weight = self.T - self.T1 - _count_at_or_above(self.post_asc, z[1:])
        pieces = weight * integrate(d, band, z[:-1], z[1:], G.thresholds if kinks else ())
        suffix = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])
        return suffix[np.searchsorted(z, v)]

    def cases(self, u):
        """Half-open band index per coordinate: 0 above the first post threshold,
        else k with post_(k) > u >= post_(k+1)."""
        return self.post.size - np.searchsorted(self.post_asc, u, side="right")

    def residual(self, G, i, v, kinks=True):
        """g at values ``v`` of the coordinates ``i`` under the belief ``G``."""
        D = self.coupling(G, v, kinks)
        return v - self.mu - (self.T1 - i - 1) * self.d.tail_mean_excess(v) - D

    def residuals(self, u):
        d, N, T, T1 = self.d, self.N, self.T, self.T1
        G = BeliefCdf(d, u)
        g = self.residual(G, np.arange(T1), u, kinks=False)
        ks = self.cases(u)
        fu = d.cdf(u)
        slope = (T - T1 - ks) * G._given(u, fu) ** (N - 1) * fu**ks
        jac = 1.0 + (1.0 - fu) * ((T1 - np.arange(T1) - 1) + slope)
        return g, jac


def _enforce_decreasing(u, mu):
    """Clamp into (mu, 1) and repair any non-strict ordering from a raw step."""
    out = np.clip(u, mu, 1.0 - 1e-12)
    for i in range(1, out.size):
        out[i] = min(out[i], max(out[i - 1] - 1e-12, mu))
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
    with the belief G frozen (counted in ``diagnostics["bisection_rescues"]``).
    """
    if not 1 <= T1 <= T - 1:
        raise DistributionError(f"T1 must lie in [1, {T - 1}], got {T1}")
    if N < 1:
        raise DistributionError(f"agent count must be >= 1, got {N}")
    bench = benchmark if benchmark is not None else solve_single_agent(d, T)
    if bench.horizon_T != T:
        raise SolverError("benchmark horizon does not match T")
    mu = d.mean()
    post = bench.values[T1:]
    system = _OneTimeSystem(d, N, T, T1, post)

    diag = {"bisection_rescues": 0, "iterations": 0}
    u = bench.values[:T1].copy()
    g, jac = system.residuals(u)
    for it in range(_MAX_ITER):
        diag["iterations"] = it + 1
        norm = float(np.max(np.abs(g)))
        if norm < _RESID_TOL:
            break
        cand = _enforce_decreasing(u - g / jac, mu)
        g_c, jac_c = system.residuals(cand)
        if float(np.max(np.abs(g_c))) < norm:
            u, g, jac = cand, g_c, jac_c
            continue
        diag["bisection_rescues"] += 1
        u = _bisection_sweep(system, u, mu)
        g, jac = system.residuals(u)
    else:
        raise SolverError(
            f"one-time solver did not converge at T1={T1} after {_MAX_ITER} iterations",
            diagnostics={**diag, "residual": float(np.max(np.abs(g)))},
        )

    values = np.concatenate([u, post])
    residuals = np.concatenate([g, bench.residuals[T1:]])
    return ThresholdSequence(T, T1, values, residuals, diag)


def _bisection_sweep(system, u, mu):
    """Solve every coordinate exactly by bisection with G frozen at ``u``.

    A probe at ``mu`` pins to ``mu`` every coordinate whose residual is
    already nonnegative there; ``_bisect`` solves the rest together, one
    ``integrate`` call per halving.
    """
    i = np.arange(u.size)
    G = BeliefCdf(system.d, u)
    g_lo = system.residual(G, i, np.full(u.size, mu))
    out = np.where(g_lo >= 0.0, mu, u)
    i = i[g_lo < 0.0]
    if i.size:
        out[i] = _bisect(lambda v: system.residual(G, i, v), mu, i.size)
    return _enforce_decreasing(out, mu)


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
    of the pooled best reward.
    """
    T1 = seq.comm_slot_T1
    if seq.horizon_T != T or not 1 <= T1 <= T - 1:
        raise DistributionError("sequence does not match (T, T1)")
    system = _OneTimeSystem(d, N, T, T1, seq.values[T1:])
    G, post, mu = BeliefCdf(d, seq.prefix), system.post, system.mu
    u = np.concatenate([[1.0], seq.values])  # u[t] = u_t with u[0] = 1
    fu = d.cdf(u)

    pre_explore = float(np.sum(fu[1 : T1 + 1] ** np.arange(1, T1 + 1)))
    explore_gain = mu * (1.0 + pre_explore)

    # pre-sharing slot t = 0..T1-1 integrates F^(t+1) over [u_(t+1), u_t]: the
    # exponent is one more than the number of prefix thresholds at or above r,
    # and G's kinks are the pair ends, so they need not be breakpoints
    t = np.arange(T1)
    hi_u, lo_u, p = u[:T1], u[1 : T1 + 1], t + 1
    stieltjes = (
        hi_u * fu[:T1] ** p
        - lo_u * fu[1 : T1 + 1] ** p
        - integrate(d, lambda r: d.cdf(r) ** (1 + _count_at_or_above(G._asc, r)), lo_u, hi_u)
    )
    tail_mean = 1.0 - hi_u * fu[:T1] - ((1.0 - hi_u) - d.tail_mean_excess(hi_u))
    pre = float(np.sum((T1 - t) * (stieltjes + fu[:T1] ** t * tail_mean)))

    # the pooled reveal over [ubar_(T1+1), 1] and the resumed solo slots
    # tau = 1..T-T1-1 over [ubar_(T1+tau), ubar_(T1+tau-1)] integrate
    # G^N F^tau, tau being the number of post thresholds at or above r
    def band(r):
        f = d.cdf(r)
        return G._given(r, f) ** N * f ** _count_at_or_above(system.post_asc, r)

    bands = integrate(d, band, post, system.upper[:-1], G.thresholds)  # G's kinks
    pooled = (T - T1) * (1.0 - float(bands[0]))
    resume = float(np.sum((T - T1 - np.arange(1, T - T1)) * bands[1:]))

    welfare = N * (explore_gain + pre + pooled - resume)

    taus = np.arange(1, T - T1 + 1)
    fp = d.cdf(post)
    count = 1.0 + pre_explore + float(np.sum(G._given(post, fp) ** N * fp**taus))
    return welfare, count


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
    """
    bench = solve_single_agent(d, T)
    out = []
    for T1 in range(1, T):
        stage = "threshold solve"
        try:
            seq = solve_one_time(d, N, T, T1, benchmark=bench)
            stage = "welfare"
            welfare, _ = welfare_one_time(d, N, T, seq)
        except QuadratureError as exc:
            raise QuadratureError(f"{exc} (in the {stage} at T1={T1})", exc.estimate,
                                  exc.error_bound) from exc
        out.append((T1, welfare, seq))
    return out


def _scan_and_pick(d, N, T):
    """``scan_comm_times`` rows and the best ``(T1, seq, welfare)`` among them.

    The first maximum wins, so the earliest slot takes ties.
    """
    if T < 2 or N < 1:
        raise DistributionError("need T >= 2 and N >= 1")
    scan = scan_comm_times(d, N, T)
    T1, welfare, seq = max(scan, key=lambda row: row[1])  # max keeps the first maximum
    return scan, (T1, seq, welfare)


def optimize_comm_time(
    d: RewardDistribution, N: int, T: int
) -> tuple[int, ThresholdSequence, float]:
    """Pick the sharing slot maximizing welfare (first slot wins ties).

    Runs ``scan_comm_times`` once, each candidate warm-started from the shared
    solo benchmark; a candidate whose solver fails fails the pick.
    """
    return _scan_and_pick(d, N, T)[1]
