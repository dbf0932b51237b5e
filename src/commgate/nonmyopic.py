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

``scan_comm_times`` solves its candidates one by one and scores their
welfare in blocks: ``_welfare_batch`` takes a block's candidates in two
``integrate`` calls, each candidate's integrals read their constants by
pair, and every candidate gets exactly the welfare ``welfare_one_time``
gives it alone.  A block holds candidates until its estimated quadrature
arrays, ``_PIECE_BYTES`` per piece, reach ``_WELFARE_BLOCK_BYTES``, so the
welfare stage's peak stays within that budget plus one candidate.
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
_WELFARE_BLOCK_BYTES = 2 << 20  # quadrature working set of one block of welfare candidates
# peak bytes a welfare batch holds per piece that its two integrate calls cut
# at depth 0 (per candidate T + T1 and the prior's kinks above u_T1 and mu);
# traced peak of blocks of 4 and 16 candidates: 238-286 B on the fitted hotel
# prior (N = 5 and 50, T = 50 and 150), whose pieces converge at depth 0, and
# 433-518 B on beta(2, 5), beta(0.7, 0.9) and the uniform prior, whose
# pieces refine
_PIECE_BYTES = 512


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
    return np.clip(power - (1.0 - f) * suffix, 0.0, 1.0)


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

    def coupling(self, G, v):
        """Coupling ``D`` under the belief ``G`` at every value of ``v`` in [mu, 1],
        from one ``integrate`` call with ``G``'s kinks as breakpoints."""
        d, N = self.d, self.N
        z = np.unique(np.concatenate([v, self.upper]))

        def band(r):
            f = d.cdf(r)
            return G._given(r, f) ** (N - 1) * f ** _count_at_or_above(self.post_asc, r) * (1.0 - f)

        # the pair [z_j, z_(j+1)] lies in the band of the thresholds at or above z_(j+1)
        weight = self.T - self.T1 - _count_at_or_above(self.post_asc, z[1:])
        pieces = weight * integrate(d, band, z[:-1], z[1:], G.thresholds)
        suffix = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])
        return suffix[np.searchsorted(z, v)]

    def cases(self, u):
        """Half-open band index per coordinate: 0 above the first post threshold,
        else k with post_(k) > u >= post_(k+1)."""
        return self.post.size - np.searchsorted(self.post_asc, u, side="right")

    def residual(self, G, i, v):
        """g at values ``v`` of the coordinates ``i`` under the belief ``G``."""
        return v - self.mu - (self.T1 - i - 1) * self.d.tail_mean_excess(v) - self.coupling(G, v)

    def residuals(self, u):
        d, N, T, T1 = self.d, self.N, self.T, self.T1
        G = BeliefCdf(d, u)
        g = self.residual(G, np.arange(T1), u)
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
    of the pooled best reward.  This is the one-candidate case of the batch
    that ``scan_comm_times`` scores its candidates with.
    """
    T1 = seq.comm_slot_T1
    if seq.horizon_T != T or not 1 <= T1 <= T - 1:
        raise DistributionError("sequence does not match (T, T1)")
    return _welfare_batch(d, N, T, [seq])[0]


def _welfare_batch(d, N, T, seqs):
    """``(welfare, count)`` of every solved sequence in ``seqs``, each exactly
    as alone, from two ``integrate`` calls.

    Pre-sharing slot ``t = 0..T1-1`` integrates ``F^(t+1)`` over
    ``[u_(t+1), u_t]``: one pair per slot, its exponent read by pair.  The
    pooled reveal over ``[ubar_(T1+1), 1]`` and the resumed solo slots
    ``tau = 1..T-T1-1`` over ``[ubar_(T1+tau), ubar_(T1+tau-1)]`` integrate
    ``G^N F^tau``: each such band is one group of the segments between the
    candidate's sorted thresholds, so no segment holds a kink of ``G``, and
    each segment reads ``tau``, ``G``'s band and its suffix by pair.
    """
    mu = d.mean()
    T1s = np.array([seq.comm_slot_T1 for seq in seqs])
    B = T1s.size
    u = np.ones((B, T + 1))  # row c: u_0 = 1, then candidate c's u_1..u_T
    for row, seq in zip(u, seqs):
        row[1:] = seq.values
    fu = d.cdf(u)
    slot = np.arange(T)
    pre = slot < T1s[:, None]  # per row, the slots t < T1; the rest index the post thresholds
    post = ~pre

    # the pre-sharing slots, candidate after candidate
    hi_u, lo_u, f_hi, f_lo = u[:, :-1][pre], u[:, 1:][pre], fu[:, :-1][pre], fu[:, 1:][pre]
    t, p = np.broadcast_to(slot, pre.shape)[pre], np.broadcast_to(slot + 1, pre.shape)[pre]
    powers = f_lo**p  # F(u_t)^t for t = 1..T1
    stieltjes = (hi_u * f_hi**p - lo_u * powers
                 - integrate(d, lambda r: d.cdf(r) ** p[r.pair], lo_u, hi_u))
    tail_mean = 1.0 - hi_u * f_hi - ((1.0 - hi_u) - d.tail_mean_excess(hi_u))
    pre_terms = (np.repeat(T1s, T1s) - t) * (stieltjes + f_hi**t * tail_mean)

    # G's suffix sums per row (see BeliefCdf); the zero padding adds exactly
    suffix = np.zeros((B, T + 1))
    suffix[:, :-1][pre] = powers
    suffix = np.cumsum(suffix[:, ::-1], axis=1)[:, ::-1]
    # a row's T segments join its sorted points (ties give zero-width
    # segments, which integrate skips); a segment's band and G's band there
    # count the thresholds above its lower end
    z = np.sort(u, axis=1)
    band, g, g_post = (np.zeros((B, T), dtype=np.intp) for _ in range(3))
    for c, (seq, T1) in enumerate(zip(seqs, T1s)):
        asc, post_asc = seq.values[T1 - 1 :: -1], seq.values[: T1 - 1 : -1]
        band[c] = post_asc.size - np.searchsorted(post_asc, z[c, :-1], side="right")
        g[c] = T1 + 1 - np.searchsorted(asc, z[c, :-1], side="right")
        g_post[c, T1:] = _count_at_or_above(asc, seq.values[T1:]) + 1
    order = np.argsort(band, axis=1, kind="stable")  # band by band from the top, each ascending
    lo, hi, band, g = (np.take_along_axis(a, order, axis=1) for a in (z[:, :-1], z[:, 1:], band, g))
    g_suffix = np.take_along_axis(suffix, g - 1, axis=1).ravel()
    one = np.broadcast_to((T1s == 1)[:, None], pre.shape)  # one-threshold prefixes (see _law)
    square = one.ravel() if T1s.min() == 1 else False
    tau, g = band.ravel(), g.ravel()

    def integrand(r):
        j = r.pair
        f = d.cdf(r)
        return _law(f, g[j], g_suffix[j], square if square is False else square[j]) ** N * f ** tau[j]

    bands = integrate(d, integrand, lo.ravel(), hi.ravel(),
                      groups=(band + T * np.arange(B)[:, None]).ravel())

    # the belief law at the post thresholds, for the exploration count
    fp, g_suffix = fu[:, 1:][post], np.take_along_axis(suffix, g_post - 1, axis=1)[post]
    law = _law(fp, g_post[post], g_suffix, one[post] if square is not False else False)
    post_terms = law**N * fp ** (slot + 1 - T1s[:, None])[post]

    out = []
    cut = np.cumsum(T1s) - T1s  # row c's first pre-sharing slot; c T - cut[c] is its first band
    for c, T1 in enumerate(T1s.tolist()):
        pre_c, post_c = slice(cut[c], cut[c] + T1), slice(c * T - cut[c], (c + 1) * T - cut[c] - T1)
        pre_explore = float(np.sum(powers[pre_c]))
        explore_gain = mu * (1.0 + pre_explore)
        bands_c = bands[post_c]
        pooled = (T - T1) * (1.0 - float(bands_c[0]))
        resume = float(np.sum((T - T1 - np.arange(1, T - T1)) * bands_c[1:]))
        welfare = N * (explore_gain + float(np.sum(pre_terms[pre_c])) + pooled - resume)
        out.append((welfare, 1.0 + pre_explore + float(np.sum(post_terms[post_c]))))
    return out


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

    The candidates are solved in slot order and scored in blocks: a block
    is scored when its candidates' pieces reach ``_WELFARE_BLOCK_BYTES``, at
    the last candidate, and before a solve failure is re-raised, so an
    earlier candidate's welfare failure comes first.  A block whose batch
    raises is rescored one candidate at a time, so its first failing ``T1``
    raises the error it raises alone.
    """
    if T < 2 or N < 1:
        raise DistributionError("need T >= 2 and N >= 1")
    bench = solve_single_agent(d, T)
    seqs, welfare, size = [], [], 0
    for T1 in range(1, T):
        try:
            seqs.append(solve_one_time(d, N, T, T1, benchmark=bench))
        except (DistributionError, QuadratureError, SolverError) as exc:
            if len(seqs) > len(welfare):  # an earlier welfare failure comes first
                _score_block(d, N, T, seqs[len(welfare):])
            if isinstance(exc, QuadratureError):
                raise _named(exc, "threshold solve", T1) from exc
            raise
        size += _PIECE_BYTES * _pieces(d, T, seqs[-1])
        if size >= _WELFARE_BLOCK_BYTES or T1 == T - 1:
            welfare += _score_block(d, N, T, seqs[len(welfare):])
            size = 0
    return list(zip(range(1, T), welfare, seqs))


def _named(exc, stage, T1):
    return QuadratureError(f"{exc} (in the {stage} at T1={T1})", exc.estimate, exc.error_bound)


def _pieces(d, T, seq):
    """An upper bound on the pieces of ``seq``'s two welfare integrals at depth
    0: its ``T1`` pre-sharing pairs cut at the prior's kinks above ``u_T1``,
    and its ``T`` band segments cut at the kinks above ``mu``."""
    kinks = d.interior_breakpoints()
    T1 = seq.comm_slot_T1
    above = kinks.size - np.searchsorted(kinks, (seq.values[T1 - 1], d.mean()), side="right")
    return T + T1 + int(above.sum())


def _score_block(d, N, T, block):
    """The welfare of a block's candidates; if the batch raises, each is
    scored alone, so the first failing ``T1`` raises its own error, named."""
    try:
        return [welfare for welfare, _ in _welfare_batch(d, N, T, block)]
    except QuadratureError:
        pass
    out = []
    for seq in block:
        try:
            out.append(welfare_one_time(d, N, T, seq)[0])
        except QuadratureError as exc:
            raise _named(exc, "welfare", seq.comm_slot_T1) from exc
    return out


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
    solo benchmark; a candidate whose solver fails fails the pick.
    """
    return _scan_and_pick(d, N, T)[1]
