"""Welfare calculus and schedule optimization for myopic agents.

Myopic agents explore a fresh option whenever their best-known reward sits
below the prior mean, and pool observations truthfully at the end of every
open slot.  Closing communication windows trades an immediate exploitation
loss (the ``x`` terms) against a boosted chance of discovering a better
option for the remaining horizon (the ``y`` terms).  Everything here is a
deterministic function of the reward prior, the number of agents, and the
schedule; the Monte-Carlo simulator cross-checks these formulas in the test
suite.

None of the terms depends on the horizon.  ``_terms`` builds them once per
(prior, N) for a number of window indices: with ``F(mu)``, one tail integral
``I = integral_mu^1 F^N`` gives the exploit mean ``E`` and the residual loss
``P``, every ``x_i`` is closed-form in ``I``, ``mu``, ``F(mu)`` and
``tail(mu)``, and only ``y_i`` is integrated, once per index.  The always-open
welfare for any ``T`` is arithmetic on them, and one window-gain expression,
``_Terms.gain``, scores every window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RewardDistribution, integrate
from .errors import DistributionError, QuadratureError
from .schedules import CommSchedule, check_horizon

__all__ = [
    "MyopicWelfareReport",
    "welfare_centralized",
    "welfare_schedule",
    "deviation_condition",
    "optimize_single_window",
    "scan_single_window",
    "optimize_exact",
    "approximation_ratio",
]


@dataclass(frozen=True)
class MyopicWelfareReport:
    """Total expected reward over slots {0..T} for all agents, plus the
    per-agent expected number of exploration slots."""

    total_welfare: float
    expected_exploration_slots: float


class _Terms(NamedTuple):
    """Horizon-free terms of a (prior, N) pair for window indices ``0..n-1``.

    ``exploit`` is the pooled best reward given it clears mu, ``E``, and
    ``loss`` its residual loss ``P = E - mu``.  ``sx[i]`` is the prefix sum
    ``sum_(j<=i) x_j`` and ``ys[i]`` is ``y_i`` (index 0 gives 0 in both).
    """

    N: int
    fmu: float
    exploit: float
    loss: float
    sx: np.ndarray
    ys: np.ndarray

    def centralized(self, T: int) -> MyopicWelfareReport:
        """The always-open report for horizon ``T`` (see ``welfare_centralized``)."""
        if T < 1:
            raise DistributionError(f"horizon must be >= 1, got {T}")
        q = self.fmu**self.N
        count = (1.0 - q ** (T + 1)) / (1.0 - q)
        return MyopicWelfareReport(self.N * (T + 1) * self.exploit - self.N * count * self.loss, count)

    def gain(self, T: int, s: int, L):
        """Per-agent gain of the window ``(s, L)`` (``L`` may be an array) over
        always-open, ``F(mu)^(N s) ((T-s-L) y_(L+1) - sum_(i<=L) x_i)``, with
        a window that reaches the horizon truncated to existing slots."""
        return self.fmu ** (self.N * s) * (
            np.maximum(T - s - L, 0) * self.ys[L + 1] - self.sx[np.minimum(L, T - s)]
        )


def _terms(d: RewardDistribution, N: int, n: int) -> _Terms:
    """The terms of ``(d, N)`` for window indices ``0..n-1``.

    The self-only and pooled CDF mixtures are affine in ``c = F(mu)^i``, so
    ``x_i = (1 - c^N) P - (1 - c) Q`` in closed form, with
    ``Q = tail(mu) / (1 - F(mu))``.  Only ``y_i`` takes a quadrature.  A
    ``QuadratureError`` is re-raised naming its integral (``I`` or ``y_i``
    with its ``i``), with its estimate and error bound.
    """
    if N < 1:
        raise DistributionError(f"agent count must be >= 1, got {N}")
    mu = d.mean()
    fmu = d.cdf(mu)
    if fmu >= 1.0 - 1e-15:
        raise DistributionError("prior is degenerate at its mean (F(mu) = 1)")
    q = fmu**N
    denom_n = 1.0 - q
    tail = _integral(d, lambda r: d.cdf(r) ** N, f"I = integral_mu^1 F^{N}")
    exploit = (1.0 - mu * q - tail) / denom_n
    loss = (1.0 - mu - tail) / denom_n
    idx = np.arange(n)
    xs = np.zeros(idx.size)
    ys = np.zeros(idx.size)
    if N > 1:
        denom1 = 1.0 - fmu
        xs = (1.0 - fmu ** (idx * N)) * loss - (1.0 - fmu**idx) * (d.tail_mean_excess(mu) / denom1)
        for i in range(1, idx.size):
            ci = fmu**i
            ci_n = fmu ** (i * N)

            def gap(r):
                f = d.cdf(r)
                f_n = f**N
                single = (f - fmu) / denom1 + ci * (1.0 - f) / denom1
                pooled = (f_n - q) / denom_n + ci_n * (1.0 - f_n) / denom_n
                return pooled - single**N

            ys[i] = _integral(d, gap, f"y_{i}")
    return _Terms(N, fmu, exploit, loss, np.cumsum(xs), ys)


def _integral(d, integrand, name):
    """``integral_mu^1 integrand``, a failure named as the integral ``name``."""
    try:
        return integrate(d, integrand, d.mean(), 1.0)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc} (in {name})", exc.estimate, exc.error_bound) from exc


def _geom(q: float, t0: int, t1: int) -> float:
    """sum of q**t for t in [t0, t1]; empty range gives 0."""
    if t1 < t0:
        return 0.0
    return float(np.sum(q ** np.arange(t0, t1 + 1, dtype=float)))


def welfare_centralized(d: RewardDistribution, N: int, T: int) -> MyopicWelfareReport:
    """Welfare and per-agent exploration count under the always-open policy.

    All agents explore in lockstep until the pooled best reward clears mu,
    then exploit it for the rest of the horizon.
    """
    return _terms(d, N, 0).centralized(T)


def welfare_schedule(d: RewardDistribution, N: int, schedule: CommSchedule) -> MyopicWelfareReport:
    """Welfare under an arbitrary window schedule.

    Each window starting at ``s`` with length ``L`` shifts welfare by ``N``
    times its gain ``F(mu)^(N s) ((T - s - L) y_(L+1) - sum_(i<=L) x_i)``
    relative to the always-open baseline; the per-agent exploration count
    replaces the pooled geometric decay with self-only decay inside each
    window.  Windows that run to the end of the horizon are truncated to
    existing slots.
    """
    T = schedule.horizon_T
    # y_(L+1) is read for the longest window L
    terms = _terms(d, N, max((length + 2 for _, length in schedule.windows), default=0))
    base = terms.centralized(T)
    if schedule.is_centralized:
        return base
    fmu = terms.fmu
    q = fmu**N
    gains = 0.0
    count = _geom(q, 0, schedule.windows[0][0])
    for m, (s, length) in enumerate(schedule.windows):
        gains += N * terms.gain(T, s, length)
        count += fmu ** (N * s) * _geom(fmu, 1, min(length, T - s))
        next_start = schedule.windows[m + 1][0] if m + 1 < len(schedule.windows) else T
        count += _geom(q, s + length + 1, next_start)
    return MyopicWelfareReport(base.total_welfare + gains, count)


class _WindowTable(NamedTuple):
    centralized: MyopicWelfareReport
    condition: tuple[bool, int, float]  # deviation_condition's result
    scan: list[tuple[int, float]]  # scan_single_window's rows
    best: tuple[CommSchedule, float]  # optimize_single_window's result


def _single_window_table(d, N, T) -> _WindowTable:
    """Centralized report, deviation test, window scan and best single window,
    all read off one term table as array expressions over the lengths L."""
    if T < 2:
        raise DistributionError(f"horizon must be >= 2, got {T}")
    check_horizon(T)
    terms = _terms(d, N, T + 1)
    base = terms.centralized(T)
    lengths = np.arange(1, T)
    y_next = terms.ys[lengths + 1]
    # lengths with y_(L+1) <= 0 never pay off: their threshold is infinite
    rhs = np.divide(terms.sx[lengths], y_next, out=np.full(T - 1, np.inf), where=y_next > 0.0)
    rhs += lengths
    k = int(np.argmin(rhs))  # first minimum: the shortest minimizing length
    best_rhs = float(rhs[k])
    holds = T > best_rhs
    welfare = base.total_welfare + N * terms.gain(T, 0, lengths)
    scan = list(zip(lengths.tolist(), welfare.tolist()))
    if holds:
        # first maximum: the smallest maximizing window length wins ties
        length, best_welfare = scan[int(np.argmax(welfare))]
        best = (CommSchedule(T, ((0, length),)), best_welfare)
    else:
        best = (CommSchedule.centralized(T), base.total_welfare)
    condition = (holds, int(lengths[k]) if best_rhs < np.inf else 0, best_rhs)
    return _WindowTable(base, condition, scan, best)


def deviation_condition(d: RewardDistribution, N: int, T: int) -> tuple[bool, int, float]:
    """Whether any window schedule beats the always-open policy.

    Returns ``(holds, minimizing_length, threshold_T)`` where the condition is
    ``T > threshold_T`` with ``threshold_T`` the minimum over window lengths L
    of ``sum_(i<=L) x_i / y_(L+1) + L``.  Lengths whose ``y_(L+1) <= 0`` are
    treated as infinitely expensive (this covers the 0/0 single-agent case,
    where no sharing benefit exists and the condition is declared false).
    Needs ``T >= 2``.
    """
    return _single_window_table(d, N, T).condition


def scan_single_window(d: RewardDistribution, N: int, T: int) -> list[tuple[int, float]]:
    """Welfare of the single leading window {0..L-1} for every L in 1..T-1.

    Each row is the centralized welfare plus the window's gain
    ``N ((T-L) y_(L+1) - sum_(i<=L) x_i)``.  Needs ``T >= 2``.
    """
    return _single_window_table(d, N, T).scan


def optimize_single_window(d: RewardDistribution, N: int, T: int) -> tuple[CommSchedule, float]:
    """Linear-time scan for the best single leading no-communication window.

    If the deviation condition fails, the always-open schedule is returned
    unchanged.  Otherwise the smallest maximizing window length of the
    ``scan_single_window`` rows wins.  The x/y terms are computed once and
    reused through prefix sums, so the scan costs O(T) objective evaluations.
    """
    return _single_window_table(d, N, T).best


def optimize_exact(d: RewardDistribution, N: int, T: int) -> tuple[CommSchedule, float]:
    """Exact optimum over all optimal-form window layouts.

    Only layouts with the first window at slot 0 and exactly one open slot
    between consecutive windows can be optimal.  A window ``(s, L)`` adds
    ``F(mu)^(N s) ((T-s-L) y_(L+1) - sum_(i<=L) x_i)`` and the next window
    starts at ``s + L + 1``, so a forward dynamic program over start slots
    finds the optimum in O(T^2) arithmetic on the one x/y table that the
    single-window scan also builds.  The first strictly greater total wins,
    so shorter and earlier layouts win exact ties.
    """
    _, schedule, welfare = _exact_search(d, N, T)
    return schedule, welfare


def _exact_search(d, N, T):
    """``optimize_exact``'s dynamic program; also returns the always-open
    report it measures gains against, as ``(report, schedule, welfare)``."""
    check_horizon(T)
    terms = _terms(d, N, T + 1)
    base = terms.centralized(T)
    # best[s]: the largest prefix total whose next window may start at s, and
    # prev[s] the start of that prefix's last window.  Rounding is monotone,
    # so keeping only the largest prefix per start never loses the maximum.
    best = np.full(T + 1, -np.inf)
    best[0] = 0.0
    prev = np.zeros(T + 1, dtype=int)
    best_total, last = 0.0, None
    for s in range(T - 1):
        g = best[s] + terms.gain(T, s, np.arange(1, T - s))
        ends = best[s + 2 :]  # window (s, L) lets the next one start at s + L + 1
        wins = g > ends
        ends[wins] = g[wins]
        prev[s + 2 :][wins] = s
        k = int(np.argmax(g))
        if g[k] > best_total:
            best_total, last = float(g[k]), (s, k + 1)
    windows = []
    while last is not None:
        windows.insert(0, last)
        s = last[0]
        last = (prev[s], s - prev[s] - 1) if s > 0 else None
    return base, CommSchedule(T, tuple(windows)), base.total_welfare + N * best_total


def approximation_ratio(d: RewardDistribution, N: int, T: int) -> float:
    """Guaranteed fraction of the exact-search welfare achieved by the
    single-window scan: ``1 - (F(mu)^(2N) - F(mu)^(TN)) / (1 - F(mu)^(TN))``.
    Tends to 1 as the number of agents grows."""
    if T < 2 or N < 1:
        raise DistributionError("need T >= 2 and N >= 1")
    fmu = d.cdf(d.mean())
    q_t = fmu ** (T * N)
    if q_t >= 1.0:
        return 1.0
    return 1.0 - (fmu ** (2 * N) - q_t) / (1.0 - q_t)
