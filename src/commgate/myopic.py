"""Welfare calculus and schedule optimization for myopic agents.

Myopic agents explore a fresh option whenever their best-known reward sits
below the prior mean, and pool observations truthfully at the end of every
open slot.  Closing communication windows trades an immediate exploitation
loss (the ``x`` terms) against a boosted chance of discovering a better
option for the remaining horizon (the ``y`` terms).  Everything here is a
deterministic function of the reward prior, the number of agents, and the
schedule; the Monte-Carlo simulator cross-checks these formulas in the test
suite.

One tail integral ``I = integral_mu^1 F^N`` per (prior, N) gives the
always-open welfare, and with it every ``x_i`` in closed form in ``I``,
``mu``, ``F(mu)`` and ``tail(mu)``.  Only ``y_i`` is integrated, once per
window index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RewardDistribution, integrate
from .errors import DistributionError
from .schedules import CommSchedule

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
    per-agent expected number of exploration slots and the per-window
    welfare deltas relative to the always-open policy."""

    total_welfare: float
    expected_exploration_slots: float
    per_window_terms: tuple[float, ...] = ()


def _check_prior(d: RewardDistribution, N: int) -> float:
    if N < 1:
        raise DistributionError(f"agent count must be >= 1, got {N}")
    fmu = d.cdf(d.mean())
    if fmu >= 1.0 - 1e-15:
        raise DistributionError("prior is degenerate at its mean (F(mu) = 1)")
    return fmu


def _xy_table(d: RewardDistribution, N: int, base: MyopicWelfareReport, T: int, idx):
    """``x_i`` and ``y_i`` for every window index in ``idx`` (index 0 gives 0).

    The self-only and pooled CDF mixtures are affine in ``c = F(mu)^i``, so
    ``x_i = (1 - c^N) P - (1 - c) Q`` in closed form, with
    ``Q = tail(mu) / (1 - F(mu))`` and the residual loss ``P`` read back from
    ``base``, the always-open report for horizon ``T``, whose welfare is
    ``N ((T+1) mu + (T+1 - count) P)``.  Only ``y_i`` takes a quadrature.
    """
    idx = np.asarray(idx)
    xs = np.zeros(idx.size)
    ys = np.zeros(idx.size)
    if N == 1:
        return xs, ys
    mu = d.mean()
    fmu = d.cdf(mu)
    fmu_n = fmu**N
    denom1 = 1.0 - fmu
    denom_n = 1.0 - fmu_n
    P = (base.total_welfare / N - (T + 1) * mu) / (T + 1 - base.expected_exploration_slots)
    xs = (1.0 - fmu ** (idx * N)) * P - (1.0 - fmu**idx) * (d.tail_mean_excess(mu) / denom1)
    for k, i in enumerate(idx.tolist()):
        if i == 0:
            continue
        ci = fmu**i
        ci_n = fmu ** (i * N)

        def gap(r):
            f = d.cdf(r)
            single = (f - fmu) / denom1 + ci * (1.0 - f) / denom1
            pooled = (f**N - fmu_n) / denom_n + ci_n * (1.0 - f**N) / denom_n
            return pooled - single**N

        ys[k] = integrate(d, gap, mu, 1.0)
    return xs, ys


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
    fmu = _check_prior(d, N)
    if T < 1:
        raise DistributionError(f"horizon must be >= 1, got {T}")
    mu = d.mean()
    q = fmu**N
    tail = integrate(d, lambda r: d.cdf(r) ** N, mu, 1.0)
    # pooled best reward given it clears mu, and its residual loss P = E - mu
    exploit = (1.0 - mu * q - tail) / (1.0 - q)
    loss = (1.0 - mu - tail) / (1.0 - q)
    count = (1.0 - q ** (T + 1)) / (1.0 - q)
    total = N * (T + 1) * exploit - N * count * loss
    return MyopicWelfareReport(total, count)


def welfare_schedule(d: RewardDistribution, N: int, schedule: CommSchedule) -> MyopicWelfareReport:
    """Welfare under an arbitrary window schedule.

    Each window starting at ``s`` with length ``L`` shifts welfare by
    ``N F(mu)^(N s) ((T - s - L) y_(L+1) - sum_(i<=L) x_i)`` relative to the
    always-open baseline; the per-agent exploration count replaces the pooled
    geometric decay with self-only decay inside each window.  Windows that
    run to the end of the horizon are truncated to existing slots.
    """
    T = schedule.horizon_T
    fmu = _check_prior(d, N)
    base = welfare_centralized(d, N, T)
    if schedule.is_centralized:
        return base
    max_len = max(length for _, length in schedule.windows)
    xs, ys = _xy_table(d, N, base, T, np.arange(max_len + 2))
    sx = np.cumsum(xs)

    terms = []
    q = fmu**N
    count = _geom(q, 0, schedule.windows[0][0])
    for m, (s, length) in enumerate(schedule.windows):
        eff_len = min(length, T - s)  # blocked slots past T never happen
        gain = N * fmu ** (N * s) * (
            max(T - s - length, 0) * ys[length + 1] - sx[eff_len]
        )
        terms.append(gain)
        count += fmu ** (N * s) * _geom(fmu, 1, eff_len)
        next_start = schedule.windows[m + 1][0] if m + 1 < len(schedule.windows) else T
        count += _geom(q, s + length + 1, next_start)
    return MyopicWelfareReport(base.total_welfare + sum(terms), count, tuple(terms))


class _WindowTable(NamedTuple):
    centralized: MyopicWelfareReport
    condition: tuple[bool, int, float]  # deviation_condition's result
    scan: list[tuple[int, float]]  # scan_single_window's rows
    best: tuple[CommSchedule, float]  # optimize_single_window's result


def _single_window_table(d, N, T) -> _WindowTable:
    """Centralized report, deviation test, window scan and best single window,
    all read off one x/y table and its prefix sums."""
    _check_prior(d, N)
    if T < 2:
        raise DistributionError(f"horizon must be >= 2, got {T}")
    base = welfare_centralized(d, N, T)
    xs, ys = _xy_table(d, N, base, T, np.arange(T + 1))
    sx = np.cumsum(xs)
    best_len = 0
    best_rhs = np.inf
    for length in range(1, T):
        y_next = ys[length + 1]
        if y_next <= 0.0:
            continue
        rhs = sx[length] / y_next + length
        if rhs < best_rhs:
            best_rhs = rhs
            best_len = length
    holds = T > best_rhs

    scan = [
        (length, base.total_welfare + N * ((T - length) * ys[length + 1] - sx[length]))
        for length in range(1, T)
    ]
    if holds:
        # first maximum: the smallest maximizing window length wins ties
        length, welfare = scan[int(np.argmax([w for _, w in scan]))]
        best = (CommSchedule(T, ((0, length),)), welfare)
    else:
        best = (CommSchedule.centralized(T), base.total_welfare)
    return _WindowTable(base, (holds, best_len, float(best_rhs)), scan, best)


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
    fmu = _check_prior(d, N)
    base = welfare_centralized(d, N, T)
    xs, ys = _xy_table(d, N, base, T, np.arange(T + 1))
    sx = np.cumsum(xs)
    # best[s]: the largest prefix total whose next window may start at s, and
    # prev[s] the start of that prefix's last window.  Rounding is monotone,
    # so keeping only the largest prefix per start never loses the maximum.
    best = np.full(T + 1, -np.inf)
    best[0] = 0.0
    prev = np.zeros(T + 1, dtype=int)
    best_total, last = 0.0, None
    for s in range(T - 1):
        lengths = np.arange(1, T - s)
        g = best[s] + fmu ** (N * s) * ((T - s - lengths) * ys[lengths + 1] - sx[lengths])
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
