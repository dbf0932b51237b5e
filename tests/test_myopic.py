import gc
import json
import weakref

import numpy as np
import pytest

from commgate import myopic
from commgate.cli import _schedule_from_config
from commgate.distributions import RewardDistribution, integrate
from commgate.errors import QuadratureError, ScheduleError
from commgate.myopic import (
    approximation_ratio,
    deviation_condition,
    optimize_exact,
    optimize_single_window,
    scan_single_window,
    welfare_centralized,
    welfare_schedule,
)
from commgate.schedules import CommSchedule


def xy_terms(d, N, i):
    """``x_i`` and ``y_i`` from the horizon-free term table."""
    terms = myopic._terms(d, N, i + 1)
    return float(terms.sx[i] - terms.sx[i - 1]), float(terms.ys[i])


def riemann_xy(d, N, i, points=2_000_001):
    """Dense midpoint Riemann sum oracle for the window loss/benefit terms."""
    mu = d.mean()
    fmu = d.cdf(mu)
    grid = np.linspace(mu, 1.0, points)
    mids = 0.5 * (grid[:-1] + grid[1:])
    h = grid[1] - grid[0]
    f = d.cdf(mids)
    single = (f - fmu) / (1 - fmu) + fmu**i * (1 - f) / (1 - fmu)
    pooled = (f**N - fmu**N) / (1 - fmu**N) + fmu ** (i * N) * (1 - f**N) / (1 - fmu**N)
    return float(np.sum(single - pooled) * h), float(np.sum(pooled - single**N) * h)


class TestSchedules:
    def test_window_layout_rules(self):
        CommSchedule(10, ((0, 3), (5, 2)))
        CommSchedule(10, ((0, 3), (4, 2)))  # slot 3 open in between: legal
        with pytest.raises(ScheduleError):
            CommSchedule(10, ((0, 3), (3, 2)))  # no open slot in between
        with pytest.raises(ScheduleError):
            CommSchedule(10, ((8, 4),))  # runs past the horizon
        with pytest.raises(ScheduleError):
            CommSchedule(10, ((0, 0),))

    def test_one_time_layout(self):
        s = CommSchedule.one_time(10, 4)
        assert s.windows == ((0, 4), (5, 6))
        assert s.open_slots() == [4]
        assert s.blocked(0) and s.blocked(10) and not s.blocked(4)

    def test_json_roundtrip(self):
        # the schedule echoed in a simulate CSV header, less its horizon,
        # reads back as a config schedule
        s = CommSchedule(12, ((0, 2), (4, 3)))
        echo = json.loads(s.to_json())
        assert echo.pop("T") == 12
        assert _schedule_from_config(echo, 12) == s

    @pytest.mark.parametrize("T,windows", [(10.5, ((0, 2),)), (10, ((0.9, 2),)), (10, ((0, 2.2),)),
                                           (10.0, ()), (True, ()), (10, ((True, 2),)),
                                           (10, ((0, np.float64(2)),))],
                             ids=["T_fraction", "start_fraction", "len_fraction", "T_float",
                                  "T_bool", "start_bool", "len_numpy_float"])
    def test_fields_must_be_integers(self, T, windows):
        # a fraction or a boolean used to be truncated to an int silently
        with pytest.raises(ScheduleError, match="integers"):
            CommSchedule(T, windows)

    def test_numpy_integers_accepted(self):
        s = CommSchedule(np.int64(10), ((np.int32(0), np.int64(2)),))
        assert s == CommSchedule(10, ((0, 2),))
        assert type(s.horizon_T) is int and all(type(v) is int for v in s.windows[0])


class TestXYTerms:
    def test_single_agent_vanishes(self):
        d = RewardDistribution.beta(2, 3)
        assert xy_terms(d, 1, 1) == (0.0, 0.0)
        assert xy_terms(d, 1, 7) == (0.0, 0.0)

    @pytest.mark.parametrize("N", [3, 50])
    @pytest.mark.parametrize("d_name", ["uniform", "beta", "hotel"])
    def test_matches_riemann_oracle(self, d_name, N, uniform, hotel_dist):
        d = {"uniform": uniform, "beta": RewardDistribution.beta(2, 5), "hotel": hotel_dist}[d_name]
        for i in (1, 2):
            x, y = xy_terms(d, N, i)
            ox, oy = riemann_xy(d, N, i)
            assert x == pytest.approx(ox, abs=1e-7)
            assert y == pytest.approx(oy, abs=1e-7)

    def test_table_integrates_once_per_index(self, monkeypatch):
        # x_i is closed-form: one tail integral for the table plus one per y_i
        calls = []
        integrate = myopic.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(myopic, "integrate", counting)
        myopic._single_window_table(RewardDistribution.beta(2, 5), 5, 12)
        assert len(calls) == 12 + 1

    @pytest.mark.parametrize("d_name,N,first", [("beta", 5, 64), ("beta", 50, 68),
                                                ("uniform", 2, 54), ("hotel", 50, 142)])
    def test_benefit_settles_bit_for_bit(self, d_name, N, first, uniform, hotel_dist):
        # from the first i with N F(mu)^i + F(mu)^(iN)/(1-F(mu)^N) <= 2^-53
        # the window-index parts of y_i's integrand no longer move its
        # doubles, so every later y_i is the same double: a term table could
        # stop integrating there
        d = {"uniform": uniform, "beta": RewardDistribution.beta(2, 5), "hotel": hotel_dist}[d_name]
        fmu = d.cdf(d.mean())
        i = next(i for i in range(1, 1000)
                 if N * fmu**i + fmu ** (i * N) / (1.0 - fmu**N) <= 2.0**-53)
        assert i == first
        ys = myopic._terms(d, N, i + 6).ys
        assert np.array_equal(ys[i:], np.full(6, ys[i]))

    def test_benefit_grows_with_window_length(self, uniform):
        ys = [xy_terms(uniform, 3, i)[1] for i in (1, 2, 3)]
        assert ys[0] < ys[1] < ys[2]

    @pytest.mark.parametrize("d_name,N", [("uniform", 2), ("uniform", 5), ("beta", 3), ("beta", 20)])
    def test_nonnegative(self, d_name, N, uniform):
        d = uniform if d_name == "uniform" else RewardDistribution.beta(2, 5)
        for i in (1, 2, 5, 12, 50):
            x, y = xy_terms(d, N, i)
            assert x >= -1e-9
            assert y >= -1e-9


class TestWelfare:
    def test_exploration_count_uniform_n1_t1(self, uniform):
        rep = welfare_centralized(uniform, 1, 1)
        assert rep.expected_exploration_slots == pytest.approx(1.5, abs=1e-12)

    def test_total_bounded(self, uniform):
        rep = welfare_centralized(uniform, 5, 20)
        assert 0 < rep.total_welfare <= 5 * 21
        assert 1.0 <= rep.expected_exploration_slots <= 21

    def test_empty_schedule_equals_centralized(self, uniform):
        base = welfare_centralized(uniform, 5, 20)
        via = welfare_schedule(uniform, 5, CommSchedule.centralized(20))
        assert via.total_welfare == base.total_welfare
        assert via.expected_exploration_slots == base.expected_exploration_slots

    def test_single_window_matches_direct_expression(self, uniform):
        # the one-window welfare formula evaluated independently
        N, T, start, length = 4, 15, 3, 4
        rep = welfare_schedule(uniform, N, CommSchedule(T, ((start, length),)))
        fmu = uniform.cdf(uniform.mean())
        xs = [xy_terms(uniform, N, i)[0] for i in range(1, length + 1)]
        y = xy_terms(uniform, N, length + 1)[1]
        base = welfare_centralized(uniform, N, T).total_welfare
        direct = base + N * fmu ** (N * start) * ((T - start - length) * y - sum(xs))
        assert rep.total_welfare == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("d_name", ["uniform", "beta", "hotel"])
    def test_single_window_schedule_is_scan_row(self, d_name, uniform, hotel_dist):
        # welfare_schedule and the scan share one gain expression, so a
        # leading window scores the same to the last bit on either path
        d = {"uniform": uniform, "beta": RewardDistribution.beta(2, 5), "hotel": hotel_dist}[d_name]
        N, T = 5, 16
        for L, welfare in scan_single_window(d, N, T):
            assert welfare_schedule(d, N, CommSchedule(T, ((0, L),))).total_welfare == welfare

    def test_hotel_deviation_condition_holds(self, hotel_dist):
        holds, _, _ = deviation_condition(hotel_dist, 20, 50)
        assert holds


class TestDeviationCondition:
    def test_single_agent_never_holds(self, uniform):
        for T in (2, 5, 12):
            holds, best_len, rhs = deviation_condition(uniform, 1, T)
            assert not holds
            assert rhs == np.inf

    @pytest.mark.parametrize("d_name,N", [("uniform", 1), ("uniform", 5), ("beta", 5), ("hotel", 20)])
    def test_matches_loop_reference(self, d_name, N, uniform, hotel_dist):
        # the array expression against the loop it replaced, on the same terms
        d = {"uniform": uniform, "beta": RewardDistribution.beta(2, 5), "hotel": hotel_dist}[d_name]
        T = 30
        terms = myopic._terms(d, N, T + 1)
        best_len, best_rhs = 0, np.inf
        for length in range(1, T):
            if terms.ys[length + 1] > 0.0:
                rhs = terms.sx[length] / terms.ys[length + 1] + length
                if rhs < best_rhs:
                    best_len, best_rhs = length, rhs
        assert deviation_condition(d, N, T) == (T > best_rhs, best_len, best_rhs)

    def test_equivalent_to_exact_search(self, uniform):
        for T in range(2, 13):
            holds, _, _ = deviation_condition(uniform, 5, T)
            sched, _ = optimize_exact(uniform, 5, T)
            assert holds == (not sched.is_centralized)


class TestOptimizers:
    def test_condition_fails_returns_centralized(self, uniform):
        sched, welfare = optimize_single_window(uniform, 1, 10)
        assert sched.is_centralized
        assert welfare == pytest.approx(welfare_centralized(uniform, 1, 10).total_welfare)

    def test_scan_argmax_matches_riemann_objective(self, uniform):
        N, T = 5, 10
        sched, welfare = optimize_single_window(uniform, N, T)
        xs = np.array([0.0] + [riemann_xy(uniform, N, i, 200_001)[0] for i in range(1, T)])
        ys = [0.0, 0.0] + [riemann_xy(uniform, N, i, 200_001)[1] for i in range(2, T + 1)]
        objective = [N * ((T - L) * ys[L + 1] - xs[1 : L + 1].sum()) for L in range(1, T)]
        assert sched.windows[0][1] == int(np.argmax(objective)) + 1

    def test_returned_welfare_is_scan_maximum(self, uniform):
        N, T = 5, 12
        _, welfare = optimize_single_window(uniform, N, T)
        scan = scan_single_window(uniform, N, T)
        assert welfare == pytest.approx(max(w for _, w in scan), rel=1e-12)
        assert welfare >= welfare_centralized(uniform, N, T).total_welfare

    def test_prior_is_not_pinned_after_use(self):
        d = RewardDistribution.beta(2, 5)
        optimize_single_window(d, 3, 6)
        xy_terms(d, 3, 2)
        ref = weakref.ref(d)
        del d
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("T", [100, 300])
    def test_exact_at_long_horizons(self, hotel_dist, T):
        # the dynamic program has no horizon cap: its layout keeps the
        # optimal form, beats the scan, and is scored by welfare_schedule
        for d in (RewardDistribution.beta(2, 5), hotel_dist):
            sched, welfare = optimize_exact(d, 5, T)
            assert sched.windows and sched.windows[0][0] == 0
            for (s, length), (nxt, _) in zip(sched.windows, sched.windows[1:]):
                assert nxt == s + length + 1
            assert welfare >= optimize_single_window(d, 5, T)[1]
            layout = welfare_schedule(d, 5, sched).total_welfare
            assert welfare == pytest.approx(layout, rel=1e-12, abs=0)

    def test_exact_structure_and_dominance(self, uniform):
        sched, welfare = optimize_exact(uniform, 5, 12)
        # leading window at 0, exactly one open slot between windows
        prev_end = None
        for start, length in sched.windows:
            if prev_end is None:
                assert start == 0
            else:
                assert start == prev_end + 2
            prev_end = start + length - 1
        assert welfare >= optimize_single_window(uniform, 5, 12)[1] - 1e-9

    def test_exact_beats_brute_force_enumeration(self, uniform, hotel_dist):
        # independent brute force over every valid window layout: any start,
        # any gap of at least one open slot, windows allowed to reach T.  Each
        # set of blocked slots is one layout, its maximal runs the windows.
        # One term table scores every layout through the window-gain
        # expression; welfare_schedule scores a fixed subsample itself.
        T = 8
        for d in (uniform, RewardDistribution.beta(2, 5), hotel_dist):
            for N in (2, 5):
                terms = myopic._terms(d, N, T + 3)  # y_(L+1) up to a window of all T+1 slots
                base = terms.centralized(T).total_welfare
                best = -np.inf
                for mask in range(2 ** (T + 1)):
                    windows = []
                    for t in range(T + 1):
                        if not mask >> t & 1:
                            continue
                        if windows and sum(windows[-1]) == t:
                            windows[-1][1] += 1
                        else:
                            windows.append([t, 1])
                    gains = 0.0
                    for s, length in windows:
                        gains += N * terms.gain(T, s, length)
                    if mask % 37 == 0:
                        schedule = CommSchedule(T, windows)
                        assert base + gains == welfare_schedule(d, N, schedule).total_welfare
                    best = max(best, base + gains)
                _, welfare = optimize_exact(d, N, T)
                assert welfare == pytest.approx(best, rel=1e-12)


class TestApproximationRatio:
    def test_direct_arithmetic(self, uniform):
        expect = 1 - (0.5**4 - 0.5**8) / (1 - 0.5**8)
        assert approximation_ratio(uniform, 2, 4) == pytest.approx(expect, rel=1e-12)

    def test_degenerate_prior_edge(self):
        class PointMassAtOne:
            def mean(self):
                return 1.0
            def cdf(self, r):
                return 0.0  # no mass below the mean

        assert approximation_ratio(PointMassAtOne(), 3, 10) == 1.0

    def test_asymptotically_optimal(self, uniform):
        # 1 - 1e-100 rounds to 1.0 in binary64, so the bound is an >=
        assert approximation_ratio(uniform, 500, 10) >= 1 - 1e-100


class TestQuadratureFailure:
    @pytest.mark.parametrize("N", [6, 40])
    def test_failure_names_the_tail_integral(self, N):
        # beta(0.5, 0.5) fails I = integral_mu^1 F^N at N = 6 and 40 (ROADMAP
        # item 3); the error names it and keeps its estimate and bound
        d = RewardDistribution.beta(0.5, 0.5)
        with pytest.raises(QuadratureError) as want:
            integrate(d, lambda r: d.cdf(r) ** N, d.mean(), 1.0)
        with pytest.raises(QuadratureError) as got:
            optimize_single_window(d, N, 20)
        assert str(got.value) == f"{want.value} (in I = integral_mu^1 F^{N})"
        assert got.value.estimate == want.value.estimate
        assert got.value.error_bound == want.value.error_bound

    def test_failure_names_y_i(self, uniform, monkeypatch):
        calls = []

        def failing_fourth(*args):  # I, y_1, y_2, then y_3
            calls.append(args)
            if len(calls) == 4:
                raise QuadratureError("injected", 0.25, 1e-3)
            return integrate(*args)

        monkeypatch.setattr(myopic, "integrate", failing_fourth)
        with pytest.raises(QuadratureError, match=r"^injected \(in y_3\)$") as got:
            scan_single_window(uniform, 3, 10)
        assert (got.value.estimate, got.value.error_bound) == (0.25, 1e-3)
