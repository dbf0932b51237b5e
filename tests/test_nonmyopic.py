import numpy as np
import pytest

from commgate.distributions import QuadratureSpec, integrate
from commgate.errors import DistributionError
from commgate.nonmyopic import (
    BeliefCdf,
    belief_cdf,
    optimize_comm_time,
    scan_comm_times,
    solve_centralized_nonmyopic,
    solve_one_time,
    solve_single_agent,
    welfare_one_time,
)
from commgate.schedules import CommSchedule
from commgate.simulate import SimConfig, SimState, step


class TestSingleAgent:
    def test_terminal_threshold_is_mean(self, uniform):
        for T in (1, 5, 10):
            seq = solve_single_agent(uniform, T)
            assert seq.values[-1] == pytest.approx(0.5, abs=1e-12)

    def test_uniform_two_slots_left_closed_form(self, uniform):
        # u - mu = 2 * (1-u)^2 / 2 has root (3 - sqrt(3)) / 2
        seq = solve_single_agent(uniform, 10)
        assert seq.values[7] == pytest.approx((3 - np.sqrt(3)) / 2, abs=1e-9)

    def test_strictly_decreasing(self, uniform):
        seq = solve_single_agent(uniform, 10)
        assert np.all(np.diff(seq.values) < 0)

    def test_residuals_tiny(self, hotel_dist):
        seq = solve_single_agent(hotel_dist, 20)
        assert np.max(np.abs(seq.residuals)) < 1e-10


class TestBeliefCdf:
    def test_normalization_and_bottom_branch(self, uniform):
        seq = solve_single_agent(uniform, 5)
        G = belief_cdf(uniform, seq.values[:3])
        assert G(1.0) == pytest.approx(1.0, abs=1e-12)
        last = seq.values[2]
        r = 0.5 * last
        assert G(r) == pytest.approx(uniform.cdf(r) ** 4, abs=1e-12)

    def test_requires_decreasing_prefix(self, uniform):
        with pytest.raises(DistributionError):
            belief_cdf(uniform, [0.6, 0.7])

    def test_monotone_on_grid(self, uniform, hotel_dist):
        for d in (uniform, hotel_dist):
            seq = solve_one_time(d, 5, 12, 6)
            G = belief_cdf(d, seq.prefix)
            grid = np.linspace(0, 1, 10_001)
            vals = G(grid)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_simulated_state_law(self, uniform):
        # law of one agent's best-known reward after 4 solo slots, thresholds
        # from the T=5 solo solve truncated to 3 slots
        seq5 = solve_single_agent(uniform, 5)
        prefix = seq5.values[:3]
        G = belief_cdf(uniform, prefix)

        from commgate.nonmyopic import ThresholdSequence

        thr = ThresholdSequence(3, 3, prefix.copy(), np.zeros(3))
        cfg = SimConfig(
            dist=uniform, n_agents=1, horizon=3,
            schedule=CommSchedule.centralized(3), agent_kind="nonmyopic",
            thresholds=thr, replications=1, master_seed=0,
        )
        reps = 1_000_000
        state = SimState.initial(reps, 1)
        rng = np.random.Generator(np.random.Philox(2024))
        for t in range(4):
            state = step(state, t, cfg, rng)
        draws = np.sort(state.m[:, 0])
        i = np.arange(1, reps + 1)
        ks = np.max(np.abs(G(draws) - i / reps))
        assert ks < 0.005


class TestCentralized:
    def test_boundary_rows(self, uniform):
        N, T = 4, 8
        seq = solve_centralized_nonmyopic(uniform, N, T)
        mu = 0.5
        assert seq.values[-1] == pytest.approx(mu, abs=1e-8)
        # the t = T-1 equation uses the full belief over the prefix
        G = belief_cdf(uniform, seq.prefix)
        u = seq.values[T - 2]
        rhs = integrate(
            uniform,
            lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)),
            u, 1.0, QuadratureSpec(breakpoints=tuple(seq.prefix)),
        )
        assert u - mu == pytest.approx(rhs, abs=1e-7)

    def test_single_agent_collapse(self, uniform):
        solo = solve_single_agent(uniform, 10)
        seq = solve_one_time(uniform, 1, 10, 4)
        assert np.max(np.abs(seq.values - solo.values)) < 1e-8

    def test_strictly_decreasing(self, hotel_dist):
        seq = solve_centralized_nonmyopic(hotel_dist, 10, 15)
        assert np.all(np.diff(seq.values) < 0)

    def test_exploration_count_matches_simulation(self, uniform):
        # withhold-until-the-end policy: count = 1 + F(mu)^(TN) + sum F(u_t)^t
        from commgate.simulate import SimConfig, run

        N, T = 5, 12
        seq = solve_centralized_nonmyopic(uniform, N, T)
        fmu = uniform.cdf(uniform.mean())
        count = 1 + fmu ** (T * N) + sum(
            uniform.cdf(seq.values[t - 1]) ** t for t in range(1, T)
        )
        cfg = SimConfig(
            dist=uniform, n_agents=N, horizon=T,
            schedule=CommSchedule.centralized(T), agent_kind="nonmyopic",
            thresholds=seq, replications=100_000, master_seed=55,
        )
        res = run(cfg)
        assert abs(res.exploration_slots_mean - count) / count < 0.02


class TestOneTime:
    def test_last_slot_equals_centralized(self, uniform):
        N, T = 5, 10
        a = solve_one_time(uniform, N, T, T - 1)
        b = solve_centralized_nonmyopic(uniform, N, T)
        assert np.max(np.abs(a.values - b.values)) < 1e-7

    def test_piecewise_monotone(self, uniform, hotel_dist):
        for d, N, T, T1 in ((uniform, 5, 20, 3), (uniform, 5, 20, 10), (hotel_dist, 30, 25, 4)):
            seq = solve_one_time(d, N, T, T1)
            pre = seq.values[:T1]
            post = seq.values[T1:]
            assert np.all(np.diff(pre) < 0) or len(pre) < 2
            assert np.all(np.diff(post) < 0)

    def test_dip_and_jump_shape(self, uniform):
        # anticipating the reveal, agents go reluctant approaching the
        # sharing slot, then the threshold jumps back up right after it
        N, T, T1 = 100, 50, 20
        seq = solve_one_time(uniform, N, T, T1)
        cent = solve_centralized_nonmyopic(uniform, N, T)
        assert seq.values[T1 - 1] < cent.values[T1 - 1]
        assert seq.values[T1] > seq.values[T1 - 1]

    def test_residuals_under_tighter_quadrature(self, uniform):
        # re-evaluate every converged row with a 10x tighter integrator
        N, T, T1 = 5, 12, 5
        tight = QuadratureSpec(abs_tol=1e-10)
        seq = solve_one_time(uniform, N, T, T1)
        G = belief_cdf(uniform, seq.prefix)
        mu = uniform.mean()
        post = seq.values[T1:]
        for i in range(T1):
            t, u = i + 1, seq.values[i]
            k = int(np.sum(post > u))
            spec = QuadratureSpec(abs_tol=1e-10, breakpoints=tuple(seq.prefix))
            if k == 0:
                coupling = (T - T1) * integrate(
                    uniform, lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)), u, 1.0, spec
                )
            else:
                coupling = (T - T1) * integrate(
                    uniform, lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)), post[0], 1.0, spec
                )
                for j in range(1, k):
                    coupling += (T - T1 - j) * integrate(
                        uniform,
                        lambda r, j=j: G(r) ** (N - 1) * uniform.cdf(r) ** j * (1 - uniform.cdf(r)),
                        post[j], post[j - 1], spec,
                    )
                coupling += (T - T1 - k) * integrate(
                    uniform,
                    lambda r, k=k: G(r) ** (N - 1) * uniform.cdf(r) ** k * (1 - uniform.cdf(r)),
                    u, post[k - 1], spec,
                )
            resid = u - mu - (T1 - t) * uniform.tail_mean_excess(u) - coupling
            assert abs(resid) < 1e-8

    def test_newton_and_bisection_agree(self, uniform, hotel_dist):
        for d, N, T, T1 in ((uniform, 5, 12, 5), (hotel_dist, 10, 10, 3)):
            a = solve_one_time(d, N, T, T1, method="newton")
            b = solve_one_time(d, N, T, T1, method="bisection")
            assert np.max(np.abs(a.values - b.values)) < 1e-6

    def test_csv_export(self, uniform, tmp_path):
        seq = solve_one_time(uniform, 3, 6, 2)
        path = tmp_path / "thresholds.csv"
        seq.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u_t,residual"
        assert len(lines) == 7


class TestWelfareOneTime:
    def test_exploration_mitigated_at_optimum(self, uniform):
        N, T = 5, 20
        t1, seq, _ = optimize_comm_time(uniform, N, T)
        _, count_mech = welfare_one_time(uniform, N, T, seq)
        cent = solve_centralized_nonmyopic(uniform, N, T)
        fmu = uniform.cdf(0.5)
        count_cent = 1 + fmu ** (T * N) + sum(
            uniform.cdf(cent.values[t - 1]) ** t for t in range(1, T)
        )
        assert count_mech <= count_cent

    def test_welfare_stable_under_quadrature_refinement(self, uniform):
        N, T, T1 = 5, 14, 6
        seq = solve_one_time(uniform, N, T, T1)
        w1, _ = welfare_one_time(uniform, N, T, seq, QuadratureSpec())
        w2, _ = welfare_one_time(uniform, N, T, seq, QuadratureSpec(abs_tol=0.5e-9))
        w4, _ = welfare_one_time(uniform, N, T, seq, QuadratureSpec(abs_tol=0.25e-9))
        assert abs(w2 - w1) < 1e-6
        assert abs(w4 - w1) < 1e-6


class TestOptimizeCommTime:
    def test_matches_independent_rescan(self, uniform):
        N, T = 4, 10
        t1_star, _, welfare = optimize_comm_time(uniform, N, T)
        rescan = {}
        for T1 in range(1, T):
            seq = solve_one_time(uniform, N, T, T1)
            w, _ = welfare_one_time(uniform, N, T, seq)
            rescan[T1] = w
        best = max(rescan, key=lambda k: (rescan[k], -k))
        assert t1_star == best
        assert welfare == pytest.approx(rescan[best], rel=1e-10)

    def test_scan_reports_all_candidates(self, uniform):
        scan = scan_comm_times(uniform, 3, 6)
        assert [t1 for t1, _, _ in scan] == [1, 2, 3, 4, 5]
        assert all(seq is not None for _, _, seq in scan)
        # the last row is the always-open policy, solved and scored as such
        _, welfare, seq = scan[-1]
        cent = solve_centralized_nonmyopic(uniform, 3, 6)
        assert np.array_equal(seq.values, cent.values)
        assert welfare == welfare_one_time(uniform, 3, 6, cent)[0]
