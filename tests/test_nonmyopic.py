import tracemalloc

import numpy as np
import pytest

from commgate import distributions, nonmyopic
from commgate.distributions import RewardDistribution, integrate
from commgate.errors import DistributionError, QuadratureError, SolverError
from commgate.nonmyopic import (
    _MAX_ITER,
    _RESID_TOL,
    BeliefCdf,
    _bisection_sweep,
    _enforce_decreasing,
    _OneTimeSystem,
    optimize_comm_time,
    scan_comm_times,
    solve_centralized_nonmyopic,
    solve_one_time,
    solve_single_agent,
    welfare_one_time,
)
from commgate.schedules import CommSchedule
from commgate.simulate import SimConfig, SimState, step


def cold_sweep_prefix(d, N, T, T1):
    """Pre-sharing thresholds by exact G-frozen sweeps alone, started cold halfway
    between the mean and 1: a reference independent of the Newton steps."""
    mu = d.mean()
    system = _OneTimeSystem(d, N, T, [T1], solve_single_agent(d, T).values)
    u = _enforce_decreasing(np.full(T1, 0.5 * (mu + 1.0)), mu)
    for _ in range(_MAX_ITER):
        if np.max(np.abs(system.residuals(u)[0])) < _RESID_TOL:
            return u
        u = _enforce_decreasing(_bisection_sweep(system, u), mu)
    raise AssertionError(f"sweep-only solve did not converge at T1={T1}")


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

    def test_matches_scalar_roots(self):
        from scipy.optimize import brentq

        d, T = RewardDistribution.beta(2, 5), 30
        mu = d.mean()
        seq = solve_single_agent(d, T)
        assert seq.diagnostics == {"solver": "bisection"}
        for t in range(1, T):
            root = brentq(lambda u: u - mu - (T - t) * d.tail_mean_excess(u), mu, 1.0, xtol=1e-15)
            assert seq.values[t - 1] == pytest.approx(root, abs=1e-13)


def bisect_60(fun, mu, n):
    """``_bisect`` without its fixed-point stop: every one of the 60 halvings."""
    lo, hi = np.full(n, mu), np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = fun(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestBisect:
    """The halving stops at its fixed point with the roots of all 60 halvings."""

    @pytest.fixture
    def bisections(self, monkeypatch):
        """Per ``_bisect`` call: its roots, the 60-halving roots of the same
        functions, and the halvings it ran."""
        made, bisect = [], nonmyopic._bisect

        def checked(fun, mu, n):
            halvings = []
            roots = bisect(lambda v: halvings.append(v) or fun(v), mu, n)
            made.append((roots, bisect_60(fun, mu, n), len(halvings)))
            return roots

        monkeypatch.setattr(nonmyopic, "_bisect", checked)
        return made

    @staticmethod
    def assert_bit_for_bit(made):
        assert made
        for roots, reference, halvings in made:
            assert roots.tobytes() == reference.tobytes()
            assert halvings < 60

    @pytest.mark.parametrize("prior", ["uniform", "beta25", "hotel"])
    def test_solo_roots_equal_sixty_halvings(self, prior, uniform, hotel_dist, bisections):
        d = {"uniform": uniform, "beta25": RewardDistribution.beta(2, 5), "hotel": hotel_dist}[prior]
        for T in (2, 7, 50):
            solve_single_agent(d, T)
        self.assert_bit_for_bit(bisections)

    def test_rescue_sweep_roots_equal_sixty_halvings(self, bisections):
        # the bench's solo roots, then the one sweep that rescues T1 = 5
        seq = solve_one_time(RewardDistribution.beta(2, 50), 30, 20, 5)
        assert seq.diagnostics["bisection_rescues"] == 1 and len(bisections) == 2
        self.assert_bit_for_bit(bisections)


def law_clip_reference(f, t_seg, suffix, square):
    """``_law`` as written with ``np.clip``."""
    power = f**t_seg
    if square is not False:
        power = np.where(square, np.where(t_seg == 1, f, f * f), power)
    return np.clip(power - (1.0 - f) * suffix, 0.0, 1.0)


def enforce_clip_reference(u, mu):
    """``_enforce_decreasing`` as written with ``np.clip`` and ``np.all``."""
    out = np.clip(u, mu, 1.0 - 1e-12)
    if np.all(out[1:] <= out[:-1] - 1e-12):
        return out
    for i in range(1, out.size):
        out[i] = min(out[i], max(out[i - 1] - 1e-12, mu))
    if np.any(np.diff(out) >= 0):
        raise DistributionError("prefix thresholds must be strictly decreasing")
    return out


class TestClampsKeepSignedZero:
    """The clamps equal their ``np.clip`` forms bit for bit: a min/max form
    would turn ``-0.0`` into ``+0.0``."""

    EDGES = [-0.0, 0.0, 1.0, np.nan]

    def test_law(self):
        f, t_seg, suffix = (a.ravel() for a in np.meshgrid(
            self.EDGES + [0.3, -0.5, 1.5], [1, 2, 3], self.EDGES + [2.0, -1.0], indexing="ij"))
        for square in (False, t_seg % 2 == 0):
            got = nonmyopic._law(f, t_seg, suffix, square)
            want = law_clip_reference(f, t_seg, suffix, square)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            assert np.signbit(got[got == 0.0]).any() and np.isnan(got).any()

    def test_enforce_decreasing(self):
        cases = [([1.0, 0.5, -0.0], mu) for mu in (0.0, -0.0)] + [
            ([1.0, 0.5, 0.0, -0.0], 0.0), ([np.nan, 0.5], 0.0), ([0.7, np.nan, 0.2], 0.1),
            ([1.0, 1.0, 0.5], 0.25), ([0.4, 0.6], 0.5), ([-0.0], 0.0), ([1.0], 0.5)]
        returned = []
        for u, mu in cases:
            try:
                want = enforce_clip_reference(np.array(u), mu)
            except DistributionError:
                with pytest.raises(DistributionError):
                    _enforce_decreasing(np.array(u), mu)
                continue
            got = _enforce_decreasing(np.array(u), mu)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            returned.append(got)
        flat = np.concatenate(returned)
        assert np.signbit(flat[flat == 0.0]).any() and np.isnan(flat).any()


def two_branch_law(G, r, f):
    """``BeliefCdf._given`` with the band below the last threshold as its own
    branch ``F^(L+1)``: the reference of the one-formula form."""
    L = G.thresholds.size
    t_seg = L - np.searchsorted(G._asc, r, side="left") + 1
    out = np.where(t_seg > L, f ** (L + 1), f**t_seg - (1.0 - f) * G._suffix[np.minimum(t_seg, L) - 1])
    return np.clip(out, 0.0, 1.0)


class TestBeliefCdf:
    @pytest.mark.parametrize("prior", ["uniform", "hotel", "beta25", "beta0709"])
    def test_one_formula_matches_two_branches(self, prior, uniform, hotel_dist):
        d = {"uniform": uniform, "hotel": hotel_dist, "beta25": RewardDistribution.beta(2, 5),
             "beta0709": RewardDistribution.beta(0.7, 0.9)}[prior]
        rng = np.random.default_rng(11)
        for T, T1 in ((50, 25), (14, 1), (40, 39), (12, 2)):
            u = solve_single_agent(d, T).values[:T1]
            G = BeliefCdf(d, u)
            r = np.concatenate([rng.random(20_000), u, np.nextafter(u, 0.0),
                                np.nextafter(u, 1.0), [0.0, 1.0]])
            f = d.cdf(r)
            want = two_branch_law(G, r, f)
            assert np.array_equal(G._given(r, f), want)
            assert np.array_equal(G(r), want)
            assert [G(float(x)) for x in r[-100:]] == want[-100:].tolist()

    def test_normalization_and_bottom_branch(self, uniform):
        seq = solve_single_agent(uniform, 5)
        G = BeliefCdf(uniform, seq.values[:3])
        assert G(1.0) == pytest.approx(1.0, abs=1e-12)
        last = seq.values[2]
        r = 0.5 * last
        assert G(r) == pytest.approx(uniform.cdf(r) ** 4, abs=1e-12)

    def test_requires_decreasing_prefix(self, uniform):
        with pytest.raises(DistributionError):
            BeliefCdf(uniform, [0.6, 0.7])

    def test_monotone_on_grid(self, uniform, hotel_dist):
        for d in (uniform, hotel_dist):
            seq = solve_one_time(d, 5, 12, 6)
            G = BeliefCdf(d, seq.prefix)
            grid = np.linspace(0, 1, 10_001)
            vals = G(grid)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_simulated_state_law(self, uniform):
        # law of one agent's best-known reward after 4 solo slots, thresholds
        # from the T=5 solo solve truncated to 3 slots
        seq5 = solve_single_agent(uniform, 5)
        prefix = seq5.values[:3]
        G = BeliefCdf(uniform, prefix)

        from commgate.nonmyopic import ThresholdSequence

        thr = ThresholdSequence(3, 3, prefix.copy(), np.zeros(3))
        cfg = SimConfig(
            dist=uniform, n_agents=1, horizon=3,
            schedule=CommSchedule.centralized(3), agent_kind="nonmyopic",
            thresholds=thr, replications=1, master_seed=2024,
        )
        reps = 1_000_000
        state = SimState.initial(reps, 1)
        for t in range(4):
            state = step(state, t, cfg)
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
        G = BeliefCdf(uniform, seq.prefix)
        u = seq.values[T - 2]
        rhs = integrate(
            uniform,
            lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)),
            u, 1.0, seq.prefix,
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

    def test_residuals_under_tighter_quadrature(self, uniform, monkeypatch):
        # re-evaluate every converged row with a 10x tighter integrator
        N, T, T1 = 5, 12, 5
        seq = solve_one_time(uniform, N, T, T1)
        monkeypatch.setattr(distributions, "_ABS_TOL", 1e-10)
        G = BeliefCdf(uniform, seq.prefix)
        mu = uniform.mean()
        post = seq.values[T1:]
        for i in range(T1):
            t, u = i + 1, seq.values[i]
            k = int(np.sum(post > u))
            if k == 0:
                coupling = (T - T1) * integrate(
                    uniform, lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)), u, 1.0, seq.prefix
                )
            else:
                coupling = (T - T1) * integrate(
                    uniform, lambda r: G(r) ** (N - 1) * (1 - uniform.cdf(r)), post[0], 1.0,
                    seq.prefix,
                )
                for j in range(1, k):
                    coupling += (T - T1 - j) * integrate(
                        uniform,
                        lambda r, j=j: G(r) ** (N - 1) * uniform.cdf(r) ** j * (1 - uniform.cdf(r)),
                        post[j], post[j - 1], seq.prefix,
                    )
                coupling += (T - T1 - k) * integrate(
                    uniform,
                    lambda r, k=k: G(r) ** (N - 1) * uniform.cdf(r) ** k * (1 - uniform.cdf(r)),
                    u, post[k - 1], seq.prefix,
                )
            resid = u - mu - (T1 - t) * uniform.tail_mean_excess(u) - coupling
            assert abs(resid) < 1e-8

    def test_newton_and_bisection_agree(self, uniform, hotel_dist):
        for d, N, T, T1 in ((uniform, 5, 12, 5), (hotel_dist, 10, 10, 3)):
            a = solve_one_time(d, N, T, T1)
            assert np.max(np.abs(a.prefix - cold_sweep_prefix(d, N, T, T1))) < 1e-6

    def test_non_convergence_raises_with_diagnostics(self, uniform, monkeypatch):
        # the solver's own exhaustion, not an injected failure: one iteration
        # cannot reach the stop from the solo prefix
        monkeypatch.setattr("commgate.nonmyopic._MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"did not converge at T1=4 after 1 iterations") as exc:
            solve_one_time(uniform, 3, 8, 4)
        diag = exc.value.diagnostics
        assert diag["iterations"] == 1
        assert np.isfinite(diag["residual"]) and diag["residual"] >= _RESID_TOL

    @pytest.mark.parametrize(
        "ab, N, T, T1", [((2, 50), 30, 20, 5), ((2, 5), 5, 300, 75), ((50, 2), 200, 300, 75)]
    )
    def test_sweep_fallback_converges(self, ab, N, T, T1):
        # the full Newton step is rejected at least once in each of these
        d = RewardDistribution.beta(*ab)
        seq = solve_one_time(d, N, T, T1)
        assert np.max(np.abs(seq.residuals)) < 1e-8
        assert seq.diagnostics["bisection_rescues"] >= 1
        u = seq.prefix
        assert np.all(np.diff(u) < 0) and d.mean() < u[-1] and u[0] < 1.0
        assert np.max(np.abs(u - cold_sweep_prefix(d, N, T, T1))) < 1e-6


class TestIntegrateCalls:
    """Each residual evaluation, bisection step and welfare term is one batch."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The ``(lo, hi)`` segment arrays and the ``groups`` of every
        ``integrate`` call of nonmyopic."""
        from commgate import nonmyopic

        made = []

        def counting(*args, **kwargs):
            made.append((np.atleast_1d(args[2]), np.atleast_1d(args[3]), kwargs.get("groups")))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(nonmyopic, "integrate", counting)
        return made

    @staticmethod
    def pairs(lo, hi, groups):
        """The integrals of a coupling call, each run of ``groups`` (each segment
        if None) from its first ``lo`` to its last ``hi``, empty ones dropped,
        and the points of its non-empty segments."""
        if groups is None:
            groups = np.arange(lo.size)
        first = np.flatnonzero(np.diff(groups, prepend=-1))
        last = np.append(first[1:], groups.size) - 1
        keep, live = lo[first] < hi[last], lo < hi
        return lo[first][keep], hi[last][keep], np.append(lo[live], hi[live][-1])

    @staticmethod
    def chain(lo, hi, upper):
        """The points of a coupling call: its pairs must join consecutive
        sorted distinct points that include every post threshold and 1."""
        z = np.append(lo, hi[-1])
        assert np.array_equal(hi, z[1:]) and np.all(np.diff(z) > 0)
        assert np.isin(upper, z).all()
        return z

    @pytest.mark.parametrize("T1", [1, 4, 9])
    def test_residuals_make_one_call(self, hotel_dist, calls, T1):
        N, T = 10, 10
        bench = solve_single_agent(hotel_dist, T)
        u = bench.values[:T1].copy()
        upper = np.concatenate([[1.0], bench.values[T1:]])
        _OneTimeSystem(hotel_dist, N, T, [T1], bench.values).residuals(u)
        # one pair per gap between the T + 1 distinct points of u, post and 1
        [call] = calls
        lo, hi, segments = self.pairs(*call)
        z = self.chain(lo, hi, upper)
        assert np.array_equal(z, np.unique(np.concatenate([u, upper])))
        assert lo.size == z.size - 1 == T
        # G's thresholds are pair ends: they cut no pair, and add no segment
        assert np.array_equal(segments, z) and call[0].size == T

    def test_bisection_makes_one_call_per_step(self, uniform, calls, monkeypatch):
        N, T, T1 = 5, 12, 5
        bench = solve_single_agent(uniform, T)
        u = bench.values[:T1].copy()
        upper = np.concatenate([[1.0], bench.values[T1:]])
        halvings, bisect = [], nonmyopic._bisect
        monkeypatch.setattr(nonmyopic, "_bisect", lambda fun, mu, n: bisect(
            lambda v: halvings.append(v) or fun(v), mu, n))
        _bisection_sweep(_OneTimeSystem(uniform, N, T, [T1], bench.values), u)
        # the probe at mu, then one call per halving of all coordinates: 60,
        # or fewer if the halving reaches its fixed point first
        assert len(calls) == 1 + len(halvings) <= 61
        # at mu every value is the last post threshold: post and 1 alone,
        # cut into segments at G's thresholds
        lo, hi, segments = self.pairs(*calls[0])
        assert np.array_equal(self.chain(lo, hi, upper), np.sort(upper))
        assert np.array_equal(segments, np.union1d(upper, u))
        for call in calls[1:]:
            lo, hi, segments = self.pairs(*call)
            z = self.chain(lo, hi, upper)
            assert z[0] == 0.5 and lo.size == z.size - 1 <= T
            assert np.array_equal(segments, np.union1d(z, u))

    @pytest.mark.parametrize("prior", ["uniform", "hotel"])
    def test_coupling_calls_integrand_once_per_depth(self, prior, uniform, hotel_dist, monkeypatch):
        from commgate import nonmyopic

        d = hotel_dist if prior == "hotel" else uniform
        N, T, T1 = 10, 12, 5
        bench = solve_single_agent(d, T)
        u = bench.values[:T1].copy()
        upper = np.concatenate([[1.0], bench.values[T1:]])
        system = _OneTimeSystem(d, N, T, [T1], bench.values)
        G = system.belief(u)
        sizes, pieces = [], []

        def counting(d, f, lo, hi, groups):
            # pieces: the segments cut at every prior kink strictly inside them
            cuts, live = d.interior_breakpoints(), lo < hi
            inside = (np.searchsorted(cuts, hi[live], side="left")
                      - np.searchsorted(cuts, lo[live], side="right"))
            pieces.append(int(np.sum(inside + 1)))
            sizes.append([])
            return integrate(d, lambda r: sizes[-1].append(r.size) or f(r), lo, hi, groups=groups)

        monkeypatch.setattr(nonmyopic, "integrate", counting)
        mid = 0.5 * (u[:-1] + u[1:])
        system.coupling(G, system.rows(u))
        # between its thresholds, G cuts the pairs; mu is a point already
        system.coupling(G, system.rows(np.append(mid, d.mean())))
        # depth 0 takes five nodes per piece, every later depth two per half
        for n, call in zip(pieces, sizes):
            assert call[0] == 5 * n
            assert all(k % 2 == 0 and k <= 2 * prev for prev, k in zip([2 * n] + call[1:], call[1:]))
        # the piecewise-linear hotel prior converges at depth 0
        assert prior == "hotel" or min(len(call) for call in sizes) > 1

        def prior_pieces(v):
            # the pairs of v, post and 1 cut at the prior's own kinks alone
            z, cuts = np.unique(np.concatenate([v, upper])), d.interior_breakpoints()
            return int(np.sum(np.searchsorted(cuts, z[1:], side="left")
                              - np.searchsorted(cuts, z[:-1], side="right") + 1))

        # at the thresholds, G's kinks are pair ends and cut nothing more
        assert pieces[0] == prior_pieces(u)
        # between the thresholds, they cut pairs
        assert pieces[1] > prior_pieces(mid)

    @pytest.mark.parametrize("T1", [1, 6, 13])
    def test_welfare_makes_two_calls(self, uniform, monkeypatch, T1):
        integrals = []

        def counting(*args, **kwargs):
            out = integrate(*args, **kwargs)
            integrals.append(np.size(out))
            return out

        N, T = 5, 14
        seq = solve_one_time(uniform, N, T, T1)
        monkeypatch.setattr(nonmyopic, "integrate", counting)
        welfare_one_time(uniform, N, T, seq)
        # pre-sharing slots, then the pooled reveal with the resumed slots
        assert integrals == [T1, T - T1]


def per_pair_coupling(d, N, T, T1, post, G, v):
    """Coupling at ``v`` and the segment table, integrated pair by pair: the
    table from one pair per band ``[post[k], upper[k]]``, each value from its
    own pair ``[v, upper[k]]`` in its band ``k``."""
    upper, post_asc = np.concatenate([[1.0], post]), post[::-1]
    ks = post.size - np.searchsorted(post_asc, v, side="right")
    nb = post.size - 1
    lo = np.concatenate([post[:nb], v])
    hi = np.concatenate([upper[:nb], upper[ks]])

    def band(r):
        f = d.cdf(r)
        k = post.size - np.searchsorted(post_asc, r, side="left")
        return G._given(r, f) ** (N - 1) * f**k * (1.0 - f)

    terms = (T - T1 - np.concatenate([np.arange(nb), ks])) * integrate(
        d, band, lo, hi, G.thresholds
    )
    w = np.concatenate([[0.0], np.cumsum(terms[:nb])])
    return w[ks] + terms[nb:], w


class TestCumulativeCoupling:
    """The coupling read off one cumulative integral matches the per-pair
    formula: every value's own pair plus a segment table of band pairs.  A
    candidate's coupling is the same alone and in a block with others.

    The pairs differ, so the two agree to the quadrature error of the pairs
    each one cuts, which depends on the prior: largest for beta(2, 5) and
    smallest for the piecewise-linear hotel prior.
    """

    TOL = {"uniform": 1e-12, "beta25": 1e-11, "beta0709": 1e-12, "hotel": 1e-15}

    @pytest.mark.parametrize("prior", sorted(TOL))
    @pytest.mark.parametrize("N, T, T1", [(50, 50, 25), (5, 20, 8), (10, 10, 4)])
    def test_matches_per_pair_formula(self, prior, N, T, T1, uniform, hotel_dist):
        d = {"uniform": uniform, "beta25": RewardDistribution.beta(2, 5),
             "beta0709": RewardDistribution.beta(0.7, 0.9), "hotel": hotel_dist}[prior]
        bench = solve_single_agent(d, T)
        u, post = bench.values[:T1].copy(), bench.values[T1:]
        system = _OneTimeSystem(d, N, T, [T1], bench.values)
        G = system.belief(u)
        # the candidate as the middle row of a block, between two others
        block = _OneTimeSystem(d, N, T, [1, T1, T - 1], bench.values)
        G_block = block.belief(np.concatenate([bench.values[:1], u, bench.values[: T - 1]]))
        mu = d.mean()
        # at its own thresholds, where the table adds no kinks of G, the coupling
        # is that of the same pairs cut at G's kinks through integrate's
        # breakpoints (pair ends, so they cut nothing), bit for bit
        z = np.append(np.sort(bench.values), 1.0)
        k = post.size - np.searchsorted(post[::-1], z[1:], side="left")

        def pair_law(r):
            f = d.cdf(r)
            return BeliefCdf(d, u)._given(r, f) ** (N - 1) * f ** k[r.pair] * (1.0 - f)

        pieces = (T - T1 - k) * integrate(d, pair_law, z[:-1], z[1:], breakpoints=u)
        assert np.array_equal(system.coupling(G, system.rows(u))[0],
                              pieces[::-1].cumsum()[::-1][np.searchsorted(z, bench.values)])
        for v in (u, np.full(T1, mu), np.append(0.5 * (u[:-1] + u[1:]), mu)):
            # the post thresholds, whose coupling is the segment table, are
            # points of every row
            [both] = system.coupling(G, system.rows(v))
            coupling, w = both[:T1], np.concatenate([[0.0], both[T1:-1]])
            x = np.concatenate([bench.values[:1], v, bench.values[: T - 1]])
            assert np.array_equal(block.coupling(G_block, block.rows(x))[1], both)
            ref_coupling, ref_w = per_pair_coupling(d, N, T, T1, post, BeliefCdf(d, u), v)
            np.testing.assert_allclose(coupling, ref_coupling, rtol=0.0, atol=self.TOL[prior])
            np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=self.TOL[prior])


class TestNarrowBands:
    """Band integrals keep their band's exponent when a band is so narrow that
    the inward nudge of its edge nodes is below the float spacing there.

    The solo gaps near the top of a T = 800 uniform benchmark are about 3e-5,
    so ``1e-12 * width`` rounds away against thresholds in [0.5, 1).  The
    references integrate band by band with a fixed exponent.
    """

    N, T = 5, 800

    @pytest.fixture(scope="class")
    def bench(self, uniform):
        return solve_single_agent(uniform, self.T)

    def test_bands_are_narrow(self, bench):
        gaps = -np.diff(bench.values)
        edges = bench.values[1:]
        assert np.any(edges + 1e-12 * gaps == edges)

    def test_residuals_match_fixed_exponent_bands(self, uniform, bench):
        d, N, T, T1 = uniform, self.N, self.T, 3
        post = bench.values[T1:]
        # coordinates deep in the post bands, two of them on a band's edge,
        # so that they read the segment table over the narrow top bands
        u = np.array([post[5], 0.5 * (post[300] + post[301]), post[700]])
        system = _OneTimeSystem(d, N, T, [T1], bench.values)
        g, _ = system.residuals(u)
        ks = post.size - np.searchsorted(post[::-1], u, side="right")
        assert ks.tolist() == [5, 301, 700]

        G = BeliefCdf(d, u)
        upper = np.concatenate([[1.0], post])

        def band(k, lo, hi):
            f = lambda r: G(r) ** (N - 1) * d.cdf(r) ** k * (1.0 - d.cdf(r))
            return integrate(d, f, lo, hi, G.thresholds)

        w = np.zeros(post.size)
        for k in range(post.size - 1):
            w[k + 1] = w[k] + (T - T1 - k) * band(k, post[k], upper[k])
        expected = [
            u[i] - d.mean() - (T1 - i - 1) * d.tail_mean_excess(u[i])
            - w[k] - (T - T1 - k) * band(k, u[i], upper[k])
            for i, k in enumerate(ks)
        ]
        np.testing.assert_allclose(g, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("T1", [1, 799])
    def test_welfare_matches_fixed_exponent_bands(self, uniform, bench, T1):
        from commgate.nonmyopic import ThresholdSequence

        d, N, T = uniform, self.N, self.T
        seq = ThresholdSequence(T, T1, bench.values, bench.residuals)
        welfare, _ = welfare_one_time(d, N, T, seq)

        mu = d.mean()
        u = np.concatenate([[1.0], seq.values])
        fu = d.cdf(u)
        G = BeliefCdf(d, seq.prefix)
        pre = 0.0
        for t in range(T1):
            p = t + 1
            stieltjes = (
                u[t] * fu[t] ** p - u[t + 1] * fu[t + 1] ** p
                - integrate(d, lambda r: d.cdf(r) ** p, u[t + 1], u[t])
            )
            tail_mean = 1.0 - u[t] * fu[t] - ((1.0 - u[t]) - d.tail_mean_excess(u[t]))
            pre += (T1 - t) * (stieltjes + fu[t] ** t * tail_mean)
        pooled = (T - T1) * (1.0 - integrate(d, lambda r: G(r) ** N, u[T1 + 1], 1.0, G.thresholds))
        resume = 0.0
        for tau in range(1, T - T1):
            f = lambda r: G(r) ** N * d.cdf(r) ** tau
            resume += (T - T1 - tau) * integrate(d, f, u[T1 + tau + 1], u[T1 + tau], G.thresholds)
        explore_gain = mu * (1.0 + np.sum(fu[1 : T1 + 1] ** np.arange(1, T1 + 1)))
        expected = N * (explore_gain + pre + pooled - resume)
        assert welfare == pytest.approx(expected, rel=1e-13)


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

    def test_welfare_stable_under_quadrature_refinement(self, uniform, monkeypatch):
        N, T, T1 = 5, 14, 6
        seq = solve_one_time(uniform, N, T, T1)
        w1, _ = welfare_one_time(uniform, N, T, seq)
        for abs_tol in (0.5e-9, 0.25e-9):
            monkeypatch.setattr(distributions, "_ABS_TOL", abs_tol)
            w, _ = welfare_one_time(uniform, N, T, seq)
            assert abs(w - w1) < 1e-6


BATCH_PRIORS = {"uniform": RewardDistribution.uniform(), "beta25": RewardDistribution.beta(2, 5),
                "beta0709": RewardDistribution.beta(0.7, 0.9)}


def welfare_pieces(d, T, seq):
    """An upper bound on the pieces of ``seq``'s two welfare integrals at depth
    0: its ``T1`` pre-sharing pairs cut at the prior's kinks above ``u_T1``,
    and its ``T`` band segments cut at the kinks above ``mu``."""
    kinks = d.interior_breakpoints()
    T1 = seq.comm_slot_T1
    above = kinks.size - np.searchsorted(kinks, (seq.values[T1 - 1], d.mean()), side="right")
    return T + T1 + int(above.sum())


def traced_peaks(monkeypatch, name, scan):
    """The arguments and the tracemalloc peak of every call of ``nonmyopic.<name>``
    made by ``scan()``, each peak counting what the scan holds."""
    calls, peaks = [], []
    stage = getattr(nonmyopic, name)

    def tracing(*args):
        calls.append(args)
        tracemalloc.reset_peak()
        out = stage(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(nonmyopic, name, tracing)
    tracemalloc.start()
    try:
        scan()
    finally:
        tracemalloc.stop()
    return calls, peaks


class TestWelfareBatch:
    """The scan scores its candidates in byte-budgeted blocks, each candidate
    exactly as ``welfare_one_time`` scores it alone."""

    @pytest.mark.parametrize("N", [1, 2, 5, 50])
    @pytest.mark.parametrize("prior", [*BATCH_PRIORS, "hotel"])
    def test_batch_equals_one_at_a_time(self, hotel_dist, monkeypatch, prior, N):
        d = hotel_dist if prior == "hotel" else BATCH_PRIORS[prior]
        for T in (2, 7, 20):  # T1 = 1 keeps BeliefCdf's exact square
            rows = scan_comm_times(d, N, T)
            batch = nonmyopic._welfare_batch(d, N, T, [seq for _, _, seq in rows])
            for (T1, welfare, seq), (w, count) in zip(rows, batch, strict=True):
                assert (welfare, count) == (w, count) == welfare_one_time(d, N, T, seq), T1
            monkeypatch.setattr(nonmyopic, "_BLOCK_BYTES", 1)  # one candidate a block
            alone = scan_comm_times(d, N, T)
            monkeypatch.undo()
            assert [row[:2] for row in alone] == [row[:2] for row in rows]

    @pytest.mark.parametrize("T", [50, 150])
    def test_welfare_stage_peak_within_budget(self, hotel_dist, monkeypatch, T):
        # blocks hold candidates until their pieces reach the budget, so a
        # block's peak, counting what the scan holds, is at most the budget
        # plus one candidate's pieces
        d, N = hotel_dist, 50
        calls, peaks = traced_peaks(monkeypatch, "_welfare_batch", lambda: scan_comm_times(d, N, T))
        blocks = [args[-1] for args in calls]
        assert len(blocks) > 4 and sum(map(len, blocks)) == T - 1
        one = max(welfare_pieces(d, T, seq) for block in blocks for seq in block)
        assert max(peaks) <= nonmyopic._BLOCK_BYTES + nonmyopic._PIECE_BYTES * one

    @pytest.mark.parametrize("budget", [None, 1])
    def test_failing_block_raises_its_first_failing_candidate(self, monkeypatch, budget):
        # beta(3, 0.4) fails in the welfare at T1=10: scored in one block or
        # one candidate a block, the scan raises the error T1=10 raises alone
        d, N, T = RewardDistribution.beta(3, 0.4), 5, 20
        alone = solve_one_time(d, N, T, 10)
        with pytest.raises(QuadratureError) as want:
            welfare_one_time(d, N, T, alone)
        if budget is not None:
            monkeypatch.setattr(nonmyopic, "_BLOCK_BYTES", budget)
        with pytest.raises(QuadratureError) as got:
            scan_comm_times(d, N, T)
        assert str(got.value) == f"{want.value} (in the welfare at T1=10)"
        np.testing.assert_array_equal(got.value.estimate, want.value.estimate)
        assert got.value.error_bound == want.value.error_bound

    def test_earlier_welfare_failure_wins_over_a_later_solve_failure(self, failing_slots):
        d, N, T = RewardDistribution.beta(3, 0.4), 5, 20
        failing_slots.add(12)
        with pytest.raises(QuadratureError, match=r" \(in the welfare at T1=10\)$"):
            scan_comm_times(d, N, T)
        failing_slots.add(8)
        with pytest.raises(SolverError, match=r"injected failure at T1=8$"):
            scan_comm_times(d, N, T)


class TestLockstep:
    """The scan solves each block of candidates in lockstep, one ``integrate``
    call per Newton round, every candidate exactly as ``solve_one_time``
    solves it alone."""

    PRIORS = {**BATCH_PRIORS, "beta250": RewardDistribution.beta(2, 50)}

    @staticmethod
    def assert_rows_alone(d, N, T, rows):
        assert [T1 for T1, _, _ in rows] == list(range(1, T))
        for T1, welfare, seq in rows:
            alone = solve_one_time(d, N, T, T1)
            assert np.array_equal(seq.values, alone.values), T1
            assert np.array_equal(seq.residuals, alone.residuals), T1
            assert list(seq.diagnostics.items()) == list(alone.diagnostics.items()), T1
            assert welfare == welfare_one_time(d, N, T, alone)[0], T1

    @staticmethod
    def assert_same_rows(rows, other):
        assert len(rows) == len(other)
        for (T1, welfare, seq), (T1_o, welfare_o, seq_o) in zip(rows, other):
            assert (T1, welfare) == (T1_o, welfare_o)
            assert np.array_equal(seq.values, seq_o.values), T1
            assert np.array_equal(seq.residuals, seq_o.residuals), T1
            assert seq.diagnostics == seq_o.diagnostics, T1

    @pytest.mark.parametrize("N", [1, 2, 5, 50])
    @pytest.mark.parametrize("prior", [*BATCH_PRIORS, "hotel"])
    def test_rows_equal_each_candidate_alone(self, hotel_dist, monkeypatch, prior, N):
        d = hotel_dist if prior == "hotel" else BATCH_PRIORS[prior]
        for T in (2, 3, 7, 20):
            rows = scan_comm_times(d, N, T)
            self.assert_rows_alone(d, N, T, rows)
        monkeypatch.setattr(nonmyopic, "_BLOCK_BYTES", 1)  # one candidate a block
        self.assert_same_rows(scan_comm_times(d, N, T), rows)

    def test_rescue_in_a_block_equals_it_alone(self, monkeypatch):
        # the one rescue found on these priors: T1 = 5 rejects a Newton step
        # while the other 18 candidates of its block step on
        d, N, T = self.PRIORS["beta250"], 30, 20
        rows = scan_comm_times(d, N, T)
        assert [(T1, seq.diagnostics["bisection_rescues"]) for T1, _, seq in rows
                if seq.diagnostics["bisection_rescues"]] == [(5, 1)]
        pieces = sum(nonmyopic._pieces(d, T, T1) for T1 in range(1, T))
        assert nonmyopic._PIECE_BYTES * pieces < nonmyopic._BLOCK_BYTES  # one block
        self.assert_rows_alone(d, N, T, rows)
        monkeypatch.setattr(nonmyopic, "_BLOCK_BYTES", 1)
        self.assert_same_rows(scan_comm_times(d, N, T), rows)

    def test_threshold_solve_failure_is_the_candidates_own(self):
        # the batch raises; solved again one at a time, the scan raises the
        # error that T1 = 1 raises alone, named
        d, N, T = RewardDistribution.beta(0.3, 0.3), 5, 20
        with pytest.raises(QuadratureError) as want:
            solve_one_time(d, N, T, 1)
        with pytest.raises(QuadratureError) as got:
            scan_comm_times(d, N, T)
        assert str(got.value) == f"{want.value} (in the threshold solve at T1=1)"
        assert repr(got.value.estimate) == repr(want.value.estimate)
        assert repr(got.value.error_bound) == repr(want.value.error_bound)
        assert got.value.__cause__.estimate is got.value.estimate

    @pytest.mark.parametrize("T, T1", [(10, 2), (150, 36)])
    def test_non_convergence_fails_at_the_first_candidate_in_slot_order(self, monkeypatch, T, T1):
        # T1 runs out of iterations while later candidates of its block still
        # step; the earlier ones that converge keep their rows
        d, N = self.PRIORS["beta250"], 30
        swept, sweep = [], nonmyopic._bisection_sweep

        def recording(system, u):
            swept.append(system.T1s.tolist())
            return sweep(system, u)

        monkeypatch.setattr(nonmyopic, "_bisection_sweep", recording)
        message = rf"did not converge at T1={T1} after 200 iterations$"
        with pytest.raises(SolverError, match=message) as info:
            scan_comm_times(d, N, T)
        in_scan = swept[:]
        assert info.value.diagnostics["iterations"] == _MAX_ITER
        with pytest.raises(SolverError) as alone:
            solve_one_time(d, N, T, T1)
        assert info.value.diagnostics == alone.value.diagnostics
        # a sweep waits for the candidates before it: the later ones of the
        # failing block take none, and the failing one as many as alone
        assert all(len(rows) == 1 and rows[0] <= T1 for rows in in_scan)
        assert in_scan.count([T1]) == info.value.diagnostics["bisection_rescues"]

    @pytest.mark.parametrize("prior, N, T", [("hotel", 50, 50), ("hotel", 50, 150), ("beta25", 5, 150)])
    def test_solve_stage_peak_within_budget(self, hotel_dist, monkeypatch, prior, N, T):
        # blocks hold candidates until their pieces reach the budget, so a
        # block's lockstep solve peaks, counting what the scan holds, at most
        # at the budget plus one candidate's pieces; beta(2, 5)'s pieces
        # refine, and its blocks take sweeps at larger T
        d = hotel_dist if prior == "hotel" else self.PRIORS[prior]
        calls, peaks = traced_peaks(monkeypatch, "_solve_block", lambda: scan_comm_times(d, N, T))
        blocks = [args[-1] for args in calls]
        assert len(blocks) > 4 and [T1 for block in blocks for T1 in block] == list(range(1, T))
        one = max(nonmyopic._pieces(d, T, T1) for T1 in range(1, T))
        assert max(peaks) <= nonmyopic._BLOCK_BYTES + nonmyopic._PIECE_BYTES * one

    def test_reveal_work_counts(self, hotel_dist, monkeypatch):
        # the two scans of the benchmark's reveal workload: their solver
        # iterations and rescues as solved one candidate at a time, in one
        # integrate call per Newton round per block plus two per welfare block
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(nonmyopic, "integrate", counting)
        rows = scan_comm_times(hotel_dist, 50, 50) + scan_comm_times(self.PRIORS["beta25"], 20, 40)
        diagnostics = [seq.diagnostics for _, _, seq in rows]
        assert sum(diag["iterations"] for diag in diagnostics) == 471
        assert sum(diag["bisection_rescues"] for diag in diagnostics) == 0
        assert len(calls) <= 80


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

    @pytest.mark.parametrize("N, T", [(3, 1), (0, 6)])
    def test_scan_refuses_a_horizon_without_candidates_or_no_agents(self, uniform, N, T):
        # T = 1 has no sharing slot, so its scan would hold no row to pick
        with pytest.raises(DistributionError, match=r"^need T >= 2 and N >= 1$"):
            scan_comm_times(uniform, N, T)
        with pytest.raises(DistributionError, match=r"^need T >= 2 and N >= 1$"):
            optimize_comm_time(uniform, N, T)

    @pytest.mark.parametrize("N", [0, -1])
    def test_welfare_refuses_no_agents(self, uniform, N):
        # N = 0 once scored (0.0, 4.15) and N = -1 an exploration count above the horizon
        seq = solve_one_time(uniform, 5, 10, 4)
        with pytest.raises(DistributionError, match=rf"^agent count must be >= 1, got {N}$"):
            welfare_one_time(uniform, N, 10, seq)

    def test_failed_candidate_fails_the_scan(self, uniform, failing_slots):
        failing_slots.update({2, 5})
        with pytest.raises(SolverError, match=r"injected failure at T1=2$"):
            scan_comm_times(uniform, 3, 8)

    def test_quadrature_failure_names_candidate(self):
        # re-raised with the candidate and the stage, keeping the estimate
        with pytest.raises(QuadratureError, match=r" \(in the welfare at T1=10\)$") as info:
            scan_comm_times(RewardDistribution.beta(3, 0.4), 5, 20)
        cause = info.value.__cause__
        assert isinstance(cause, QuadratureError)
        assert info.value.estimate is cause.estimate
        assert info.value.error_bound == cause.error_bound > 0

    def test_failed_best_candidate_fails_the_pick(self, uniform, failing_slots):
        # no runner-up is reported in place of a best candidate that failed
        N, T = 4, 10
        t1_star, _, _ = optimize_comm_time(uniform, N, T)
        failing_slots.add(t1_star)
        with pytest.raises(SolverError, match=f"injected failure at T1={t1_star}$"):
            optimize_comm_time(uniform, N, T)

    def test_every_candidate_failing_raises(self, uniform, failing_slots):
        failing_slots.update(range(1, 8))
        with pytest.raises(SolverError, match=r"injected failure at T1=1$"):
            optimize_comm_time(uniform, 3, 8)

    @pytest.mark.parametrize("prior, T", [
        ("uniform", 8), ("beta:2,5", 20), ("hotel", 30),
        pytest.param("beta:2,50", 20, marks=pytest.mark.xfail(
            strict=True, reason="relative spread 1.0e-8: the quadrature's narrow-band blind "
            "spot (ROADMAP item 3)")),
    ])
    def test_one_agent_makes_every_candidate_the_same_game(self, hotel_dist, prior, T):
        # with one agent nobody can share, so every T1 scores the same welfare up
        # to rounding, and the T1* picked from that noise is arbitrary
        d = {"uniform": RewardDistribution.uniform(), "beta:2,5": RewardDistribution.beta(2, 5),
             "hotel": hotel_dist, "beta:2,50": RewardDistribution.beta(2, 50)}[prior]
        welfare = [w for _, w, _ in scan_comm_times(d, 1, T)]
        assert (max(welfare) - min(welfare)) / max(welfare) <= 1e-11
