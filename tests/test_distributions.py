import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from commgate import distributions
from commgate.distributions import RewardDistribution, integrate
from commgate.errors import DistributionError, QuadratureError

KINDS = {
    "uniform": RewardDistribution.uniform(),
    "beta": RewardDistribution.beta(2.0, 5.0),
    "empirical": RewardDistribution.empirical(
        [0.0, 0.2, 0.5, 0.8, 1.0], [0.05, 0.2, 0.6, 0.9, 1.0]
    ),
}


def test_uniform_cdf_identity():
    assert KINDS["uniform"].cdf(0.3) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("kind", list(KINDS))
def test_cdf_normalization(kind):
    assert KINDS[kind].cdf(1.0) == pytest.approx(1.0, abs=1e-12)


def test_cdf_domain_error():
    with pytest.raises(DistributionError):
        KINDS["beta"].cdf(1.5)
    with pytest.raises(DistributionError):
        KINDS["uniform"].cdf(-0.1)


def test_means_trivial():
    assert KINDS["uniform"].mean() == pytest.approx(0.5)
    assert RewardDistribution.beta(1, 1).mean() == pytest.approx(0.5)


def test_mean_matched_betas():
    # the two Beta priors used in the window-structure experiments
    assert RewardDistribution.beta_with_mean(0.024).mean() == pytest.approx(0.024, abs=1e-12)
    assert RewardDistribution.beta_with_mean(0.33).mean() == pytest.approx(0.33, abs=1e-12)


@pytest.mark.parametrize("kind", list(KINDS))
def test_mean_cache_equals_tail_integral(kind):
    d = KINDS[kind]
    recomputed = integrate(d, lambda r: 1.0 - d.cdf(r), 0.0, 1.0)
    assert abs(recomputed - d.mean()) <= 10 * distributions._ABS_TOL


@pytest.mark.parametrize("kind", list(KINDS))
def test_tail_mean_excess_matches_quadrature(kind):
    d = KINDS[kind]
    for u in (0.0, 0.3, 0.77, 1.0):
        quad = integrate(d, lambda r: 1.0 - d.cdf(r), u, 1.0)
        assert d.tail_mean_excess(u) == pytest.approx(quad, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
    kind=st.sampled_from(list(KINDS)),
)
def test_cdf_monotone(r1, r2, kind):
    lo, hi = min(r1, r2), max(r1, r2)
    d = KINDS[kind]
    assert d.cdf(lo) <= d.cdf(hi) + 1e-12


def test_uniform_inverse_is_identity():
    u = KINDS["uniform"]
    q = np.linspace(0, 1, 11)
    assert np.allclose(u.ppf(q), q)


def test_sampling_deterministic():
    d = KINDS["empirical"]
    a = d.sample(np.random.Generator(np.random.Philox(7)), 100)
    b = d.sample(np.random.Generator(np.random.Philox(7)), 100)
    assert np.array_equal(a, b)


def test_empirical_sample_mean_lln(rng):
    # law-of-large-numbers oracle: 1e6 draws within 3 standard errors
    d = KINDS["empirical"]
    n = 1_000_000
    draws = d.sample(rng, n)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - d.mean()) < 3 * se


@pytest.mark.parametrize("kind", list(KINDS))
def test_sampling_ks_statistic(kind, rng):
    d = KINDS[kind]
    n = 100_000
    draws = np.sort(d.sample(rng, n))
    cdf_vals = d.cdf(draws)
    # the only possible atom is at 0 (cdf(0) may exceed 0); the lower-side
    # statistic compares against the left limit there
    cdf_left = np.where(draws == 0.0, 0.0, cdf_vals)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf_vals), np.max(cdf_left - (i - 1) / n))
    critical_1pct = 1.63 / np.sqrt(n)
    assert ks < critical_1pct


def test_integrate_polynomial_exact():
    u = KINDS["uniform"]
    assert integrate(u, lambda r: 1.0 - r, 0.5, 1.0) == pytest.approx(0.125, abs=1e-12)
    assert integrate(u, np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("integrand", [math.exp, lambda r: 1.0], ids=["scalar_only", "constant"])
def test_integrate_rejects_non_vectorized_integrand(integrand):
    # an integrand maps the node array to an array of the same shape
    with pytest.raises(TypeError):
        integrate(KINDS["uniform"], integrand, 0.0, 1.0)


def test_only_integrate_takes_breakpoints():
    # the analytic layer runs at one fixed tolerance and depth cap; the kinks
    # are the one quadrature input, and only `integrate` takes them
    import inspect

    import commgate
    from commgate import dataset, myopic, nonmyopic

    params = {
        name: inspect.signature(fn).parameters
        for module in (commgate, myopic, nonmyopic, dataset)
        for name in module.__all__
        if inspect.isfunction(fn := getattr(module, name))
    }
    assert not [name for name, ps in params.items()
                if {"spec", "abs_tol", "max_depth"} & set(ps)]
    assert [name for name, ps in params.items() if "breakpoints" in ps] == ["integrate"]
    assert not hasattr(commgate, "QuadratureSpec")
    assert "method" not in inspect.signature(commgate.solve_one_time).parameters


def test_integrate_matches_riemann_oracle():
    # the window-loss integrand for uniform F, N=3, second blocked slot
    u = KINDS["uniform"]
    N, i, mu = 3, 2, 0.5
    fmu = 0.5

    def integrand(r):
        a1 = (r - fmu) / (1 - fmu) + fmu**i * (1 - r) / (1 - fmu)
        an = (r**N - fmu**N) / (1 - fmu**N) + fmu ** (i * N) * (1 - r**N) / (1 - fmu**N)
        return a1 - an

    grid = np.linspace(mu, 1.0, 1_000_001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    oracle = float(np.sum(integrand(mids)) * (grid[1] - grid[0]))
    assert integrate(u, integrand, mu, 1.0) == pytest.approx(oracle, abs=1e-7)


def test_integrate_additive_over_subintervals():
    d = KINDS["beta"]
    f = lambda r: d.cdf(r) ** 3 * (1 - d.cdf(r))
    whole = integrate(d, f, 0.1, 0.9)
    parts = integrate(d, f, 0.1, 0.45) + integrate(d, f, 0.45, 0.9)
    assert abs(whole - parts) <= 2 * distributions._ABS_TOL


def test_integrate_convergence_error_carries_estimate(monkeypatch):
    u = KINDS["uniform"]
    monkeypatch.setattr(distributions, "_ABS_TOL", 1e-14)
    monkeypatch.setattr(distributions, "_MAX_DEPTH", 2)
    with pytest.raises(QuadratureError) as err:
        integrate(u, lambda r: np.sin(40 * r) ** 2, 0.0, 1.0)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound > 0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_integrate_non_finite_integrand_raises_at_once(monkeypatch):
    # a NaN error estimate is accepted, not split at every depth toward
    # 2^_MAX_DEPTH pieces; the non-finite result is then refused
    monkeypatch.setattr(distributions, "_MAX_DEPTH", 12)
    calls = []

    def nan(r):
        calls.append(r.size)
        return np.full_like(r, np.nan)

    with pytest.raises(QuadratureError, match="non-finite integrand: the integral is nan") as err:
        integrate(KINDS["uniform"], nan, 0.0, 1.0)
    assert calls == [5]
    assert math.isnan(err.value.estimate) and math.isnan(err.value.error_bound)
    f = lambda r: np.where(r > 0.5, np.inf, r)
    with pytest.raises(QuadratureError, match="the integral of pair 1 is") as err:
        integrate(KINDS["uniform"], f, np.array([0.0, 0.2]), np.array([0.5, 0.9]))
    assert err.value.estimate[0] == pytest.approx(0.125)


def test_integrate_splits_at_breakpoints():
    u = KINDS["uniform"]
    kink = 0.37

    def f(r):
        return np.where(r < kink, 0.0, 1.0)

    assert integrate(u, f, 0.0, 1.0, breakpoints=(kink,)) == pytest.approx(1 - kink, abs=1e-9)


def test_integrate_resolves_a_steep_power():
    # all of r^10000's mass sits within about 1e-3 of r = 1; a plain G7K15
    # on [0.5, 1] misses it
    exact = (1.0 - 2.0**-10001) / 10001
    assert abs(integrate(KINDS["uniform"], lambda r: r**10000, 0.5, 1.0) - exact) <= 1e-12


@pytest.mark.xfail(strict=True, reason="adaptive Simpson converges falsely: the first five "
                   "nodes miss the peak near r = 1, and both estimates agree within tolerance")
def test_integrate_top_coupling_pair_matches_scipy_quad():
    from scipy.integrate import quad

    from commgate.nonmyopic import BeliefCdf, solve_single_agent

    # the top pair [u_1, 1] of the threshold system for uniform, N = 50,
    # T = 50, T1 = 25 at the solo start
    u = KINDS["uniform"]
    N, T, T1 = 50, 50, 25
    G = BeliefCdf(u, solve_single_agent(u, T).values[:T1])
    u1 = G.thresholds[0]
    assert u1 == pytest.approx(0.8761, abs=1e-4)
    f = lambda r: G(r) ** (N - 1) * (1.0 - u.cdf(r))
    want, _ = quad(lambda r: float(f(np.array([r]))[0]), u1, 1.0, epsabs=1e-14, limit=200)
    assert want == pytest.approx(7.6857e-6, rel=1e-4)
    assert abs(integrate(u, f, u1, 1.0, G.thresholds) - want) <= 1e-9


@pytest.mark.parametrize("prior", ["uniform", "beta", "hotel"])
def test_array_integrate_matches_scalar_calls(prior, request):
    d = request.getfixturevalue("hotel_dist") if prior == "hotel" else KINDS[prior]
    mu = d.mean()
    # the kinks fall inside some pairs and outside others
    breakpoints = (0.35, 0.5, 0.61)
    lo = np.array([0.0, 0.1, 0.3, mu, 0.44, 0.9, 0.62])
    hi = np.array([1.0, 0.45, 0.3, 1.0, 0.62, 1.0, 0.7])

    def f(r):
        c = d.cdf(r)
        return np.where(r < 0.5, c**3, 1.0 - c) * (1.0 - c)

    batch = integrate(d, f, lo, hi, breakpoints)
    one_by_one = np.array([integrate(d, f, a, b, breakpoints) for a, b in zip(lo, hi)])
    assert batch.shape == lo.shape
    assert batch[2] == 0.0
    np.testing.assert_allclose(batch, one_by_one, rtol=1e-15, atol=0.0)


def test_integrand_called_once_per_depth():
    # 1 - r is integrated exactly at depth 0: the edges, the midpoint and the
    # quarter points form one call, with no probe
    sizes = []

    def f(r):
        sizes.append(np.size(r))
        return 1.0 - r

    assert integrate(KINDS["uniform"], f, 0.5, 1.0) == pytest.approx(0.125, abs=1e-15)
    assert sizes == [5]


def test_refining_integrand_called_once_per_depth():
    # three pairs cut at two kinks into 3 + 2 + 1 pieces: depth 0 takes five nodes
    # per piece, every later depth the two quarter points of each of its k
    # unconverged halves, at most twice as many as the depth before
    sizes = []

    def f(r):
        sizes.append(np.size(r))
        return np.sin(40.0 * r) ** 2

    integrate(KINDS["uniform"], f, np.array([0.0, 0.2, 0.7]), np.array([1.0, 0.5, 0.9]), (0.3, 0.6))
    assert sizes[0] == 5 * 6 and len(sizes) > 3
    assert all(n % 2 == 0 and n <= 2 * prev for prev, n in zip([12] + sizes[1:], sizes[1:]))


def test_array_integrate_errors(monkeypatch):
    u = KINDS["uniform"]
    with pytest.raises(DistributionError, match=r"got \[0.5, 0.4\] at pair 1"):
        integrate(u, lambda r: r, np.array([0.1, 0.5, -0.1]), np.array([0.2, 0.4, 0.3]))
    with pytest.raises(DistributionError, match=r"got \[0.5, 0.4\]$"):
        integrate(u, lambda r: r, 0.5, 0.4)

    def never(r):
        raise AssertionError("zero-width pairs need no integrand value")

    assert integrate(u, never, np.array([0.3, 1.0]), np.array([0.3, 1.0])).tolist() == [0.0, 0.0]
    assert integrate(u, never, 0.3, 0.3) == 0.0

    monkeypatch.setattr(distributions, "_ABS_TOL", 1e-14)
    monkeypatch.setattr(distributions, "_MAX_DEPTH", 2)
    f = lambda r: np.sin(40 * r) ** 2
    lo, hi = np.array([0.0, 0.2, 0.5]), np.array([0.5, 0.2, 1.0])
    with pytest.raises(QuadratureError) as err:
        integrate(u, f, lo, hi)
    scalar = []
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        with pytest.raises(QuadratureError) as one:
            integrate(u, f, a, b)
        assert isinstance(one.value.estimate, float)
        scalar.append(one.value)
    estimate = err.value.estimate
    assert estimate.shape == (3,)
    assert estimate.tolist() == [scalar[0].estimate, 0.0, scalar[1].estimate]
    assert err.value.error_bound == pytest.approx(sum(e.error_bound for e in scalar), rel=1e-12)


def test_empirical_validation_errors():
    with pytest.raises(DistributionError):
        RewardDistribution.empirical([0.0, 0.5], [0.0, 0.9])  # cdf(1) != 1
    with pytest.raises(DistributionError):
        RewardDistribution.empirical([0.1, 1.0], [0.0, 1.0])  # grid must start at 0
    with pytest.raises(DistributionError):
        RewardDistribution.empirical([0.0, 0.5, 1.0], [0.0, 0.8, 0.5])  # decreasing cdf
    for grid, cdf in (([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]), ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0]),
                      ([0.0, 0.5, 1.0], [0.0, np.inf, 1.0])):
        with pytest.raises(DistributionError, match="finite"):
            RewardDistribution.empirical(grid, cdf)
    with pytest.raises(DistributionError):
        RewardDistribution.beta(-1.0, 2.0)
    for a, b in ((np.inf, 2.0), (2.0, np.inf), (np.nan, 2.0)):
        with pytest.raises(DistributionError, match="positive and finite"):
            RewardDistribution.beta(a, b)


def test_beta_parameter_sum_must_be_finite():
    # at alpha + beta = inf the mean reads 0 and betainc gives NaN
    with pytest.raises(DistributionError, match="finite sum"):
        RewardDistribution.beta(1e308, 1e308)
    d = RewardDistribution.beta(8e307, 8e307)
    assert (d.mean(), d.cdf(0.5)) == (0.5, 0.5)


def test_empirical_arrays_are_read_only_copies():
    grid, cdf = np.array([0.0, 0.3, 0.7, 1.0]), np.array([0.1, 0.4, 0.8, 1.0])
    d = RewardDistribution.empirical(grid, cdf)
    grid[1] = 0.5
    assert d.grid[1] == 0.3
    kinks = d.interior_breakpoints()
    assert kinks.tolist() == [0.3, 0.7]
    for arr in (kinks, d.grid, d.cdf_values):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.2


def test_empirical_csv_roundtrip(tmp_path):
    d = KINDS["empirical"]
    path = tmp_path / "dist.csv"
    d.to_csv(path)
    back = RewardDistribution.from_csv(path)
    assert np.array_equal(back.grid, d.grid)
    assert np.array_equal(back.cdf_values, d.cdf_values)
    assert back.mean() == d.mean()


def test_empirical_point_mass_at_zero():
    # cdf(0) > 0 is allowed: the inverse maps low quantiles to 0
    d = KINDS["empirical"]
    assert d.cdf(0.0) == pytest.approx(0.05)
    assert d.ppf(0.01) == 0.0


def reference_ppf(d, u):
    """The empirical inverse CDF through ``np.searchsorted``, the definition."""
    c, g = d.cdf_values, d.grid
    j = np.clip(np.searchsorted(c, u, side="left"), 0, c.size - 1)
    out = g[j].copy()
    interior = (j > 0) & ~(u <= c[np.maximum(j - 1, 0)])  # NaN stays NaN
    ji = j[interior]
    out[interior] = g[ji - 1] + (u[interior] - c[ji - 1]) / (c[ji] - c[ji - 1]) * (g[ji] - g[ji - 1])
    return np.clip(out, 0.0, 1.0)


def assert_bucketed_ppf_exact(d, u):
    u = np.asarray(u, dtype=float)
    want = np.clip(np.searchsorted(d.cdf_values, u, side="left"), 0, d.cdf_values.size - 1)
    assert np.array_equal(d._segment(u), want)
    assert np.array_equal(d.ppf(u), reference_ppf(d, u), equal_nan=True)


# CDF increments: flat stretches, near-steps like the hotel fit's tails, and
# steep stretches that put several points into one bucket
_INCREMENTS = st.one_of(st.just(0.0), st.floats(1e-300, 1e-270), st.floats(1e-7, 1e-3),
                        st.floats(1e-2, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=60),
    atom=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    data=st.data(),
)
def test_bucketed_ppf_matches_searchsorted(gaps, atom, data):
    n = len(gaps) + 1
    grid = np.concatenate([[0.0], np.cumsum(gaps)])
    grid /= grid[-1]
    steps = data.draw(st.lists(_INCREMENTS, min_size=n - 2, max_size=n - 2))
    mass = np.cumsum([atom, *steps, 1.0])  # the last step keeps the total positive
    d = RewardDistribution.empirical(grid, mass / mass[-1])
    c = d.cdf_values
    M = d._buckets[2].size
    edges = st.integers(0, M).map(lambda k: k / M)
    points = st.sampled_from(c.tolist())
    near = points.map(lambda x: float(np.nextafter(x, data.draw(st.sampled_from([0.0, 1.0])))))
    u = data.draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), edges, points, near,
                                     st.floats(0.0, 1.0)), min_size=1, max_size=50))
    assert_bucketed_ppf_exact(d, u)


def test_bucketed_ppf_on_hotel_prior(hotel_dist):
    # 512 CDF points: 4096 buckets, of which the steep 1e-279 tails make 8
    # span more than one point
    start, padded, wide = hotel_dist._buckets
    assert (wide.size, int(wide.sum())) == (4096, 8)
    for arr in (start, padded, wide):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert "_buckets" not in repr(hotel_dist)
    c = hotel_dist.cdf_values
    u = np.concatenate([c, np.nextafter(c, 0.0), np.arange(4097) / 4096,
                        np.random.default_rng(3).random(10_000)])
    assert_bucketed_ppf_exact(hotel_dist, np.clip(u, 0.0, 1.0))


def test_bucketed_ppf_outside_unit_interval():
    d = KINDS["empirical"]
    assert_bucketed_ppf_exact(d, [-0.5, 0.3, 1.5, np.nan, 0.0, 1.0])
    assert_bucketed_ppf_exact(d, np.empty(0))
    assert math.isnan(d.ppf(math.nan))  # as for the uniform and beta kinds


def test_ppf_outside_unit_interval_past_an_atom_and_a_flat_top():
    # outside [0, 1] the inverse gives the ends of the support, as the
    # definition does, also at -inf and past a flat top, and divides by no zero
    d = RewardDistribution.empirical([0.0, 0.3, 0.6, 1.0], [0.2, 0.5, 1.0, 1.0])
    u = np.array([-np.inf, -0.5, 0.0, 0.2, 0.3, 1.0, 1.5, np.inf, np.nan])
    with np.errstate(divide="ignore"):
        want = reference_ppf(d, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = d.ppf(u)
    assert np.array_equal(got, want, equal_nan=True)
    assert got[[0, 1, 6, 7]].tolist() == [0.0, 0.0, 1.0, 1.0]


# points where the prior functions are compared bit for bit: a fine lattice,
# both ends, the smallest subnormal and the largest double below 1
EXACT_POINTS = np.concatenate([np.linspace(0.0, 1.0, 100_001),
                               [0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 0.5 + 2.0**-53]])


def prior_values(d):
    x = EXACT_POINTS
    return [d.mean(), d.cdf(x), d.ppf(x), d.tail_mean_excess(x),
            d.cdf(0.3), d.ppf(0.3), d.tail_mean_excess(0.3)]


@pytest.mark.parametrize("prior", ["uniform", "beta", "hotel"])
def test_every_construction_path_gives_the_same_prior(prior, request, tmp_path):
    d = request.getfixturevalue("hotel_dist") if prior == "hotel" else KINDS[prior]
    if d.kind == "beta":
        fields = {"alpha": d.alpha, "beta_param": d.beta_param}
        others = [RewardDistribution.beta(2, 5), replace(RewardDistribution.beta(5, 5), alpha=2)]
    else:
        fields = {"grid": d.grid.tolist(), "cdf_values": d.cdf_values.tolist()}
        d.to_csv(tmp_path / "prior.csv")
        others = [RewardDistribution.empirical(**fields), replace(d),
                  replace(KINDS["empirical"], **fields),
                  RewardDistribution.from_csv(tmp_path / "prior.csv")]
    others.append(RewardDistribution(d.kind, **fields))
    want = prior_values(d)
    for other in others:
        assert repr(other) == repr(d)
        for a, b in zip(prior_values(other), want):
            assert np.array_equal(a, b)


def test_unknown_kind_and_bad_plain_parameters_raise():
    with pytest.raises(DistributionError, match="unknown kind 'uniform'"):
        RewardDistribution("uniform")
    with pytest.raises(DistributionError, match="positive and finite"):
        RewardDistribution("beta", alpha=-1.0, beta_param=2.0)
    with pytest.raises(DistributionError, match="positive and finite"):
        RewardDistribution("beta")
    with pytest.raises(DistributionError, match="1-d"):
        RewardDistribution("empirical")


def test_uniform_matches_closed_forms_exactly():
    # the uniform prior is the empirical CDF through (0, 0) and (1, 1); its
    # functions equal the closed forms x, x and (1 - x)^2 / 2 bit for bit
    u, x = RewardDistribution.uniform(), EXACT_POINTS
    assert (u.kind, u.grid.tolist(), u.cdf_values.tolist()) == ("empirical", [0, 1], [0, 1])
    assert np.array_equal(u.cdf(x), x)
    assert np.array_equal(u.ppf(x), x)
    assert np.array_equal(u.tail_mean_excess(x), 0.5 * (1.0 - x) ** 2)
    for v in x[-6:].tolist():
        assert (u.cdf(v), u.ppf(v), u.tail_mean_excess(v)) == (v, v, 0.5 * (1.0 - v) ** 2)
    assert u.mean() == 0.5
    assert np.array_equal(u.ppf([-0.5, 1.5, np.nan]), [0.0, 1.0, np.nan], equal_nan=True)
    assert repr(u) == "RewardDistribution.uniform()"


def per_call_tail(d, u):
    """Empirical ``tail_mean_excess`` with its suffix table of the integrals
    of 1 - F built at every call: the reference of the construction-time table."""
    g, c = d.grid, d.cdf_values
    one_minus = 1.0 - c
    seg = 0.5 * (one_minus[:-1] + one_minus[1:]) * np.diff(g)
    suffix = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    j = np.clip(np.searchsorted(g, u, side="right") - 1, 0, g.size - 2)
    cu = np.interp(u, g, c)
    partial = 0.5 * ((1.0 - cu) + one_minus[j + 1]) * (g[j + 1] - u)
    return np.maximum(suffix[j + 1] + partial, 0.0)


@pytest.mark.parametrize("prior", ["uniform", "empirical", "hotel"])
def test_empirical_tail_table_matches_per_call_build(prior, request, tmp_path):
    d = request.getfixturevalue("hotel_dist") if prior == "hotel" else KINDS[prior]
    g = d.grid
    u = np.concatenate([np.random.default_rng(5).random(20_000), g, [0.0, 1.0],
                        np.nextafter(g[1:], 0.0), np.nextafter(g[:-1], 1.0)])
    d.to_csv(tmp_path / "prior.csv")
    for other in (d, replace(d), RewardDistribution.from_csv(tmp_path / "prior.csv")):
        want = per_call_tail(other, u)
        assert np.array_equal(other.tail_mean_excess(u), want)
        assert [other.tail_mean_excess(float(v)) for v in u[-50:]] == want[-50:].tolist()


TINY_Q = np.geomspace(1e-300, 1e-200, 401)
# betaincinv below 2^-53: NaN on the first three priors; on beta(0.7, 0.9) the
# smallest normal double, then 0.0, up to q = 4e-216; on beta(3, 0.4) values
# whose CDF is 0.127 q; on the last two values whose CDF is 0
BETA_TINY = [(2.0, 5.0), (2.0, 50.0), (3.0, 0.4), (0.7, 0.9), (20.0, 3.0), (30.0, 0.3)]


@pytest.mark.parametrize("a, b", BETA_TINY)
def test_beta_ppf_at_tiny_quantiles(a, b):
    d = RewardDistribution.beta(a, b)
    # the leading-term inverse is exact to rounding where it is used
    if (a, b) in BETA_TINY[:3]:
        assert np.all(np.abs(d.cdf(d.ppf(TINY_Q)) / TINY_Q - 1.0) <= 1e-12)
        lowest = d.ppf(np.array([5e-324, 1e-320]))
        assert np.all(np.isfinite(lowest)) and 0.0 < lowest[0] <= lowest[1]
        assert d.ppf(5e-324) == lowest[0]
    tiny = np.geomspace(1e-300, 2.0**-53, 40_000)
    q = np.concatenate([[0.0, 5e-324], tiny, np.geomspace(2.0**-53, 1.0, 4001)])
    x = d.ppf(q)
    assert np.all(np.diff(x) >= 0.0)
    normal = (x >= np.finfo(float).tiny) & (q >= 1e-300)  # I_x(a, b) of q = 5e-324 underflows
    assert np.all(np.abs(d.cdf(x[normal]) / q[normal] - 1.0) <= 1e-5)
    # at 0 and from 2^-53 up ppf is betaincinv's value
    q = np.concatenate([[0.0, 1.0], np.geomspace(2.0**-53, 1.0, 4001),
                        np.linspace(2.0**-53, 1.0, 4001)])
    assert np.array_equal(d.ppf(q), np.clip(special.betaincinv(a, b, q), 0.0, 1.0))
    assert np.isnan(d.ppf(np.nan))
