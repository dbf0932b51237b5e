"""A 30-digit reference for the myopic terms, the solo thresholds and the
one-time welfare.

Everything here is re-derived in ``mpmath`` at 30 significant digits and
none of it calls the program's ``integrate``:

- Beta priors evaluate ``F`` with ``mp.betainc(a, b, 0, r, regularized=True)``
  and integrate with ``mp.quad`` (tanh-sinh), whose own error estimate must
  stay below 1e-20; the tail ``integral_u^1 (1 - F)`` is the closed form
  ``mu (1 - I_u(a+1, b)) - u (1 - I_u(a, b))``.
- Empirical priors have an ``F`` linear on each grid piece, so every
  integrand below, a polynomial in ``F``, has a closed-form integral per
  piece; the grid's doubles are exact in ``mpmath``.

The myopic terms come from their definitions (see ``myopic._terms``): with
``c = F(mu)^i`` the self-only and pooled CDFs of window index ``i`` on
``[mu, 1]`` are ``single = (F - F(mu)) / (1 - F(mu)) + c (1 - F) / (1 - F(mu))``
and ``pooled = (F^N - q) / (1 - q) + c^N (1 - F^N) / (1 - q)``, ``q = F(mu)^N``;
``x_i = integral (single - pooled)`` and ``y_i = integral (pooled - single^N)``.
The always-open welfare is the slot sum ``N sum_(t=0..T) (mu + (1 - q^t) P)``.
The solo thresholds are the roots of ``u - mu = (T-t) tail(u)`` found by
``mp.findroot`` on the bracket ``[mu, 1]``, not from the program's roots.
``welfare_one_time`` and its exploration count are re-derived from the
program's solved thresholds (see ``reference_welfare``): on each segment
between consecutive kinks every integrand is a polynomial in ``F``, which
Beta priors integrate with ``mp.quad`` and empirical priors exactly per grid
piece.

Each quantity in [0, 1] is compared absolutely, and the welfare per agent and
slot likewise; every error must be within the program's quadrature target
``distributions._ABS_TOL``.
"""

import bisect

import pytest
from mpmath import MPContext

from commgate import distributions, myopic, nonmyopic
from commgate.distributions import RewardDistribution
from commgate.errors import QuadratureError

mp = MPContext()  # a context of our own: the shared mpmath.mp keeps its precision
mp.dps = 30

_QUAD_ERR = mp.mpf("1e-20")  # largest error estimate of mp.quad that we trust
_INDICES = (1, 3, 10)  # window indices i checked for x_i and y_i
_PRIORS = ("uniform", "beta:2,5", "beta:2,50", "beta:0.5,0.5", "hotel")


class BetaPrior:
    def __init__(self, a, b):
        self.a, self.b = mp.mpf(a), mp.mpf(b)
        self.mean = self.a / (self.a + self.b)
        self._cdf = {}  # mp.quad asks for the same nodes in every integral

    def cdf(self, r):
        if r not in self._cdf:
            self._cdf[r] = mp.betainc(self.a, self.b, 0, r, regularized=True)
        return self._cdf[r]

    def tail(self, u):
        a, b = self.a, self.b
        upper = lambda s: 1 - mp.betainc(s, b, 0, u, regularized=True)
        return self.mean * upper(a + 1) - u * upper(a)

    def power_integral(self, alpha, beta, n, lo):
        """``integral_lo^1 (alpha + beta F(r))^n dr``."""
        # the nodes crowd towards lo, where a concentrated prior's mass is
        pts = [lo + (1 - lo) * mp.mpf(2) ** -k for k in range(8, 0, -1)]
        value, err = mp.quad(lambda r: (alpha + beta * self.cdf(r)) ** n, [lo, *pts, 1],
                             error=True)
        assert err < _QUAD_ERR, f"mp.quad error estimate {err}"
        return value

    def poly_integral(self, coeffs, lo, hi):
        """``integral_lo^hi P(F(r)) dr`` for the polynomial ``P`` with the
        ascending ``coeffs``; the caller cuts at every kink of the integrand."""
        value, err = mp.quad(lambda r: polyval(coeffs, self.cdf(r)), [lo, hi], error=True)
        assert err < _QUAD_ERR, f"mp.quad error estimate {err}"
        return value


class EmpiricalPrior:
    def __init__(self, d):
        self.g = [mp.mpf(float(v)) for v in d.grid]
        self.c = [mp.mpf(float(v)) for v in d.cdf_values]
        self.mean = 1 - sum(self._piece(0, 1, 1, k, self.g[k], self.g[k + 1])
                            for k in range(len(self.g) - 1))

    def _index(self, r):
        """The piece ``k`` with ``g[k] <= r < g[k+1]`` (the last piece holds 1)."""
        return min(bisect.bisect_right(self.g, r), len(self.g) - 1) - 1

    def cdf(self, r, k=None):
        """``F(r)``, on piece ``k`` if given (``r`` may be its upper end)."""
        k = self._index(r) if k is None else k
        g0, g1, c0, c1 = self.g[k], self.g[k + 1], self.c[k], self.c[k + 1]
        return c0 + (c1 - c0) * (r - g0) / (g1 - g0)

    def _piece(self, alpha, beta, n, k, lo, hi):
        """``integral_lo^hi (alpha + beta F)^n`` within piece ``k``, where the
        integrand is ``L^n`` for ``L`` linear: ``(hi - lo) sum_j L1^j L0^(n-j)
        / (n+1)``, a sum of nonnegative terms when ``L >= 0``."""
        l0, l1 = alpha + beta * self.cdf(lo, k), alpha + beta * self.cdf(hi, k)
        acc, p0 = mp.mpf(1), mp.mpf(1)
        for _ in range(n):
            p0 *= l0
            acc = acc * l1 + p0
        return (hi - lo) * acc / (n + 1)

    def power_integral(self, alpha, beta, n, lo):
        first = self._index(lo)
        return sum(self._piece(alpha, beta, n, k, max(lo, self.g[k]), self.g[k + 1])
                   for k in range(first, len(self.g) - 1))

    def tail(self, u):
        return self.power_integral(1, -1, 1, u)

    def poly_integral(self, coeffs, lo, hi):
        """``integral_lo^hi P(F(r)) dr`` for the polynomial ``P`` with the
        ascending ``coeffs``, exact per grid piece: with ``F`` running
        linearly from ``f0`` to ``f1``, the mean of ``F^m`` is
        ``h_m / (m+1)``, ``h_m = sum_j f1^j f0^(m-j) = f1 h_(m-1) + f0^m``."""
        total = mp.mpf(0)
        for k in range(self._index(lo), len(self.g) - 1):
            a, b = max(lo, self.g[k]), min(hi, self.g[k + 1])
            if b <= a:
                break
            f0, f1 = self.cdf(a, k), self.cdf(b, k)
            h, p0, mean = mp.mpf(1), mp.mpf(1), coeffs[0]
            for m, c in enumerate(coeffs[1:], start=1):
                p0 *= f0
                h = f1 * h + p0
                mean += c * h / (m + 1)
            total += (b - a) * mean
        return total


@pytest.fixture(scope="module")
def priors(hotel_dist):
    """Each prior with its reference: ``{name: (d, reference)}``."""
    ds = {"uniform": RewardDistribution.uniform(), "beta:2,5": RewardDistribution.beta(2, 5),
          "beta:2,50": RewardDistribution.beta(2, 50),
          "beta:0.5,0.5": RewardDistribution.beta(0.5, 0.5), "hotel": hotel_dist}
    return {name: (d, BetaPrior(d.alpha, d.beta_param) if d.kind == "beta" else EmpiricalPrior(d))
            for name, d in ds.items()}


def reference_terms(ref, N, T):
    """``F(mu)``, ``I``, ``E``, ``P``, ``x_i`` and ``y_i`` for ``_INDICES`` and the
    always-open welfare and exploration count at horizon ``T``."""
    mu = ref.mean
    fmu = ref.cdf(mu)
    q = fmu**N
    tail = ref.power_integral(0, 1, N, mu)  # I = integral_mu^1 F^N
    out = {"F(mu)": fmu, "I": tail, "E": (1 - mu * q - tail) / (1 - q),
           "P": (1 - mu - tail) / (1 - q)}
    width = 1 - mu
    int_f = ref.power_integral(0, 1, 1, mu)
    for i in _INDICES:
        c, c_n = fmu**i, fmu ** (i * N)
        alpha, beta = (c - fmu) / (1 - fmu), (1 - c) / (1 - fmu)  # single = alpha + beta F
        a_p, b_p = (c_n - q) / (1 - q), (1 - c_n) / (1 - q)  # pooled = a_p + b_p F^N
        int_single = alpha * width + beta * int_f
        int_pooled = a_p * width + b_p * tail
        out[f"x_{i}"] = int_single - int_pooled
        out[f"y_{i}"] = int_pooled - ref.power_integral(alpha, beta, N, mu)
    slots = [mu + (1 - q**t) * out["P"] for t in range(T + 1)]
    out["welfare per agent-slot"] = sum(slots) / (T + 1)
    out["exploration slots"] = sum(q**t for t in range(T + 1))
    return out


def program_terms(d, N, T):
    """The same quantities from the program; ``I`` is read back from ``P``."""
    terms = myopic._terms(d, N, max(_INDICES) + 1)
    mu, q = d.mean(), terms.fmu**N
    out = {"F(mu)": terms.fmu, "I": 1 - mu - terms.loss * (1 - q), "E": terms.exploit,
           "P": terms.loss}
    for i in _INDICES:
        out[f"x_{i}"] = terms.sx[i] - terms.sx[i - 1]
        out[f"y_{i}"] = terms.ys[i]
    report = myopic.welfare_centralized(d, N, T)
    out["welfare per agent-slot"] = report.total_welfare / (N * (T + 1))
    out["exploration slots"] = report.expected_exploration_slots
    return out


def errors(got, want):
    return {key: float(abs(mp.mpf(float(got[key])) - want[key])) for key in want}


# cases the program misses today, each with what it does instead
_MISSED = {
    ("beta:0.5,0.5", 30): pytest.mark.xfail(
        strict=True, raises=QuadratureError, reason="integrate raises QuadratureError on "
        "I = integral_mu^1 F^30 instead of an estimate (ROADMAP item 3)"),
}


@pytest.mark.parametrize("prior, N", [pytest.param(prior, N, marks=_MISSED.get((prior, N), ()))
                                      for prior in _PRIORS for N in (2, 5, 30)])
def test_myopic_terms_match_the_reference(priors, prior, N):
    d, ref = priors[prior]
    T = 20
    err = errors(program_terms(d, N, T), reference_terms(ref, N, T))
    worst = max(err, key=err.get)
    assert err[worst] <= distributions._ABS_TOL, f"{worst}: error {err[worst]:.3g}"


def reference_solo(ref, T):
    mu = ref.mean
    return [mp.findroot(lambda u: u - mu - (T - t) * ref.tail(u), (mu, 1), solver="anderson")
            for t in range(1, T)]


@pytest.mark.parametrize("prior", _PRIORS)
def test_solo_thresholds_match_the_reference(priors, prior):
    d, ref = priors[prior]
    T = 20  # the root depends only on T-t, so this covers every T <= 20
    got = nonmyopic.solve_single_agent(d, T).values[:-1]
    want = reference_solo(ref, T)
    err = [float(abs(mp.mpf(float(g)) - w)) for g, w in zip(got, want)]
    assert max(err) <= distributions._ABS_TOL, f"slot {err.index(max(err)) + 1}: {max(err):.3g}"


def polyval(coeffs, x):
    """The polynomial with the ascending ``coeffs`` at ``x`` (Horner)."""
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def polymul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def reference_welfare(ref, N, T, seq):
    """``welfare_one_time`` and its exploration count from the program's solved
    thresholds ``seq``, in the decomposition of its docstring, every integral
    at 30 digits cut at every kink.

    The belief law of one agent's best reward after the pre-sharing slots is
    ``G = F^t - (1 - F) S_t`` on the band ``u_t < r <= u_(t-1)`` (``u_0 = 1``),
    ``S_t = sum_(i=t..T1) F(u_i)^i``, a polynomial in ``F`` on each band; so
    each band ``[ubar_(T1+k+1), ubar_(T1+k)]`` of ``G^N F^k`` is integrated
    as the polynomial ``(F^t - S_t + S_t F)^N F^k`` between the prefix
    thresholds inside it.
    """
    T1 = seq.comm_slot_T1
    u = [mp.mpf(1)] + [mp.mpf(float(v)) for v in seq.values]  # u[t] = u_t
    F = [ref.cdf(x) for x in u]
    mu = ref.mean
    prefix = u[1 : T1 + 1]
    S = [mp.fsum(F[i] ** i for i in range(t, T1 + 1)) for t in range(T1 + 2)]  # S[T1+1] = 0

    def law_poly(t):  # G on band t as a polynomial in F
        p = [mp.mpf(0)] * (t + 1)
        p[0] -= S[t]
        p[1] += S[t]
        p[t] += 1
        return p

    def band(r):  # 1 + the prefix thresholds at or above r
        return 1 + sum(x >= r for x in prefix)

    pre_explore = mp.fsum(F[t] ** t for t in range(1, T1 + 1))
    pre = mp.mpf(0)
    for t in range(T1):
        # slot t: integral r d(F^(t+1)) over (u_(t+1), u_t], by parts, and the
        # integral of r dF over (u_t, 1], 1 - u F(u) - integral_u^1 F
        lo, hi = u[t + 1], u[t]
        stieltjes = (hi * F[t] ** (t + 1) - lo * F[t + 1] ** (t + 1)
                     - ref.poly_integral([0] * (t + 1) + [1], lo, hi))
        above = 1 - hi * F[t] - ((1 - hi) - ref.tail(hi))
        pre += (T1 - t) * (stieltjes + F[t] ** t * above)

    post = u[T1 + 1 :]
    bands = []
    for k, (lo, hi) in enumerate(zip(post, [mp.mpf(1), *post[:-1]])):
        edges = [lo, *sorted(x for x in prefix if lo < x < hi), hi]
        total = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            p = [mp.mpf(0)] * k + [mp.mpf(1)]
            for _ in range(N):
                p = polymul(p, law_poly(band(b)))
            total += ref.poly_integral(p, a, b)
        bands.append(total)
    pooled = (T - T1) * (1 - bands[0])
    resume = mp.fsum((T - T1 - tau) * bands[tau] for tau in range(1, T - T1))
    welfare = N * (mu * (1 + pre_explore) + pre + pooled - resume)
    count = 1 + pre_explore + mp.fsum(
        polyval(law_poly(band(r)), F[T1 + tau]) ** N * F[T1 + tau] ** tau
        for tau, r in enumerate(post, start=1))
    return welfare, count


@pytest.mark.parametrize("N", (2, 5))
@pytest.mark.parametrize("prior", ("uniform", "beta:2,5", "hotel"))
def test_welfare_one_time_matches_the_reference(priors, prior, N):
    d, ref = priors[prior]
    T = 12
    for T1 in (1, T // 2, T - 1):
        seq = nonmyopic.solve_one_time(d, N, T, T1)
        welfare, count = nonmyopic.welfare_one_time(d, N, T, seq)
        want_welfare, want_count = reference_welfare(ref, N, T, seq)
        # per agent and slot
        err = {"welfare": float(abs(mp.mpf(welfare) - want_welfare)) / (N * (T + 1)),
               "exploration count": float(abs(mp.mpf(count) - want_count)) / (T + 1)}
        worst = max(err, key=err.get)
        assert err[worst] <= distributions._ABS_TOL, f"T1={T1}, {worst}: error {err[worst]:.3g}"


@pytest.mark.parametrize("prior", ("uniform", "beta:2,5"))
def test_welfare_one_time_with_a_tie_across_the_sharing_slot(priors, prior):
    # u_T1 = u_T = mu: the last pre-sharing threshold ties the last post one, so
    # the lowest segment between the candidate's thresholds has zero width and
    # must still count in the last resumed slot's band, tau = T-T1-1
    d, ref = priors[prior]
    N, T, T1 = 5, 10, 4
    solved = nonmyopic.solve_one_time(d, N, T, T1)
    values = solved.values.copy()
    values[T1 - 1] = values[-1]
    seq = nonmyopic.ThresholdSequence(T, T1, values, solved.residuals)
    welfare, count = nonmyopic.welfare_one_time(d, N, T, seq)
    want_welfare, want_count = reference_welfare(ref, N, T, seq)
    assert float(abs(mp.mpf(welfare) - want_welfare)) / (N * (T + 1)) <= distributions._ABS_TOL
    assert float(abs(mp.mpf(count) - want_count)) / (T + 1) <= distributions._ABS_TOL
