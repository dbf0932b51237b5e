"""Reward priors on [0, 1] and the quadrature primitives built on them.

Every mechanism calculation in this package reduces to tail integrals of
functions of a single CDF ``F`` with support exactly [0, 1].  This module
provides the two prior kinds (Beta, and empirical piecewise-linear CDFs, of
which the uniform prior is one), inverse-CDF sampling, and an adaptive
Simpson integrator that splits at known kink locations so that
piecewise-smooth integrands converge quickly.

The empirical inverse CDF is table-driven, after Chen & Asau ("On
generating random variates from an empirical distribution", AIIE
Transactions 6, 1974): a guide table of equal-width quantile buckets finds
each quantile's CDF segment with one compare, and four per-segment tables
(lower CDF value, CDF span, lower grid point, grid rise) give the linear
interpolation with no special case for the first segment.

Every integral runs at one absolute tolerance, ``_ABS_TOL``, with the
refinement depth capped at ``_MAX_DEPTH``; the kinks are data, the prior's
own (the empirical grid) plus the ``breakpoints`` a caller passes.  The
integrator takes scalar bounds or arrays of bounds.  An array call
refines the pieces of every ``(lo, hi)`` pair together, one vectorized
integrand call per refinement depth, the first with all five Simpson nodes
of every piece, and gives each pair the nodes and the estimate it would get
alone; callers batch many small integrals into one call that way.  A
non-finite integral is refused, and a piece with a NaN error estimate is
not refined on the way.
Integrands are vectorized: each maps the array of nodes to an array of the
same shape.  The node array's ``pair`` gives each node's index into
``lo``/``hi``, so one integrand serves pairs with different constants, and
``groups`` joins consecutive intervals into one integral, cut where they
meet, so a caller can cut each integral at its own points.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import DistributionError, QuadratureError

__all__ = [
    "RewardDistribution",
    "integrate",
]

_ABS_TOL = 1e-9  # absolute error target of every integral
_MAX_DEPTH = 40  # bisections of a piece before QuadratureError


@dataclass(frozen=True, eq=False)
class RewardDistribution:
    """Prior law of a fresh option's reward, supported exactly on [0, 1].

    Two kinds: ``"beta"`` with ``alpha`` and ``beta_param``, and
    ``"empirical"``, the CDF linear between the points ``(grid, cdf_values)``
    (so it is monotone and inverse sampling is exact); :meth:`uniform` is the
    empirical CDF through (0, 0) and (1, 1).  Every construction path (the
    classmethods, the plain constructor, ``dataclasses.replace``) runs
    ``__post_init__``, which validates, keeps read-only copies of the arrays
    and derives the mean and the `ppf` bucket and segment tables.  Instances
    are immutable.
    """

    kind: str
    alpha: float | None = None
    beta_param: float | None = None
    grid: np.ndarray | None = None
    cdf_values: np.ndarray | None = None
    _mean: float = field(init=False, repr=False)
    # empirical kind: bucket and segment tables of `ppf` (see `_segment` and
    # `_segment_tables`), and for `tail_mean_excess` the integrals of 1 - F
    # from each grid point to 1
    _buckets: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, default=None)
    _segments: tuple[np.ndarray, ...] | None = field(init=False, repr=False, default=None)
    _tail: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind == "beta":
            a, b = (np.nan if v is None else float(v) for v in (self.alpha, self.beta_param))
            if not (0 < a < np.inf and 0 < b < np.inf):  # NaN fails too
                raise DistributionError("Beta parameters must be positive and finite, "
                                        f"got alpha={self.alpha}, beta={self.beta_param}")
            if a + b == np.inf:  # the mean would read 0 and betainc NaN
                raise DistributionError("Beta parameters must have a finite sum, "
                                        f"got alpha={self.alpha}, beta={self.beta_param}")
            object.__setattr__(self, "alpha", a)
            object.__setattr__(self, "beta_param", b)
            object.__setattr__(self, "_mean", a / (a + b))
            return
        if self.kind != "empirical":
            raise DistributionError(f"unknown kind {self.kind!r}, expected 'beta' or 'empirical'")
        g = np.array(self.grid, dtype=float)
        c = np.asarray(self.cdf_values, dtype=float)
        if g.ndim != 1 or g.shape != c.shape or g.size < 2:
            raise DistributionError("grid and cdf_values must be 1-d, equal length >= 2")
        if not (np.isfinite(g).all() and np.isfinite(c).all()):
            raise DistributionError("grid and cdf_values must be finite")
        if g[0] != 0.0 or g[-1] != 1.0:
            raise DistributionError("empirical grid must start at 0 and end at 1")
        if np.any(np.diff(g) <= 0):
            raise DistributionError("empirical grid must be strictly increasing")
        if np.any(c < -1e-12) or np.any(c > 1 + 1e-12) or np.any(np.diff(c) < -1e-12):
            raise DistributionError("cdf_values must be nondecreasing within [0, 1]")
        if abs(c[-1] - 1.0) > 1e-9:
            raise DistributionError(f"cdf must reach 1 at r=1, got {c[-1]}")
        c = np.clip(np.maximum.accumulate(c), 0.0, 1.0)
        c[-1] = 1.0
        # private read-only copies: the instance is immutable, and
        # interior_breakpoints() hands out a view of the grid
        g.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "cdf_values", c)
        # trapezoid of 1 - C is exact for a piecewise-linear CDF
        object.__setattr__(self, "_mean", 1.0 - float(np.trapezoid(c, g)))
        object.__setattr__(self, "_buckets", _bucket_table(c))
        object.__setattr__(self, "_segments", _segment_tables(g, c))
        seg = 0.5 * ((1.0 - c[:-1]) + (1.0 - c[1:])) * np.diff(g)  # trapezoids of 1 - C
        object.__setattr__(self, "_tail", np.append(np.cumsum(seg[::-1])[::-1], 0.0))

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls) -> "RewardDistribution":
        return cls.empirical([0.0, 1.0], [0.0, 1.0])

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "RewardDistribution":
        return cls("beta", alpha=alpha, beta_param=beta)

    @classmethod
    def beta_with_mean(cls, mean: float) -> "RewardDistribution":
        """Beta prior with the given mean and ``alpha + beta = 5``."""
        if not 0 < mean < 1:
            raise DistributionError(f"mean must lie in (0, 1), got {mean}")
        return cls.beta(mean * 5.0, (1.0 - mean) * 5.0)

    @classmethod
    def empirical(
        cls, grid: Sequence[float], cdf_values: Sequence[float]
    ) -> "RewardDistribution":
        return cls("empirical", grid=grid, cdf_values=cdf_values)

    # -- evaluation -----------------------------------------------------

    def cdf(self, r):
        """CDF ``F(r)``; ``r`` may be a scalar or an array with values in [0, 1]."""
        arr = np.asarray(r, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DistributionError(f"cdf argument outside [0, 1]: {arr.min()}..{arr.max()}")
        if self.kind == "beta":
            out = special.betainc(self.alpha, self.beta_param, arr)
        else:
            out = np.interp(arr, self.grid, self.cdf_values)
        return float(out) if np.isscalar(r) else out

    def ppf(self, q):
        """Generalized inverse CDF; exact for the piecewise-linear empirical kind.

        For the empirical kind ``_segment`` finds each quantile's CDF index
        ``j`` and the segment tables (see ``_segment_tables``) give
        ``((u - c0) / span) * rise + g0``, the interpolation ``searchsorted``
        plus the grid would give, bit for bit; ``u <= cdf_values[0]`` (the
        atom at 0) gives ``grid[0]``.  A ``q`` outside [0, 1] gives the
        nearest end of the support, and NaN stays NaN.
        """
        arr = np.atleast_1d(np.asarray(q, dtype=float))
        if self.kind == "beta":
            a, b = self.alpha, self.beta_param
            out = special.betaincinv(a, b, arr)
            # below 2^-53 betaincinv may give NaN, a value whose CDF is far
            # from q, or a non-monotone run; keep it only where I_x(a, b)
            # comes back within 1e-3 of q, else invert I_x ~ x^a / (a B(a, b))
            tiny = (arr > 0.0) & (arr < 2.0**-53)
            if tiny.any():
                q_t, x_t = arr[tiny], out[tiny]
                bad = ~(np.abs(special.betainc(a, b, x_t) / q_t - 1.0) <= 1e-3)  # NaN fails
                x_t[bad] = np.exp((np.log(q_t[bad]) + np.log(a) + special.betaln(a, b)) / a)
                out[tiny] = x_t
        else:
            c0, span, g0, rise = self._segments
            j = self._segment(arr)
            # ((u - c0) / span) * rise + g0 from the segment tables, in two
            # reused buffers; `j` is in range, and mode "clip" spares `take`
            # its buffered bounds check
            out = np.take(c0, j, mode="clip")
            np.subtract(arr, out, out=out)
            buf = np.take(span, j, mode="clip")
            out /= buf
            out *= np.take(rise, j, out=buf, mode="clip")
            out += np.take(g0, j, out=buf, mode="clip")
        np.clip(out, 0.0, 1.0, out=out)
        return float(out[0]) if np.isscalar(q) else out.reshape(np.shape(q))

    def _segment(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf_values, u, side="left")`` clipped to the grid.

        For ``u`` in [0, 1] the bucket ``k = floor(u * M)`` of the table
        bounds the index to ``start[k] .. start[k+1]``; where that span
        holds at most one CDF point, one step-forward compare finishes the
        search.  The rare wider buckets (steep stretches of the CDF) and any
        ``u`` outside [0, 1] go through ``np.searchsorted``.
        """
        start, c, wide = self._buckets
        if not (u.size and 0.0 <= u.min() and u.max() <= 1.0):
            return np.clip(np.searchsorted(c, u, side="left"), 0, c.size - 1)
        k = (u * wide.size).astype(np.intp)
        np.minimum(k, wide.size - 1, out=k)
        j = start[k]
        j += c[j] < u
        slow = wide[k]
        if slow.any():
            j[slow] = np.searchsorted(c, u[slow], side="left")
        return j

    def mean(self) -> float:
        """Mean reward, i.e. the integral of ``1 - F`` over [0, 1]."""
        return self._mean

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw(s) using the caller-owned generator ``rng``."""
        return self.ppf(rng.random(size))

    def tail_mean_excess(self, u) -> float:
        """Closed-form ``integral_u^1 (1 - F(r)) dr`` for each supported kind."""
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise DistributionError("tail_mean_excess argument outside [0, 1]")
        if self.kind == "beta":
            a, b = self.alpha, self.beta_param
            out = self._mean * (1.0 - special.betainc(a + 1.0, b, arr)) - arr * (
                1.0 - special.betainc(a, b, arr)
            )
        else:
            # the table to the segment's upper end plus a trapezoid to it
            g, c = self.grid, self.cdf_values
            j = np.clip(np.searchsorted(g, arr, side="right"), 1, g.size - 1)
            partial = 0.5 * ((1.0 - np.interp(arr, g, c)) + (1.0 - c[j])) * (g[j] - arr)
            out = self._tail[j] + partial
        out = np.maximum(out, 0.0)
        return float(out[0]) if np.isscalar(u) else out.reshape(np.shape(u))

    def interior_breakpoints(self) -> np.ndarray:
        """Kink locations of F inside (0, 1), ascending; empty for the Beta kind."""
        if self.kind == "empirical":
            return self.grid[1:-1]
        return np.empty(0)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        """Write the empirical CDF as two columns ``r,cdf`` (17 significant digits)."""
        if self.kind != "empirical":
            raise DistributionError(f"only empirical distributions serialize to CSV, not {self.kind}")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "cdf"])
            for r, c in zip(self.grid, self.cdf_values):
                writer.writerow([f"{r:.17g}", f"{c:.17g}"])

    @classmethod
    def from_csv(cls, path) -> "RewardDistribution":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DistributionError(f"{path}: {exc}") from exc
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["r", "cdf"]:
            raise DistributionError(f"{path}: expected header 'r,cdf'")
        rs, cs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rs.append(float(row[0]))
                cs.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise DistributionError(f"{path}:{lineno}: bad row {row!r}") from exc
        return cls.empirical(rs, cs)

    def __repr__(self):
        if self.kind == "beta":
            return f"RewardDistribution.beta({self.alpha:g}, {self.beta_param:g})"
        if self.grid.size == 2 and self.cdf_values[0] == 0.0:
            return "RewardDistribution.uniform()"
        return f"RewardDistribution.empirical(<{self.grid.size} pts>, mean={self._mean:.4g})"


def _bucket_table(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket table of `RewardDistribution._segment` over the CDF values ``c``.

    ``M`` buckets of width ``1/M`` cover [0, 1], the last one closed; ``M``
    is the smallest power of two with at least 8 buckets per CDF point, so
    ``u * M`` and ``k / M`` are exact and most buckets hold no point at all.
    Returns ``start`` (``M + 1`` entries, ``searchsorted(c, k / M)``), ``c``
    itself, which the compare reads (``start[k]`` is at most the last index,
    as ``c`` ends at 1), and the mask of buckets whose span holds more than
    one point.
    """
    M = 1 << (8 * c.size - 1).bit_length()
    start = np.searchsorted(c, np.arange(M + 1) / M, side="left")
    wide = np.diff(start) > 1
    for a in (start, wide):
        a.setflags(write=False)
    return start, c, wide


def _segment_tables(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per CDF index ``j`` the line of `RewardDistribution.ppf` on segment
    ``j``, read-only: ``c0 = c[j-1]``, ``span = c[j] - c0``, ``g0 = g[j-1]``
    and ``rise = g[j] - g0``, so ``ppf(u) = ((u - c0) / span) * rise + g0``
    clipped to [0, 1].

    A segment with ``span = 0`` holds no quantile and gets the unit line
    ``u - c0 + g0`` instead, which the clip takes to an end of the support:
    segment 0 (``u <= c[0]``, with ``c0 = c[0]`` and ``g0 = g[0] = 0``) to 0,
    and a flat segment (``g0 = 1``), which only ``u > 1`` past a flat top
    reaches, to 1.  So no quantile divides by zero, and ``-inf`` gives 0.
    """
    c0 = np.concatenate([c[:1], c[:-1]])
    g0 = np.concatenate([g[:1], g[:-1]])
    span = c - c0
    rise = g - g0
    empty = span == 0.0  # segment 0 and the flat ones
    span[empty] = rise[empty] = 1.0
    g0[1:][empty[1:]] = 1.0
    tables = (c0, span, g0, rise)
    for a in tables:
        a.setflags(write=False)
    return tables


class _Nodes(np.ndarray):
    """The node array an integrand receives: a view of the float nodes whose
    ``pair`` gives each node's index into the raveled ``lo``/``hi``.  The
    index repeats the per-piece index, block by block, only when it is read."""

    _piece_pair: np.ndarray

    @property
    def pair(self) -> np.ndarray:
        return np.concatenate([self._piece_pair] * (self.size // self._piece_pair.size))


def _evaluate(integrand: Callable, x: np.ndarray, piece_pair: np.ndarray) -> np.ndarray:
    """``integrand`` at the node array ``x``: blocks of one node for each
    piece, the pieces of the intervals ``piece_pair``.  It must map ``x`` to
    an array of the same shape."""
    nodes = x.view(_Nodes)
    nodes._piece_pair = piece_pair
    y = np.asarray(integrand(nodes), dtype=float)
    if y.shape != x.shape:
        raise TypeError(
            f"integrand must map an array of shape {x.shape} to one of the same shape, "
            f"got shape {y.shape}"
        )
    return y


def integrate(
    dist: RewardDistribution,
    integrand: Callable,
    lo,
    hi,
    breakpoints: Sequence[float] = (),
    groups=None,
) -> float | np.ndarray:
    """Adaptive-Simpson estimate of ``integral_lo^hi integrand(r) dr``.

    ``lo`` and ``hi`` are scalars, giving a float, or arrays broadcast to one
    shape, giving an array with one integral per ``(lo, hi)`` pair.  Each
    pair's interval is cut at every one of ``breakpoints`` (abscissae in
    [0, 1], in any order, duplicates allowed) and every interior kink of
    ``dist`` (the empirical grid) that falls strictly inside (lo, hi), then
    each piece is refined until its Richardson error estimate fits its share
    of ``_ABS_TOL``, which is split between the pieces of a pair in
    proportion to their width.  So each pair gets the nodes and
    the estimate it would get alone.  All pieces of all pairs at the same
    refinement depth are evaluated in one integrand call, which must map
    the node array to an array of the same shape; the first call takes the
    five nodes of every piece, each later one the quarter points of every
    half still refined.  The node array's ``pair`` attribute gives each
    node's index into the raveled ``lo``/``hi``, so one integrand can read
    per-pair constants from tables; wrapping the integrand as
    ``lambda x: f(x)`` passes it through.
    Zero-width pairs give 0 without evaluating the integrand.  The values at
    a piece's ends are taken ``1e-12`` of the pair's width inside the piece,
    and at least one float inside, so the integrand may jump or be undefined
    at ``lo``, ``hi`` and the kinks.

    ``groups``, a 1-d array as long as the 1-d ``lo`` and ``hi``, joins
    intervals into integrals: each run of consecutive equal values is one
    integral, its intervals ascending and end to end (``hi`` of one is
    ``lo`` of the next), and the result holds one value per run.  A run
    shares its integral's tolerance, end nudge and summation order, so it
    gets exactly what the lone pair from its first ``lo`` to its last ``hi``
    gets with its inner ends among the ``breakpoints``; ``pair`` still
    indexes the intervals.  A node leaves its interval only where that is
    narrower than its run's end nudge.

    Raises
    ------
    TypeError
        If the integrand does not map the node array to an array of the
        same shape (a scalar-only or constant integrand, say).
    ValueError
        If ``groups`` does not match ``lo`` or a run's intervals do not join.
    DistributionError
        If a pair is outside ``0 <= lo <= hi <= 1``; the first such pair is
        named.
    QuadratureError
        If the integral of some pair is not finite (the integrand gave NaN
        or an infinity; a piece whose error estimate is NaN is accepted at
        once, not refined), with ``error_bound`` NaN; or if some piece still
        exceeds its tolerance at ``_MAX_DEPTH``.  The error carries the best
        available estimate (a float or an array, like the result) and the
        summed error estimate of the failed pieces.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo_arr, hi_arr = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo_arr.shape
    lo_arr, hi_arr = lo_arr.ravel(), hi_arr.ravel()
    ok = (0.0 <= lo_arr) & (lo_arr <= hi_arr) & (hi_arr <= 1.0)
    if not ok.all():
        if scalar:
            raise DistributionError(
                f"integration bounds must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]"
            )
        j = int(np.argmin(ok))
        raise DistributionError(
            "integration bounds must satisfy 0 <= lo <= hi <= 1, "
            f"got [{lo_arr[j]}, {hi_arr[j]}] at pair {j}"
        )
    width = hi_arr - lo_arr
    live = np.flatnonzero(width > 0.0)
    group = None  # each interval's integral, where that is not the interval itself
    if groups is not None:
        g = np.asarray(groups)
        if g.shape != shape or g.ndim != 1:
            raise ValueError(f"groups must be 1-d of shape {shape}, got shape {g.shape}")
        first = np.concatenate([[True], g[1:] != g[:-1]])
        if not np.array_equal(lo_arr[1:][~first[1:]], hi_arr[:-1][~first[1:]]):
            raise ValueError("the intervals of a group must be ascending and end to end")
        group = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        width = hi_arr[np.append(starts[1:], g.size) - 1] - lo_arr[starts]
        shape = width.shape
    total = np.zeros(width.size)
    failed_bound = 0.0
    failed = False
    if live.size:
        # pieces of every live interval, interval by interval: edges lo, the
        # kinks in (lo, hi), hi; `grid`'s pad entry only fills slots
        # overwritten by hi
        kinks = dist.interior_breakpoints()
        if len(breakpoints):  # the empty default (the scalar myopic calls) skips this
            kinks = np.union1d(kinks, breakpoints)
        lo_l, hi_l = lo_arr[live], hi_arr[live]
        first_cut = np.searchsorted(kinks, lo_l, side="right")
        n_pieces = np.searchsorted(kinks, hi_l, side="left") - first_cut + 1
        pair = np.repeat(live, n_pieces)  # each piece's interval
        pid = pair if group is None else group[pair]  # and its integral
        start = np.cumsum(n_pieces) - n_pieces
        right = np.arange(pid.size) + np.repeat(first_cut - start, n_pieces)
        grid = np.append(kinks, 1.0)
        a = grid[right - 1]
        a[start] = lo_l
        b = grid[right]
        b[start + n_pieces - 1] = hi_l
        m = 0.5 * (a + b)
        # breakpoints may be jumps or poles of the integrand: take one-sided
        # values by nudging the initial edge evaluations inward, at least to
        # the next float where the nudge is below the float spacing
        eps = 1e-12 * width[pid]
        a_in = np.maximum(a + eps, np.nextafter(a, b))
        b_in = np.minimum(b - eps, np.nextafter(b, a))
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        # depth 0 evaluates all five nodes of every piece in one call
        y = _evaluate(integrand, np.concatenate([a_in, b_in, m, lm, rm]), pair)
        fa, fb, fm, flm, frm = y.reshape(5, -1)
        s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        tol = _ABS_TOL * (b - a) / width[pid]

        depth = 0
        while True:
            sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            sr = (b - m) / 6.0 * (fb + 4.0 * frm + fm)
            s2 = sl + sr
            corr = (s2 - s) / 15.0
            keep = np.abs(corr) > tol  # a NaN estimate is not split: it stays NaN
            if depth >= _MAX_DEPTH:
                failed = failed or bool(keep.any())
                failed_bound += float(np.sum(np.abs(corr[keep])))
                keep[:] = False
            done = ~keep
            total += np.bincount(pid[done], weights=(s2 + corr)[done], minlength=total.size)
            if not keep.any():
                break
            # split every unconverged interval into its two halves
            a = np.concatenate([a[keep], m[keep]])
            b = np.concatenate([m[keep], b[keep]])
            fa = np.concatenate([fa[keep], fm[keep]])
            fb = np.concatenate([fm[keep], fb[keep]])
            fm = np.concatenate([flm[keep], frm[keep]])
            m = 0.5 * (a + b)
            s = np.concatenate([sl[keep], sr[keep]])
            tol = np.concatenate([0.5 * tol[keep], 0.5 * tol[keep]])
            pid = np.concatenate([pid[keep], pid[keep]])
            pair = pid if group is None else np.concatenate([pair[keep], pair[keep]])
            depth += 1
            lm, rm = 0.5 * (a + m), 0.5 * (m + b)
            flm, frm = _evaluate(integrand, np.concatenate([lm, rm]), pair).reshape(2, -1)

    result = float(total[0]) if scalar else total.reshape(shape)
    nonfinite = ~np.isfinite(total)
    if nonfinite.any():
        j = int(np.argmax(nonfinite))
        which = "" if scalar else f" of pair {j}"
        raise QuadratureError(f"non-finite integrand: the integral{which} is {total[j]}",
                              estimate=result, error_bound=np.nan)
    if failed:
        raise QuadratureError(
            f"quadrature did not converge to abs_tol={_ABS_TOL} within depth {_MAX_DEPTH}",
            estimate=result,
            error_bound=failed_bound,
        )
    return result
