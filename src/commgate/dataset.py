"""Turn a hotel-ratings table into an empirical reward prior.

Per-hotel average ratings, normalized by their rating scale, are smoothed
with a Gaussian kernel density (reflected at both support edges so no mass
leaks outside [0, 1]) and integrated into a piecewise-linear CDF.  The
per-hotel rating dispersion doubles as the heterogeneous-preference noise
scale for the simulator.

The kernel CDF is evaluated a block of grid points at a time in two reused
arrays of ``_KDE_BLOCK_BYTES`` each, so fitting holds O(rows) input vectors
plus those two blocks, whatever the number of hotels (a block always holds at
least one whole grid row of all hotels).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import RewardDistribution
from .errors import DatasetError

__all__ = [
    "RatingsTable",
    "load_ratings",
    "fit_reward_cdf",
    "estimate_pref_sd",
    "silverman_bandwidth",
]

_GRID_POINTS = 512
_KDE_BLOCK_BYTES = 1 << 20  # size of each of the fit's two KDE block arrays


@dataclass(frozen=True)
class RatingsTable:
    """Validated per-hotel rating statistics; ratings still on their raw scale."""

    hotel_ids: tuple[str, ...]
    avg_ratings: np.ndarray
    scale_max: np.ndarray
    n_reviews: np.ndarray
    rating_sd: np.ndarray | None  # None when the column is absent

    def __len__(self) -> int:
        return len(self.hotel_ids)

    @property
    def normalized(self) -> np.ndarray:
        """Average ratings mapped onto [0, 1] by their scale maxima."""
        return self.avg_ratings / self.scale_max

    @property
    def normalized_sd(self) -> np.ndarray | None:
        if self.rating_sd is None:
            return None
        return self.rating_sd / self.scale_max


def load_ratings(path) -> RatingsTable:
    """Parse and validate a ratings CSV.

    The columns are ``hotel_id``, ``avg_rating``, ``rating_scale_max``,
    ``n_reviews`` and, optionally, ``rating_sd``.  Rows that fail to parse
    or hold a non-finite or out-of-range value, or a fractional review count
    (``76.0`` is a count, ``3.7`` is not), are reported with their line
    numbers.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DatasetError(f"{path}: empty file")
            missing = [
                k for k in ("hotel_id", "avg_rating", "rating_scale_max", "n_reviews")
                if k not in reader.fieldnames
            ]
            if missing:
                raise DatasetError(f"{path}: missing columns {missing}")
            has_sd = "rating_sd" in reader.fieldnames
            ids, avgs, scales, counts, sds = [], [], [], [], []
            bad_lines = []
            for lineno, row in enumerate(reader, start=2):
                try:
                    avg = float(row["avg_rating"])
                    scale = float(row["rating_scale_max"])
                    count = float(row["n_reviews"])
                    if not count.is_integer():  # NaN and inf fail too
                        raise ValueError(f"n_reviews must be a whole number, got {count!r}")
                    n_rev = int(count)
                    if not (0 < scale < math.inf and 0.0 <= avg <= scale and n_rev >= 0):
                        raise ValueError("out of range")
                    sd = float(row["rating_sd"]) if has_sd and row["rating_sd"] else math.nan
                    if not math.isnan(sd) and not 0 <= sd < math.inf:
                        raise ValueError("negative or infinite sd")
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    bad_lines.append(f"line {lineno}: {exc}")
                    continue
                ids.append(row["hotel_id"])
                avgs.append(avg)
                scales.append(scale)
                counts.append(n_rev)
                sds.append(sd)
    except OSError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    if bad_lines:
        raise DatasetError(f"{path}: unparseable rows: " + "; ".join(bad_lines[:10]))
    if not ids:
        raise DatasetError(f"{path}: no data rows")
    sd_arr = np.array(sds)
    return RatingsTable(
        hotel_ids=tuple(ids),
        avg_ratings=np.array(avgs),
        scale_max=np.array(scales),
        n_reviews=np.array(counts, dtype=int),
        rating_sd=sd_arr if has_sd and not np.all(np.isnan(sd_arr)) else None,
    )


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb ``0.9 min(sd, IQR/1.34) n^(-1/5)``; refuses zero spread."""
    values = np.asarray(values, dtype=float)
    n = values.size
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * scale * n ** (-0.2)
    if not h > 1e-12:  # zero up to float summation noise
        raise DatasetError("degenerate ratings (zero spread); pass an explicit bandwidth > 0")
    return h


def fit_reward_cdf(table: RatingsTable, bandwidth: float | None = None) -> RewardDistribution:
    """Gaussian-KDE fit of the normalized average ratings, as an empirical CDF.

    The kernel mass is reflected at 0 and 1, the CDF is evaluated on a
    512-point grid and normalized to end exactly at 1, and the result is the
    piecewise-linear empirical prior used everywhere else.  Fitting is fully
    deterministic, and its working memory is the O(rows) ratings vectors plus
    two KDE blocks of ``_KDE_BLOCK_BYTES`` (1 MiB) each, or of one grid row of
    all hotels when that is larger.
    """
    if len(table) < 2:
        raise DatasetError("need at least 2 hotels to fit")
    x = table.normalized
    h = silverman_bandwidth(x) if bandwidth is None else bandwidth
    if not 0 < h < math.inf:  # NaN fails too
        raise DatasetError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    # reflected-kernel CDF: direct mass plus mirror images at 0 and at 1.
    # Each block row is one grid point over all hotels, so its mean sums in
    # the same order as one (grid, hotels) array would.
    origin = special.ndtr((0.0 - x) / h)
    low_edge = special.ndtr(x / h)
    high_edge = special.ndtr((x - 2.0) / h)
    rows = max(1, _KDE_BLOCK_BYTES // (8 * x.size))
    block = np.empty((min(rows, grid.size), x.size))
    mirror = np.empty_like(block)
    cdf = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        g = grid[start:start + rows, None]
        n = g.shape[0]
        acc = _kernel_mass(np.subtract, g, x, h, origin, block[:n])
        acc += _kernel_mass(np.add, g, x, h, low_edge, mirror[:n])
        acc += _kernel_mass(np.add, g - 2.0, x, h, high_edge, mirror[:n])
        cdf[start:start + n] = acc.mean(axis=1)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    cdf /= cdf[-1]
    return RewardDistribution.empirical(grid, cdf)


def _kernel_mass(op, g, x, h, edge, out):
    """``ndtr(op(g, x) / h) - edge`` computed in place in ``out``."""
    op(g, x, out=out)
    out /= h
    special.ndtr(out, out=out)
    out -= edge
    return out


def estimate_pref_sd(table: RatingsTable) -> float:
    """Pooled within-hotel rating standard deviation on the normalized scale.

    Hotels are weighted by ``n_reviews - 1``; if no hotel has more than one
    review the plain mean of the variances is used.  At least 10 hotels must
    carry a dispersion value.
    """
    sds = table.normalized_sd
    if sds is None:
        raise DatasetError(
            "rating_sd column absent: supply the preference noise scale manually"
        )
    have = ~np.isnan(sds)
    if have.sum() < 10:
        raise DatasetError(
            f"rating_sd present for only {int(have.sum())} hotels (< 10): "
            "supply the preference noise scale manually"
        )
    s2 = sds[have] ** 2
    w = np.maximum(table.n_reviews[have] - 1, 0).astype(float)
    if w.sum() > 0:
        return float(math.sqrt(np.sum(w * s2) / np.sum(w)))
    return float(math.sqrt(s2.mean()))
