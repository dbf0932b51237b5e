"""Turn a hotel-ratings table into an empirical reward prior.

Per-hotel average ratings, normalized by their rating scale, are smoothed
with a Gaussian kernel density (reflected at both support edges so no mass
leaks outside [0, 1]) and integrated into a piecewise-linear CDF.  The
per-hotel rating dispersion doubles as the heterogeneous-preference noise
scale for the simulator.
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
    or hold a non-finite or out-of-range value are reported with their line
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
                    n_rev = int(float(row["n_reviews"]))
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
    deterministic.
    """
    if len(table) < 2:
        raise DatasetError("need at least 2 hotels to fit")
    x = table.normalized
    h = silverman_bandwidth(x) if bandwidth is None else bandwidth
    if not 0 < h < math.inf:  # NaN fails too
        raise DatasetError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    g = grid[:, None]
    # reflected-kernel CDF: direct mass plus mirror images at 0 and at 1
    direct = special.ndtr((g - x) / h) - special.ndtr((0.0 - x) / h)
    low_mirror = special.ndtr((g + x) / h) - special.ndtr(x / h)
    high_mirror = special.ndtr((g - 2.0 + x) / h) - special.ndtr((x - 2.0) / h)
    cdf = (direct + low_mirror + high_mirror).mean(axis=1)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    cdf /= cdf[-1]
    return RewardDistribution.empirical(grid, cdf)


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
