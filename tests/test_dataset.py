import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from commgate import dataset
from commgate.dataset import (
    RatingsTable,
    estimate_pref_sd,
    fit_reward_cdf,
    load_ratings,
    silverman_bandwidth,
)
from commgate.distributions import integrate
from commgate.errors import DatasetError
from commgate.myopic import welfare_centralized


def write_csv(path, rows, header="hotel_id,avg_rating,rating_scale_max,n_reviews,rating_sd"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def make_table(values, sds=None, n_reviews=50):
    n = len(values)
    return RatingsTable(
        hotel_ids=tuple(f"H{i}" for i in range(n)),
        avg_ratings=np.asarray(values, dtype=float),
        scale_max=np.ones(n),
        n_reviews=np.full(n, n_reviews, dtype=int),
        rating_sd=None if sds is None else np.asarray(sds, dtype=float),
    )


class TestLoadRatings:
    def test_normalization_top_of_scale(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", ["a,10,10,5,0.5", "b,5,10,5,0.5"])
        table = load_ratings(p)
        assert table.normalized[0] == pytest.approx(1.0)
        assert table.normalized[1] == pytest.approx(0.5)

    def test_hotel_file_has_825_rows(self, hotel_table):
        assert len(hotel_table) == 825

    def test_empty_file_is_structured_error(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetError):
            load_ratings(p)
        p2 = write_csv(tmp_path / "onlyheader.csv", [])
        with pytest.raises(DatasetError, match="no data rows"):
            load_ratings(p2)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("hotel_id,avg_rating\n" "a,5\n")
        with pytest.raises(DatasetError, match="missing columns"):
            load_ratings(p)

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        p = write_csv(tmp_path / "bad.csv", ["a,5,10,5,0.5", "b,notanumber,10,5,0.5"])
        with pytest.raises(DatasetError, match="line 3"):
            load_ratings(p)

    def test_out_of_range_rating_rejected(self, tmp_path):
        for row in ("a,11,10,5,0.5", "a,4,10,inf,0.5", "a,inf,inf,5,0.5", "a,4,inf,5,0.5",
                    "a,4,10,5,inf"):
            p = write_csv(tmp_path / "oor.csv", ["b,4,10,5,0.5", row])
            with pytest.raises(DatasetError, match="line 3"):
                load_ratings(p)

    def test_review_count_must_be_whole(self, tmp_path):
        # 76.0 is a count; 3.7 is refused rather than truncated to 3
        p = write_csv(tmp_path / "n.csv", ["a,4,10,76.0,0.5", "b,5,10,3,0.5"])
        assert load_ratings(p).n_reviews.tolist() == [76, 3]
        p = write_csv(tmp_path / "n.csv", ["a,4,10,76.0,0.5", "b,5,10,3.7,0.5"])
        with pytest.raises(DatasetError, match="line 3: n_reviews must be a whole number"):
            load_ratings(p)

    def test_column_mapping(self, tmp_path):
        # columns are read by name in any order, and rating_sd is optional
        p = tmp_path / "map.csv"
        p.write_text("n_reviews,rating_scale_max,avg_rating,hotel_id\n" "9,5,4,a\n" "9,5,2,b\n")
        table = load_ratings(p)
        assert table.hotel_ids == ("a", "b")
        assert table.normalized[0] == pytest.approx(0.8)
        assert table.rating_sd is None


def one_shot_cdf(table, h):
    """The reflected-KDE CDF as one (grid, hotels) array: the blocked fit's reference."""
    x = table.normalized
    grid = np.linspace(0.0, 1.0, 512)
    g = grid[:, None]
    direct = special.ndtr((g - x) / h) - special.ndtr((0.0 - x) / h)
    low_mirror = special.ndtr((g + x) / h) - special.ndtr(x / h)
    high_mirror = special.ndtr((g - 2.0 + x) / h) - special.ndtr((x - 2.0) / h)
    cdf = (direct + low_mirror + high_mirror).mean(axis=1)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    return cdf / cdf[-1]


class TestFit:
    @pytest.mark.parametrize("case", ["hotel", "two_rows", "one_grid_row_per_block"])
    def test_blocked_fit_is_one_shot_formula(self, case, hotel_table, monkeypatch):
        table = make_table([0.3, 0.7]) if case == "two_rows" else hotel_table
        if case == "hotel":  # 158 grid rows per block and a partial last block
            assert dataset._KDE_BLOCK_BYTES // (8 * len(table)) == 158
        if case == "one_grid_row_per_block":
            monkeypatch.setattr(dataset, "_KDE_BLOCK_BYTES", 8 * len(table))
        h = silverman_bandwidth(table.normalized)
        assert np.array_equal(fit_reward_cdf(table).cdf_values, one_shot_cdf(table, h))

    def test_fit_memory_is_two_blocks(self):
        # a 20,000-row table needs hundreds of MB as (grid, hotels) arrays;
        # blocked, the fit holds two blocks plus a few O(rows) vectors
        rng = np.random.Generator(np.random.Philox(7))
        table = make_table(rng.beta(2.0, 3.0, 20_000))
        tracemalloc.start()
        try:
            fit_reward_cdf(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dataset._KDE_BLOCK_BYTES + 8 * table.avg_ratings.nbytes

    def test_two_symmetric_points(self):
        d = fit_reward_cdf(make_table([0.3, 0.7]))
        assert d.mean() == pytest.approx(0.5, abs=1e-3)

    def test_hotel_fit_mean(self, hotel_dist):
        assert abs(hotel_dist.mean() - 0.49) <= 0.02

    def test_fit_monotone_and_normalized(self, hotel_dist):
        assert np.all(np.diff(hotel_dist.cdf_values) >= 0)
        assert hotel_dist.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        quad = integrate(hotel_dist, lambda r: 1 - hotel_dist.cdf(r), 0.0, 1.0)
        assert quad == pytest.approx(hotel_dist.mean(), abs=1e-7)

    def test_ks_distance_to_raw_empirical(self, hotel_table, hotel_dist):
        x = np.sort(hotel_table.normalized)
        n = x.size
        fitted = hotel_dist.cdf(x)
        i = np.arange(1, n + 1)
        ks = max(np.max(np.abs(fitted - i / n)), np.max(np.abs(fitted - (i - 1) / n)))
        assert ks <= 0.05

    def test_degenerate_data_needs_bandwidth(self):
        with pytest.raises(DatasetError, match="bandwidth"):
            fit_reward_cdf(make_table([0.4] * 20))
        for bandwidth in (0.05, 1e-13):  # the zero-spread floor is Silverman's, not the user's
            d = fit_reward_cdf(make_table([0.4] * 20), bandwidth=bandwidth)
            assert 0.35 < d.mean() < 0.45

    @pytest.mark.parametrize("bandwidth", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_bandwidth_named(self, hotel_table, bandwidth):
        # an explicit bandwidth must be finite and positive; the error names it
        # rather than the spread of the ratings or the fitted CDF
        with pytest.raises(DatasetError, match=f"bandwidth must be finite and > 0, got {bandwidth}"):
            fit_reward_cdf(hotel_table, bandwidth=bandwidth)

    def test_fit_deterministic(self, hotel_table):
        a = fit_reward_cdf(hotel_table)
        b = fit_reward_cdf(hotel_table)
        assert np.array_equal(a.cdf_values, b.cdf_values)

    def test_grid_refinement_stability(self, hotel_table, monkeypatch):
        # doubling the CDF grid moves downstream welfare by < 1e-4 relative
        from commgate import dataset

        a = fit_reward_cdf(hotel_table)
        monkeypatch.setattr(dataset, "_GRID_POINTS", 1024)
        b = fit_reward_cdf(hotel_table)
        assert (a.grid.size, b.grid.size) == (512, 1024)
        wa = welfare_centralized(a, 10, 20).total_welfare
        wb = welfare_centralized(b, 10, 20).total_welfare
        assert abs(wb - wa) / wa < 1e-4

    def test_silverman_positive(self, hotel_table):
        assert silverman_bandwidth(hotel_table.normalized) > 0

    @pytest.mark.parametrize("value", [3.7 / 5, 3.3 / 5])
    def test_silverman_refuses_zero_spread(self, value):
        # 3.7/5 repeated has a float-noise sd of ~1e-16, 3.3/5 an exact 0
        with pytest.raises(DatasetError, match="zero spread"):
            silverman_bandwidth(np.full(30, value))


class TestPrefSd:
    def test_all_zero(self):
        t = make_table(np.linspace(0.1, 0.9, 12), sds=[0.0] * 12)
        assert estimate_pref_sd(t) == 0.0

    def test_identical_values_pool_to_themselves(self):
        t = make_table(np.linspace(0.1, 0.9, 12), sds=[0.1] * 12)
        assert estimate_pref_sd(t) == pytest.approx(0.1, abs=1e-12)

    def test_known_mixture_matches_hand_computation(self):
        sds = [0.1] * 6 + [0.3] * 6
        reviews = [11] * 6 + [21] * 6
        t = RatingsTable(
            hotel_ids=tuple(f"H{i}" for i in range(12)),
            avg_ratings=np.full(12, 0.5),
            scale_max=np.ones(12),
            n_reviews=np.array(reviews),
            rating_sd=np.array(sds),
        )
        hand = math.sqrt((6 * 10 * 0.1**2 + 6 * 20 * 0.3**2) / (6 * 10 + 6 * 20))
        assert estimate_pref_sd(t) == pytest.approx(hand, abs=1e-9)

    def test_absent_column_error(self):
        t = make_table(np.linspace(0.1, 0.9, 12))
        with pytest.raises(DatasetError, match="manually"):
            estimate_pref_sd(t)

    def test_too_few_hotels_error(self):
        t = make_table(np.linspace(0.1, 0.9, 5), sds=[0.1] * 5)
        with pytest.raises(DatasetError, match="< 10"):
            estimate_pref_sd(t)
