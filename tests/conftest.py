from pathlib import Path

import numpy as np
import pytest

from commgate.dataset import fit_reward_cdf, load_ratings
from commgate.distributions import RewardDistribution

HOTEL_CSV = Path(__file__).parent.parent / "data" / "hotel_ratings.csv"


@pytest.fixture(scope="session")
def uniform():
    return RewardDistribution.uniform()


@pytest.fixture(scope="session")
def hotel_table():
    return load_ratings(HOTEL_CSV)


@pytest.fixture(scope="session")
def hotel_dist(hotel_table):
    return fit_reward_cdf(hotel_table)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(12345))


@pytest.fixture
def failing_slots(monkeypatch):
    """A set of sharing slots ``T1`` at which ``nonmyopic.solve_one_time`` fails."""
    from commgate import nonmyopic
    from commgate.errors import SolverError

    failing = set()
    solve = nonmyopic.solve_one_time

    def flaky(d, N, T, T1, *args, **kwargs):
        if T1 in failing:
            raise SolverError(f"injected failure at T1={T1}")
        return solve(d, N, T, T1, *args, **kwargs)

    monkeypatch.setattr(nonmyopic, "solve_one_time", flaky)
    return failing
