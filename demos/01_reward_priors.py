#!/usr/bin/env python3
"""Reward priors: the two kinds (Beta and empirical) and what they share.

Every quantity in this library is a functional of one CDF on [0, 1].  This
demo builds uniform (an empirical CDF through (0, 0) and (1, 1)) and Beta
priors, checks the identities the rest of the code leans on (mean = tail
integral, exact inverse sampling), and fits the shipped hotel table into an
empirical prior.
"""

from pathlib import Path

import numpy as np

from commgate import RewardDistribution, integrate, load_ratings, fit_reward_cdf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("== uniform and Beta ==")
for d in (RewardDistribution.uniform(), RewardDistribution.beta(2, 5)):
    tail = integrate(d, lambda r: 1 - d.cdf(r), 0.0, 1.0)
    print(f"{d!r}: mean {d.mean():.6f}, tail integral of 1-F {tail:.6f}")

print("\n== sampling is inverse-CDF and caller-seeded ==")
d = RewardDistribution.beta(2, 5)
rng = np.random.Generator(np.random.Philox(7))
draws = d.sample(rng, 200_000)
print(f"sample mean {draws.mean():.4f} vs analytic {d.mean():.4f}")

print("\n== empirical prior from the hotel table ==")
table = load_ratings(Path(__file__).parent.parent / "data" / "hotel_ratings.csv")
hotel = fit_reward_cdf(table)
print(f"{len(table)} hotels, fitted mean {hotel.mean():.4f}")
out_csv = OUT / "hotel_prior.csv"
hotel.to_csv(out_csv)
roundtrip = RewardDistribution.from_csv(out_csv)
print(f"CSV round-trip exact: {np.array_equal(roundtrip.cdf_values, hotel.cdf_values)}")
print(f"prior written to {out_csv}")
