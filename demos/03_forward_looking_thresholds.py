#!/usr/bin/env python3
"""Forward-looking agents: threshold sequences around a one-time reveal.

Strategic agents withhold what they know until the last permitted slot, so
the design question collapses to *when* that one reveal should happen.
This demo solves the solo benchmark, the always-open equilibrium sequence,
and a mid-horizon one-time sequence, then charts the characteristic shape:
thresholds dip below the benchmark approaching the reveal (free-riding on
the upcoming pool) and jump back up right after it.
"""

from pathlib import Path

import numpy as np

from commgate import (
    RewardDistribution,
    optimize_comm_time,
    solve_centralized_nonmyopic,
    solve_one_time,
    solve_single_agent,
    welfare_one_time,
)
from commgate.nonmyopic import scan_comm_times
from commgate.svg import polyline_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

d = RewardDistribution.uniform()
N, T, T1 = 100, 50, 20

solo = solve_single_agent(d, T)
cent = solve_centralized_nonmyopic(d, N, T)
one = solve_one_time(d, N, T, T1)
print(f"solo u_1 = {solo.values[0]:.4f} ... u_T = {solo.values[-1]:.4f} (the prior mean)")
print(f"one-time reveal at slot {T1}: threshold just before {one.values[T1-1]:.4f} "
      f"(always-open counterpart {cent.values[T1-1]:.4f}), just after {one.values[T1]:.4f}")

slots = [float(t) for t in range(1, T + 1)]
chart = OUT / "threshold_sequences.svg"
chart.write_text(polyline_chart(
    [
        ("solo benchmark", slots, list(solo.values)),
        ("always-open equilibrium", slots, list(cent.values)),
        (f"one-time reveal at {T1}", slots, list(one.values)),
    ],
    title=f"exploration thresholds (N={N}, T={T})",
))
print(f"chart written to {chart}")

print("\n== picking the reveal slot ==")
N, T = 5, 20
t1_star, seq, best_w = optimize_comm_time(d, N, T)
w_cent, count_cent = welfare_one_time(d, N, T, solve_centralized_nonmyopic(d, N, T))
_, count_best = welfare_one_time(d, N, T, seq)
print(f"best reveal slot {t1_star}: welfare {best_w:.3f} vs always-open {w_cent:.3f} "
      f"({(best_w / w_cent - 1) * 100:+.1f}%)")
print(f"expected exploration slots per agent: {count_best:.2f} vs {count_cent:.2f} "
      "(over-exploration mitigated)")

scan = scan_comm_times(d, N, T)
rows = ["T1,welfare_per_agent"] + [f"{t1},{w / N:.6f}" for t1, w, _ in scan]
(OUT / "welfare_vs_reveal_slot.csv").write_text("\n".join(rows) + "\n")
print(f"full scan written to {OUT / 'welfare_vs_reveal_slot.csv'}")
