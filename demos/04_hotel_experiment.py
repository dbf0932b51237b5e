#!/usr/bin/env python3
"""The full dataset experiment: fit, optimize, cross-validate, stress-test.

Pipeline: hotel ratings -> empirical prior -> optimal one-time reveal ->
Monte-Carlo trajectories on common random numbers, under exact rewards,
observation noise, and heterogeneous per-agent preferences.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from commgate import (
    CommSchedule,
    SimConfig,
    estimate_pref_sd,
    fit_reward_cdf,
    load_ratings,
    optimize_comm_time,
    run,
    solve_centralized_nonmyopic,
    welfare_one_time,
)
from commgate.cli import main
from commgate.svg import polyline_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

table = load_ratings(Path(__file__).parent.parent / "data" / "hotel_ratings.csv")
d = fit_reward_cdf(table)
pref_sd = estimate_pref_sd(table)
print(f"{len(table)} hotels, fitted mean {d.mean():.4f}, preference sd {pref_sd:.4f}")

print("\n== reveal timing across crowd sizes (T = 50) ==")
for N in (20, 30, 50):
    cent = solve_centralized_nonmyopic(d, N, 50)
    w_cent, _ = welfare_one_time(d, N, 50, cent)
    t1, seq, w = optimize_comm_time(d, N, 50)
    print(f"N={N}: always-open {w_cent / N:.2f} per agent; reveal at slot {t1} "
          f"gives {w / N:.2f} ({(w / w_cent - 1) * 100:+.1f}%)")

print("\n== trajectory comparison (T = 80, N = 30, 500 runs) ==")
N, T = 30, 80
t1, seq, _ = optimize_comm_time(d, N, T)
cent_seq = solve_centralized_nonmyopic(d, N, T)
mech = SimConfig(
    dist=d, n_agents=N, horizon=T, schedule=CommSchedule.one_time(T, t1),
    agent_kind="nonmyopic", thresholds=seq, reward_mode="heterogeneous",
    pref_sd=pref_sd, replications=500, master_seed=2024,
)
cent = replace(mech, schedule=CommSchedule.centralized(T), thresholds=cent_seq)
r_mech, r_cent = run(mech), run(cent)
print(f"reveal at slot {t1}: welfare {r_mech.total_welfare_mean / N:.2f} per agent "
      f"vs always-open {r_cent.total_welfare_mean / N:.2f}")

slots = [float(t) for t in range(T + 1)]
chart = OUT / "hotel_trajectories.svg"
chart.write_text(polyline_chart(
    [
        (f"one-time reveal at {t1}", slots, list(r_mech.per_slot_mean_reward)),
        ("always-open", slots, list(r_cent.per_slot_mean_reward)),
    ],
    title=f"per-slot mean reward (heterogeneous preferences, N={N}, T={T})",
))
print(f"chart written to {chart}")

print("\n== robustness: gain per agent and its standard error across horizons and reward "
      "models (N = 50, 500 runs) ==")
sweep_csv = OUT / "hotel_gain_sweep.csv"
with tempfile.TemporaryDirectory() as tmp:
    prior_csv = Path(tmp) / "hotel_prior.csv"
    d.to_csv(prior_csv)  # 17 significant digits: the prior reads back bit for bit
    code = main(["sweep", "--dist", str(prior_csv), "--n-agents", "50",
                 "--modes", "deterministic,stochastic,heterogeneous", "--replications", "500",
                 "--seed", "77", "--pref-sd", repr(pref_sd), "--out", str(sweep_csv)])
if code:
    raise SystemExit(code)
print(f"sweep written to {sweep_csv}")
