#!/usr/bin/env python3
"""Print one sha256 per output file of a fixed matrix of CLI commands.

Runs three ``fit`` commands (one on zero-spread ratings, one on a generated
3,000-hotel table), ten ``optimize`` commands (all three modes), a
three-mode ``sweep`` and 50 ``simulate`` configs in-process from the
checkout's ``src/`` into a temporary directory, with relative paths so that
no output names the directory.  Each command's stdout and exit code are kept
as a file too; a command that raises is kept as ``raised <ExceptionType>``
and the matrix goes on.  Two checkouts give byte-identical outputs when
their listings diff clean:

    python3 tools/output_digests.py > new.txt
    python3 tools/output_digests.py path/to/other/checkout > old.txt
    diff old.txt new.txt

Usage: python3 tools/output_digests.py [checkout_root]   (default: this one)
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent).resolve()
DISTS = {"hotel": {"csv": "hotel.csv"}, "beta": "beta:0.7,0.9", "uniform": "uniform"}
SCHEDULES = {
    "open": ("myopic", "centralized"),
    "window": ("myopic", {"windows": [{"start": 0, "len": 8}]}),
    "reveal": ("nonmyopic", {"one_time": 12}),
}
MODES = {"det": ("deterministic", False), "noisy": ("stochastic", False),
         "per_option": ("stochastic", True), "het": ("heterogeneous", False)}


def commands():
    yield "fit", ["fit", "ratings.csv", "hotel.csv"]
    # ratings without spread leave Silverman's rule no bandwidth: fit refuses them
    Path("flat_ratings.csv").write_text("hotel_id,avg_rating,rating_scale_max,n_reviews\n"
                                        + "".join(f"h{i},3.7,5,10\n" for i in range(30)))
    yield "fit_zero_spread", ["fit", "flat_ratings.csv", "flat_prior.csv"]
    # 3,000 hotels: the KDE runs in 12 blocks of grid rows (43 rows a block)
    Path("large_ratings.csv").write_text(
        "hotel_id,avg_rating,rating_scale_max,n_reviews\n"
        + "".join(f"h{i},{1 + 8 * ((i * 0.6180339887) % 1) ** 1.5:.2f},10,{5 + i % 97}\n"
                  for i in range(3000)))
    yield "fit_large", ["fit", "large_ratings.csv", "large_prior.csv"]
    for name, dist, n, t in (("hotel", "hotel.csv", 30, 60), ("beta", "beta:0.7,0.9", 8, 30)):
        for mode in ("nonmyopic", "myopic-approx"):
            yield f"optimize_{mode}_{name}", ["optimize", "--dist", dist, "--n-agents", str(n),
                                              "--horizon", str(t), "--mode", mode,
                                              "--out", f"optimize_{mode}_{name}.csv"]
    # the full Newton step is rejected at T1 = 5, so this scan takes the sweep fallback
    yield "optimize_nonmyopic_beta_2_50", ["optimize", "--dist", "beta:2,50", "--n-agents", "30",
                                           "--horizon", "20", "--mode", "nonmyopic",
                                           "--out", "optimize_nonmyopic_beta_2_50.csv"]
    yield "optimize_exact", ["optimize", "--dist", "beta:2,5", "--n-agents", "5", "--horizon",
                             "10", "--mode", "myopic-exact", "--out", "optimize_exact.csv"]
    # multi-window exact layouts at T = 14, and one at T = 60
    for name, dist, n in (("hotel", "hotel.csv", 5), ("uniform", "uniform", 2),
                          ("beta", "beta:0.7,0.9", 3)):
        yield f"optimize_exact_{name}", ["optimize", "--dist", dist, "--n-agents", str(n),
                                         "--horizon", "14", "--mode", "myopic-exact",
                                         "--out", f"optimize_exact_{name}.csv"]
    yield "optimize_exact_hotel_60", ["optimize", "--dist", "hotel.csv", "--n-agents", "5",
                                      "--horizon", "60", "--mode", "myopic-exact",
                                      "--out", "optimize_exact_hotel_60.csv"]
    yield "sweep", ["sweep", "--dist", "hotel.csv", "--n-agents", "5", "--t-start", "10",
                    "--t-stop", "20", "--modes", "deterministic,stochastic,heterogeneous",
                    "--replications", "200", "--seed", "3", "--out", "sweep.csv"]
    for (dn, dist), (sn, (kind, schedule)), (mn, (mode, per_option)) in (
        (d, s, m) for d in DISTS.items() for s in SCHEDULES.items() for m in MODES.items()
    ):
        name = f"simulate_{dn}_{sn}_{mn}"
        yield name, simulate(name, dist, 6, 300, schedule, kind, mode, per_option)
    # multi-chunk runs: N = 2000 gives 160 replications per chunk, and with
    # sharing blocked until the horizon each chunk stops exploring at its own
    # slot (14, 14 and 15 at seed 11 on beta(5, 1))
    for mn in ("det", "noisy", "per_option"):
        name = f"simulate_chunks_{mn}"
        yield name, simulate(name, "beta:5,1", 2000, 400, {"windows": [{"start": 0, "len": 20}]},
                             "myopic", *MODES[mn])
    # idle-heavy runs at T = 300: past the first slots almost no (chunk, slot)
    # has an explorer; forward-looking agents reveal at 100, after which their
    # threshold rises
    long_runs = {"open": SCHEDULES["open"], "reveal": ("nonmyopic", {"one_time": 100})}
    for sn, (kind, schedule) in long_runs.items():
        for mn in ("det", "noisy", "het"):
            name = f"simulate_long_{sn}_{mn}"
            yield name, simulate(name, DISTS["hotel"], 6, 300, schedule, kind, *MODES[mn],
                                 horizon=300)
    # a malformed config: the csv path of a dist object must be a string
    yield "simulate_dist_csv_number", simulate("simulate_dist_csv_number", {"csv": 5}, 6, 300,
                                               "centralized", "myopic", "deterministic", False)
    # misspelt keys and a reward mode of the wrong JSON type are refused
    yield "simulate_typo_keys", simulate("simulate_typo_keys", "uniform", 5, 300, "centralized",
                                         "myopic", "deterministic", False,
                                         replicatoins=1000, **{"noise-sd": 0.5})
    # a schedule object's keys are checked too: a misspelt window key is refused
    yield "simulate_schedule_window_typo", simulate(
        "simulate_schedule_window_typo", "uniform", 5, 300,
        {"one_time": 4, "windows": [{"start": 0, "len": 8, "lenght": 3}]}, "myopic",
        "deterministic", False)
    yield "simulate_reward_mode_number", simulate("simulate_reward_mode_number", "uniform", 5,
                                                  300, "centralized", "myopic", 5, False)
    # one replication: every standard error is undefined
    yield "simulate_single_replication", simulate("simulate_single_replication",
                                                  DISTS["hotel"], 6, 1, "centralized", "myopic",
                                                  "stochastic", False)


def simulate(name, dist, n_agents, replications, schedule, kind, mode, per_option, horizon=20,
             **extra):
    """Write a simulate config ``name.json`` (plus the ``extra`` keys); returns the argv."""
    Path(name + ".json").write_text(json.dumps({
        "schema_version": 1, "dist": dist, "n_agents": n_agents, "horizon": horizon,
        "schedule": schedule, "agent_kind": kind, "reward_mode": mode,
        "noise_per_option": per_option, "pref_sd": 0.15, "replications": replications,
        "master_seed": 11, "out": name + ".csv", **extra}))
    return ["simulate", name + ".json"]


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from commgate.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        shutil.copy(ROOT / "data" / "hotel_ratings.csv", "ratings.csv")
        for name, argv in commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    status = f"exit {cli(argv)}"
                except Exception as exc:  # a crash is an outcome to record; the rest still runs
                    traceback.print_exc()
                    status = f"raised {type(exc).__name__}"
            Path(name + ".stdout").write_text(f"{status}\n{out.getvalue()}")
        for path in sorted(Path(tmp).iterdir()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)


if __name__ == "__main__":
    main()
