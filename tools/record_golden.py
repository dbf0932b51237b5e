#!/usr/bin/env python3
"""Record the golden store ``tests/golden/``: every pinned output as a value.

The store has three parts, each written from this checkout's ``src/``:

- ``cli/``: every file that a fixed matrix of CLI commands leaves, byte for
  byte.  Three ``fit`` commands (one on zero-spread ratings, one on a
  generated 3,000-hotel table), ten ``optimize`` commands (all three modes),
  a three-mode ``sweep`` and 52 ``simulate`` configs run in-process, with
  relative paths so that no output names the directory.  Each command's
  stdout and exit code are kept as ``<name>.stdout``; a command that raises
  is kept as ``raised <ExceptionType>`` and the matrix goes on.
- ``analytic/``: every ``scan_comm_times`` row of six cases as its ``T1``, its
  welfare and the first 16 hex digits of the sha256 of its thresholds,
  residuals and diagnostics; on two priors the ``welfare_centralized``
  report and every ``scan_single_window`` row.  The CLI writes ``%.12g``;
  these see every bit.
- ``simulate/``: total welfare, mean exploration and every per-slot mean
  of 14 small ``run`` configs, one file per run.

Each number is written as ``repr(float)``, which reads back to the same
double, so comparing text is comparing bits, and a changed file's diff shows
each moved number's old and new value.  The tests in ``tests/`` import this
module and compare the same records with the store (``diff``); only an
announced change of an output may re-record it:

    python3 tools/record_golden.py tests/golden

To compare two checkouts, record each one's store and diff the two trees:

    python3 path/to/other/checkout/tools/record_golden.py old
    diff -r old tests/golden

Usage: python3 tools/record_golden.py [store]   (default: tests/golden)
"""

import contextlib
import difflib
import hashlib
import io
import json
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STORE = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from commgate import simulate as simulator  # noqa: E402
from commgate.cli import main as cli  # noqa: E402
from commgate.dataset import fit_reward_cdf, load_ratings  # noqa: E402
from commgate.distributions import RewardDistribution  # noqa: E402
from commgate.myopic import scan_single_window, welfare_centralized  # noqa: E402
from commgate.nonmyopic import ThresholdSequence, scan_comm_times  # noqa: E402
from commgate.schedules import CommSchedule  # noqa: E402
from commgate.simulate import SimConfig  # noqa: E402

DISTS = {"hotel": {"csv": "hotel.csv"}, "beta": "beta:0.7,0.9", "uniform": "uniform"}
SCHEDULES = {
    "open": ("myopic", "centralized"),
    "window": ("myopic", {"windows": [{"start": 0, "len": 8}]}),
    "reveal": ("nonmyopic", {"one_time": 12}),
}
MODES = {"det": ("deterministic", False), "noisy": ("stochastic", False),
         "per_option": ("stochastic", True), "het": ("heterogeneous", False)}


# -- CLI matrix ---------------------------------------------------------------

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
    # a prior with an atom at 0 and a flat stretch: the inverse CDF maps low
    # quantiles to 0 through its first segment and never lands on the flat one
    Path("atom_prior.csv").write_text("r,cdf\n0,0.2\n0.3,0.2\n0.6,0.7\n1,1\n")
    for mn in ("det", "noisy"):
        name = f"simulate_atom_reveal_{mn}"
        yield name, simulate(name, {"csv": "atom_prior.csv"}, 6, 3000, {"one_time": 5},
                             "nonmyopic", *MODES[mn], horizon=12)
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


def record_cli(out: Path) -> None:
    """Run the CLI matrix in the empty directory ``out`` and leave its files there."""
    with contextlib.chdir(out):
        shutil.copy(ROOT / "data" / "hotel_ratings.csv", "ratings.csv")
        for name, argv in commands():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                try:
                    status = f"exit {cli(argv)}"
                except Exception as exc:  # a crash is an outcome to record; the rest still runs
                    traceback.print_exc()
                    status = f"raised {type(exc).__name__}"
            Path(name + ".stdout").write_text(f"{status}\n{stdout.getvalue()}")


# -- analytic pins ------------------------------------------------------------

# (prior, N, T); beta(2,50) at T=20 takes the G-frozen sweep fallback
SCAN_CASES = {
    "hotel_50_50": ("hotel", 50, 50),
    "hotel_5_14": ("hotel", 5, 14),
    "beta2_5_20_40": ("beta:2,5", 20, 40),
    "uniform_5_12": ("uniform", 5, 12),
    "beta2_50_30_20": ("beta:2,50", 30, 20),
    "beta0.7_0.9_8_30": ("beta:0.7,0.9", 8, 30),
}
WINDOW_CASES = {
    "beta2_5_20_40": ("beta:2,5", 20, 40),
    "hotel_50_50": ("hotel", 50, 50),
}


def prior(name, hotel):
    if name == "hotel":
        return hotel
    if name == "uniform":
        return RewardDistribution.uniform()
    a, b = name.removeprefix("beta:").split(",")
    return RewardDistribution.beta(float(a), float(b))


def scan_pin(case, hotel):
    """Path and record of ``SCAN_CASES[case]``: one line per ``scan_comm_times`` row."""
    name, N, T = SCAN_CASES[case]
    lines = ["# T1 welfare sha256(T1, thresholds, residuals, diagnostics)[:16]"]
    for T1, welfare, seq in scan_comm_times(prior(name, hotel), N, T):
        h = hashlib.sha256(str(T1).encode())
        h.update(seq.values.astype("<f8").tobytes())
        h.update(seq.residuals.astype("<f8").tobytes())
        h.update(repr(sorted(seq.diagnostics.items())).encode())
        lines.append(f"{T1} {welfare!r} {h.hexdigest()[:16]}")
    return f"analytic/scan_{case}.txt", "\n".join(lines) + "\n"


def window_pin(case, hotel):
    """Path and record of ``WINDOW_CASES[case]``: the ``welfare_centralized``
    report and one line per ``scan_single_window`` row."""
    name, N, T = WINDOW_CASES[case]
    d = prior(name, hotel)
    report = welfare_centralized(d, N, T)
    lines = [f"total_welfare {report.total_welfare!r}",
             f"expected_exploration_slots {report.expected_exploration_slots!r}",
             "# L welfare"]
    lines += [f"{L} {welfare!r}" for L, welfare in scan_single_window(d, N, T)]
    return f"analytic/window_{case}.txt", "\n".join(lines) + "\n"


# -- simulator pins -----------------------------------------------------------

# One small run per (agent kind, reward mode, noise per option)
PINNED_RUNS = [(kind, mode, per_option) for kind in ("myopic", "nonmyopic")
               for mode, per_option in (("deterministic", False), ("stochastic", False),
                                        ("stochastic", True), ("heterogeneous", False))]

# The slot paths in which run tests only the previous slot's explorers: a
# long idle tail ("idle"), a threshold that rises after the share slot
# ("rising"), and 75 chunks of 8 replications, each with its own scan.  Keyed
# (config, mode, per_option, _CHUNK), None for the default chunk.
SCAN_RUNS = [("idle", "deterministic", False, None), ("idle", "stochastic", False, None),
             ("idle", "heterogeneous", False, None), ("rising", "deterministic", False, None),
             ("rising", "stochastic", False, None), ("rising", "heterogeneous", False, 8)]

# solve_one_time(uniform, 5, 20, 4) to four digits: after the share slot the
# thresholds restart at their solo values, so the threshold rises from 0.5764
# at slot 4 to 0.8 at slot 5, where run must test every agent again
RISING = [0.706, 0.6793, 0.6409, 0.5764, 0.8, 0.7948, 0.7891, 0.7829, 0.776, 0.7683,
          0.7597, 0.75, 0.7388, 0.7257, 0.7101, 0.691, 0.6667, 0.634, 0.5858, 0.5]


def pinned_config(kind, mode, per_option):
    """The config of ``PINNED_RUNS`` key ``(kind, mode, per_option)``."""
    # an empirical prior with a flat stretch and literal thresholds, so the
    # pins depend on neither special functions of the prior nor the solver
    T = 12
    d = RewardDistribution.empirical([0, 0.2, 0.35, 0.5, 0.7, 1], [0, 0.1, 0.4, 0.4, 0.8, 1])
    if kind == "myopic":
        schedule, thresholds = CommSchedule(T, ((1, 3), (6, 2))), None
    else:
        schedule = CommSchedule.one_time(T, 6)
        thresholds = ThresholdSequence(T, 6, np.linspace(0.85, 0.45, T), np.zeros(T))
    return SimConfig(dist=d, n_agents=4, horizon=T, schedule=schedule, agent_kind=kind,
                     thresholds=thresholds, reward_mode=mode, noise_sd=0.1, pref_sd=0.2,
                     noise_per_option=per_option, replications=600, master_seed=19)


def scan_config(name, mode, per_option):
    """The "idle" or "rising" config of ``SCAN_RUNS``."""
    if name == "idle":
        # myopic and open at every slot to T = 60: after the first few slots
        # no agent explores
        return replace(pinned_config("myopic", mode, per_option), horizon=60,
                       schedule=CommSchedule.centralized(60))
    T, T1 = 20, 4
    return SimConfig(dist=RewardDistribution.uniform(), n_agents=5, horizon=T,
                     schedule=CommSchedule.one_time(T, T1), agent_kind="nonmyopic",
                     thresholds=ThresholdSequence(T, T1, np.array(RISING), np.zeros(T)),
                     reward_mode=mode, noise_sd=0.1, pref_sd=0.2, noise_per_option=per_option,
                     replications=600, master_seed=23)


def sim_run(key):
    """``run`` of a ``PINNED_RUNS`` or ``SCAN_RUNS`` key."""
    if len(key) == 3:
        return simulator.run(pinned_config(*key))
    *config, chunk = key
    default = simulator._CHUNK
    simulator._CHUNK = default if chunk is None else chunk
    try:
        return simulator.run(scan_config(*config))
    finally:
        simulator._CHUNK = default


def sim_path(key):
    """The store's file of a ``PINNED_RUNS`` or ``SCAN_RUNS`` key, named as
    pytest names the key."""
    return f"simulate/{'-'.join(map(str, key))}.txt"


def run_record(result):
    """A ``SimResult``'s welfare, mean exploration and per-slot means."""
    lines = [f"total_welfare_mean {result.total_welfare_mean!r}",
             f"exploration_slots_mean {result.exploration_slots_mean!r}",
             "# t per_slot_mean_reward"]
    lines += [f"{t} {x!r}" for t, x in enumerate(result.per_slot_mean_reward.tolist())]
    return "\n".join(lines) + "\n"


# -- the store ----------------------------------------------------------------

def diff(path, got):
    """A unified diff from the store's file ``path`` to ``got`` (text or bytes),
    empty when they are byte-identical."""
    want = (STORE / path).read_bytes() if (STORE / path).exists() else b""
    got = got.encode() if isinstance(got, str) else got
    if got == want:
        return ""
    lines = [b.decode(errors="replace").splitlines(keepends=True) for b in (want, got)]
    return "".join(difflib.unified_diff(*lines, f"golden/{path}", "now")) or f"{path}: bytes differ"


def records():
    """Path and record of every analytic and simulator pin."""
    hotel = fit_reward_cdf(load_ratings(ROOT / "data" / "hotel_ratings.csv"))
    for case in SCAN_CASES:
        yield scan_pin(case, hotel)
    for case in WINDOW_CASES:
        yield window_pin(case, hotel)
    for key in PINNED_RUNS + SCAN_RUNS:
        yield sim_path(key), run_record(sim_run(key))


def main():
    store = Path(sys.argv[1]) if len(sys.argv) > 1 else STORE
    for part in ("cli", "analytic", "simulate"):
        shutil.rmtree(store / part, ignore_errors=True)
        (store / part).mkdir(parents=True)
    record_cli(store / "cli")
    for path, text in records():
        (store / path).write_text(text)


if __name__ == "__main__":
    main()
