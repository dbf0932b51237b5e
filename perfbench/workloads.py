"""The benchmark's workloads: CLI command lists, their inputs and output checks.

A workload is a list of ``Op``s, each one ``commgate`` CLI command.  Input
sizes are fixed here; only the ``oracle`` configs depend on the benchmark
seed (their ``master_seed``).  ``check_*`` functions turn one op's outputs
into a list of failure messages (empty when the outputs are correct).
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-9  # scan-row welfare tolerance, relative
Z_MAX = 4.0  # oracle agreement with the closed form, in standard errors

N_ORACLE, T_ORACLE, T1_ORACLE = 50, 50, 25


@dataclass(frozen=True)
class Op:
    """One CLI command: its label, argv, and the file it writes."""

    label: str
    argv: tuple[str, ...]
    out: Path


def _optimize(label, work, dist, n, horizon, mode):
    out = work / f"{label}.csv"
    argv = ("optimize", "--dist", dist, "--n-agents", str(n), "--horizon", str(horizon),
            "--mode", mode, "--out", str(out))
    return Op(label, argv, out)


# oracle runs: label -> (agent_kind, schedule, reward_mode, replications)
ORACLE_RUNS = {
    "oracle_myopic_open": ("myopic", "centralized", "deterministic", 4096),
    "oracle_myopic_window": ("myopic", {"windows": [{"start": 0, "len": 5}]}, "deterministic", 4096),
    "oracle_reveal_exact": ("nonmyopic", {"one_time": T1_ORACLE}, "deterministic", 4096),
    "oracle_reveal_noisy": ("nonmyopic", {"one_time": T1_ORACLE}, "stochastic", 4096),
    "oracle_myopic_het": ("myopic", "centralized", "heterogeneous", 2048),
}


def write_oracle_configs(work: Path, prior_csv: Path, seed: int) -> None:
    for label, (kind, schedule, mode, reps) in ORACLE_RUNS.items():
        cfg = {
            "schema_version": 1,
            "dist": {"csv": str(prior_csv)},
            "n_agents": N_ORACLE,
            "horizon": T_ORACLE,
            "schedule": schedule,
            "agent_kind": kind,
            "reward_mode": mode,
            "replications": reps,
            "master_seed": seed,
            "out": str(work / f"{label}.csv"),
        }
        (work / f"{label}.json").write_text(json.dumps(cfg, sort_keys=True, indent=1))


def ops(workload: str, work: Path, prior_csv: Path) -> list[Op]:
    hotel = str(prior_csv)
    if workload == "reveal":
        return [
            _optimize("reveal_hotel", work, hotel, 50, 50, "nonmyopic"),
            _optimize("reveal_beta", work, "beta:2,5", 20, 40, "nonmyopic"),
        ]
    if workload == "window":
        return [
            _optimize("window_beta", work, "beta:2,5", 50, 2000, "myopic-approx"),
            _optimize("window_hotel", work, hotel, 50, 500, "myopic-approx"),
            _optimize("window_exact", work, "beta:2,5", 5, 14, "myopic-exact"),
        ]
    if workload == "oracle":
        return [Op(label, ("simulate", str(work / f"{label}.json")), work / f"{label}.csv")
                for label in ORACLE_RUNS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reveal", "window", "oracle")

# calibration loop (see run.host_slowness) matching each workload's hot loop
CALIBRATION = {"reveal": "interpreter", "window": "interpreter", "oracle": "arrays"}

# -- outputs -----------------------------------------------------------------


def read_rows(path: Path) -> list[tuple[str, float]]:
    """(key, value) rows of an ``optimize --out`` CSV, header skipped.

    The value is the last field: the exact search's key is an unquoted JSON
    window layout that itself contains commas.
    """
    lines = Path(path).read_text().splitlines()[1:]
    return [(key, float(value)) for key, value in (line.rsplit(",", 1) for line in lines)]


def optimize_record(op: Op, stdout: str) -> dict:
    """What an ``optimize`` op decided: its choice line and every scan row."""
    lines = stdout.splitlines()
    return {"choice": lines[0] if lines else "", "rows": read_rows(op.out)}


def check_optimize(record: dict, ref: dict) -> tuple[list[str], float]:
    """Compare against the reference; returns (failures, worst relative error)."""
    fails = []
    if record["choice"] != ref["choice"]:
        fails.append(f"choice {record['choice']!r} != reference {ref['choice']!r}")
    got = dict(record["rows"])
    worst = 0.0
    for key, want in ref["rows"]:
        if key not in got:
            fails.append(f"scan row {key} missing")
            continue
        err = abs(got[key] - want) / max(abs(want), 1e-300)
        worst = max(worst, err)
        if not err <= REL_TOL:
            fails.append(f"scan row {key}: {got[key]!r} vs reference {want!r} (rel {err:.2e})")
    extra = set(got) - {key for key, _ in ref["rows"]}
    if extra:
        fails.append(f"unexpected scan rows {sorted(extra)}")
    return fails, worst


_WELFARE = re.compile(r"welfare (\S+) \+- (\S+),")


def simulate_record(op: Op, stdout: str) -> dict:
    """Total welfare mean and standard error (stdout) and per-slot means (CSV)."""
    m = _WELFARE.search(stdout)
    if m is None:
        raise ValueError(f"no welfare line in output of {op.label}: {stdout!r}")
    with open(op.out, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return {
        "welfare": float(m.group(1)),
        "stderr": float(m.group(2)),
        "slot_means": [float(r[1]) for r in rows[1:]],
    }


def check_simulate(label: str, record: dict, analytic: dict) -> tuple[list[str], float]:
    """Invariants for every run, plus the z-check where a closed form exists.

    Returns (failures, |z| or 0 when no closed form covers the run).
    """
    fails = []
    means = record["slot_means"]
    if len(means) != T_ORACLE + 1 or not all(0.0 <= v <= 1.0 for v in means):
        fails.append("per-slot mean reward outside [0, 1] or wrong length")
    if not record["welfare"] <= N_ORACLE * (T_ORACLE + 1):
        fails.append(f"welfare {record['welfare']} exceeds N(T+1)")
    se = record["stderr"]
    if not (math.isfinite(se) and se >= 0.0):
        fails.append(f"stderr {se} not finite")
    z = 0.0
    if label in analytic:
        if not se > 0.0:
            fails.append("zero stderr on a deterministic run")
        else:
            z = (record["welfare"] - analytic[label]) / se
            if not abs(z) <= Z_MAX:
                fails.append(f"z = {z:.2f} against closed form {analytic[label]:.6f}")
    return fails, abs(z)


def analytic_welfare(prior_csv: Path) -> dict[str, float]:
    """Closed-form welfare of the deterministic oracle runs."""
    from commgate import (CommSchedule, RewardDistribution, solve_one_time,
                          welfare_centralized, welfare_one_time, welfare_schedule)

    d = RewardDistribution.from_csv(prior_csv)
    N, T = N_ORACLE, T_ORACLE
    seq = solve_one_time(d, N, T, T1_ORACLE)
    return {
        "oracle_myopic_open": welfare_centralized(d, N, T).total_welfare,
        "oracle_myopic_window": welfare_schedule(d, N, CommSchedule(T, ((0, 5),))).total_welfare,
        "oracle_reveal_exact": welfare_one_time(d, N, T, seq)[0],
    }
