"""Reproducible experiment runner.

Subcommands
-----------
fit        ratings CSV -> empirical reward prior (r,cdf CSV + metadata JSON)
optimize   schedule / sharing-slot optimization for a given prior
simulate   Monte-Carlo run from a JSON config file
sweep      mechanism-vs-centralized gain and its standard error across horizons and reward modes

Exit codes: 0 success, 2 validation error, 3 solver failure.  All outputs are
pure functions of (arguments, config, seed): no timestamps, sorted JSON keys,
fixed float formatting.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
import typing
from dataclasses import replace
from pathlib import Path

from . import dataset, myopic, nonmyopic, svg
from .distributions import RewardDistribution
from .errors import CommgateError, ConfigError, DistributionError, QuadratureError, SolverError
from .schedules import CommSchedule, check_horizon
from .simulate import SimConfig, _reveal_slot, run

CONFIG_SCHEMA_VERSION = 1
# the JSON type of each scalar simulate key, SimConfig's scalar fields in field
# order; an absent key takes SimConfig's default
SCALAR_KEYS = {key: kind for key, kind in typing.get_type_hints(SimConfig).items()
               if kind in (int, float, str, bool)}
CONFIG_KEYS = sorted({"schema_version", "dist", "schedule", "out", *SCALAR_KEYS})


def parse_dist(spec: str) -> RewardDistribution:
    """``uniform``, ``beta:a,b``, or a path to an ``r,cdf`` CSV."""
    if spec == "uniform":
        return RewardDistribution.uniform()
    if spec.startswith("beta:"):
        try:
            a, b = (float(v) for v in spec[5:].split(","))
        except ValueError as exc:
            raise DistributionError(f"bad beta spec {spec!r}, expected beta:a,b") from exc
        return RewardDistribution.beta(a, b)
    if Path(spec).exists():
        return RewardDistribution.from_csv(spec)
    raise DistributionError(f"distribution {spec!r} is not uniform, beta:a,b, or an existing CSV")


def cmd_fit(args) -> int:
    table = dataset.load_ratings(args.dataset)
    d = dataset.fit_reward_cdf(table, args.bandwidth)  # refuses a table too small or flat
    bandwidth = args.bandwidth if args.bandwidth is not None else dataset.silverman_bandwidth(table.normalized)
    d.to_csv(args.out)
    meta = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "source": str(args.dataset),
        "rows": len(table),
        "bandwidth": bandwidth,
        "boundary": "reflect[0,1]",
        "kernel": "gaussian",
        "grid_points": len(d.grid),
        "mean": d.mean(),
    }
    Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"fitted {len(table)} rows -> {args.out} (mean {d.mean():.4f}, bandwidth {bandwidth:.5f})")
    return 0


def cmd_optimize(args) -> int:
    d = parse_dist(args.dist)
    N, T = args.n_agents, args.horizon
    rows = []
    if args.mode == "myopic-approx":
        table = myopic._single_window_table(d, N, T)
        base = table.centralized
        sched, welfare = table.best
        rows = [("window_len", "welfare")] + table.scan
        if sched.is_centralized:
            print("centralized optimal (window condition fails)")
        else:
            print(f"best single window: first {sched.windows[0][1]} slots closed")
        print(f"welfare {welfare:.6f} vs centralized {base.total_welfare:.6f} "
              f"(gain {welfare - base.total_welfare:+.6f})")
    elif args.mode == "myopic-exact":
        base, sched, welfare = myopic._exact_search(d, N, T)
        print(f"exact windows: {list(sched.windows)}")
        print(f"welfare {welfare:.6f} vs centralized {base.total_welfare:.6f} "
              f"(gain {welfare - base.total_welfare:+.6f})")
        rows = [("window_layout", "welfare"), (json.dumps(list(sched.windows)), welfare)]
    else:  # nonmyopic
        scan, (t1_star, _, welfare) = nonmyopic._scan_and_pick(d, N, T)
        base_w = scan[-1][1]  # the always-open candidate, T1 = T-1
        print(f"best sharing slot T1* = {t1_star}")
        print(f"welfare {welfare:.6f} vs centralized {base_w:.6f} "
              f"(gain {(welfare / base_w - 1) * 100:+.2f}%)")
        rows = [("T1", "welfare")] + [(t1, w) for t1, w, _ in scan]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            for row in rows:
                fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return 0


def _schedule_from_config(obj, T) -> CommSchedule:
    """``"centralized"``, ``{"one_time": t}`` or ``{"windows": [{"start": s, "len": l}, ...]}``."""
    if obj == "centralized":
        return CommSchedule.centralized(T)
    if isinstance(obj, dict):
        _check_keys(obj, ("one_time", "windows"), "schedule")
    try:
        if isinstance(obj, dict) and obj.keys() == {"one_time"}:
            return CommSchedule.one_time(T, _as_int(obj["one_time"]))
        if isinstance(obj, dict) and obj.keys() == {"windows"}:
            for w in obj["windows"]:
                _check_keys(w, ("start", "len"), "window")
            wins = tuple((_as_int(w["start"]), _as_int(w["len"])) for w in obj["windows"])
            return CommSchedule(T, wins)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: malformed {obj!r} ({type(exc).__name__}: {exc})") from exc
    raise ConfigError(f"schedule: expected 'centralized', {{'one_time': t}}, or {{'windows': [...]}}, got {obj!r}")


def _as_int(value) -> int:
    """``int(value)`` for an integral JSON number; a boolean or a fraction is a ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _scalar(obj: dict, key: str, path):
    """``obj[key]`` read as its ``SCALAR_KEYS`` type; a bad value is a
    ConfigError.  A bool or str key takes only that JSON type, a number key
    any JSON number but no boolean or string, and an int key no fraction."""
    kind, value = SCALAR_KEYS[key], obj[key]
    try:
        if type(value) not in ((kind,) if kind in (bool, str) else (int, float)):
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        return _as_int(value) if kind is int else kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: field '{key}' must be {kind.__name__}, got {value!r}") from exc


def _check_keys(obj, known, where: str) -> None:
    """A ConfigError naming every key of ``obj`` not in ``known``, with its
    closest known key; ``obj`` must be a JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
    unknown = []
    for key in obj:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            unknown.append(f"unknown field {key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    if unknown:
        raise ConfigError(f"{where}: " + ", ".join(unknown))


def load_sim_config(path, overrides: dict | None = None) -> tuple[SimConfig, dict]:
    """Build a SimConfig from a JSON file; ``overrides`` beat file values."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    version = obj.get("schema_version")
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:  # not True, not 1.0
        raise ConfigError(f"{path}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    obj.update(overrides or {})
    _check_keys(obj, CONFIG_KEYS, str(path))
    for key in ("dist", "n_agents", "horizon", "schedule"):
        if key not in obj:
            raise ConfigError(f"{path}: missing field '{key}'")
    fields = {key: _scalar(obj, key, path) for key in SCALAR_KEYS if key in obj}
    dist = obj["dist"]
    if isinstance(dist, str):
        d = parse_dist(dist)
    elif isinstance(dist, dict) and dist.keys() == {"csv"} and isinstance(dist["csv"], str):
        d = RewardDistribution.from_csv(dist["csv"])
    else:
        raise ConfigError(f"{path}: dist must be a string; a dist object must carry 'csv', "
                          f"a path string, and nothing else; got {dist!r}")
    schedule = _schedule_from_config(obj["schedule"], fields["horizon"])
    if fields.get("agent_kind", SimConfig.agent_kind) == "nonmyopic":
        t1 = _reveal_slot(schedule)
        if t1 is None:
            raise ConfigError(f"{path}: nonmyopic runs need an open slot before the horizon")
        fields["thresholds"] = nonmyopic.solve_one_time(d, fields["n_agents"], fields["horizon"], t1)
    return SimConfig(dist=d, schedule=schedule, **fields), obj


def cmd_simulate(args) -> int:
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    cfg, obj = load_sim_config(args.config, overrides)
    out = args.out or obj.get("out")
    if not (out and isinstance(out, str)):  # open(True) would write to stdout and close it
        raise ConfigError(f"no output path: pass --out or set 'out', a path string, got {out!r}")
    result = run(cfg)
    result.to_csv(out)
    print(f"welfare {result.total_welfare_mean:.6f} +- {result.total_welfare_stderr:.6f}, "
          f"exploration slots {result.exploration_slots_mean:.4f} -> {out}")
    if args.svg:
        chart = svg.polyline_chart(
            [("mean reward/agent", list(range(cfg.horizon + 1)), list(result.per_slot_mean_reward))],
            title="per-slot mean reward",
        )
        Path(args.svg).write_text(chart)
        print(f"chart -> {args.svg}")
    return 0


def cmd_sweep(args) -> int:
    d = parse_dist(args.dist)
    N = args.n_agents
    if args.t_step < 1:
        raise ConfigError(f"--t-step must be >= 1, got {args.t_step}")
    check_horizon(args.t_stop)
    horizons = list(range(args.t_start, args.t_stop + 1, args.t_step))
    if not horizons:
        raise ConfigError(f"empty horizon range: --t-start {args.t_start} > --t-stop {args.t_stop}")
    # one validated simulation config per mode, before any scan runs; each
    # horizon replaces its horizon, schedule and thresholds
    configs = [
        SimConfig(
            dist=d, n_agents=N, horizon=1, schedule=CommSchedule.centralized(1),
            reward_mode=mode, noise_sd=args.noise_sd, pref_sd=args.pref_sd,
            replications=args.replications, master_seed=args.seed,
        )
        for mode in args.modes.split(",")
    ]
    lines = ["T,mode,T1_star,mechanism_welfare,centralized_welfare,gain_per_agent,"
             "gain_se_per_agent"]
    for T in horizons:
        scan, (t1_star, seq, _) = nonmyopic._scan_and_pick(d, N, T)
        seq_c = scan[-1][2]  # the always-open candidate, T1 = T-1
        for config in configs:
            mech = replace(
                config, horizon=T, schedule=CommSchedule.one_time(T, t1_star),
                agent_kind="nonmyopic", thresholds=seq,
            )
            cent = replace(mech, schedule=CommSchedule.centralized(T), thresholds=seq_c)
            r_mech, r_cent = run(mech), run(cent)
            gain = (r_mech.total_welfare_mean - r_cent.total_welfare_mean) / N
            # unpaired, so it overstates the error: the two runs share option streams
            se = math.hypot(r_mech.total_welfare_stderr, r_cent.total_welfare_stderr) / N
            lines.append(
                f"{T},{config.reward_mode},{t1_star},{r_mech.total_welfare_mean:.12g},"
                f"{r_cent.total_welfare_mean:.12g},{gain:.12g},{se:.12g}"
            )
            print(lines[-1])
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="commgate", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit an empirical reward prior from a ratings CSV")
    f.add_argument("dataset", help="ratings CSV (hotel_id,avg_rating,rating_scale_max,n_reviews[,rating_sd])")
    f.add_argument("out", help="output r,cdf CSV path")
    f.add_argument("--bandwidth", type=float, default=None, help="kernel bandwidth (default: Silverman)")
    f.set_defaults(func=cmd_fit)

    o = sub.add_parser("optimize", help="optimize the communication mechanism for a prior")
    o.add_argument("--dist", required=True, help="uniform | beta:a,b | r,cdf CSV path")
    o.add_argument("--n-agents", type=int, required=True)
    o.add_argument("--horizon", type=int, required=True)
    o.add_argument("--mode", choices=["myopic-approx", "myopic-exact", "nonmyopic"], required=True)
    o.add_argument("--out", default=None, help="CSV of the full candidate scan")
    o.set_defaults(func=cmd_optimize)

    s = sub.add_parser("simulate", help="run a Monte-Carlo experiment from a JSON config")
    s.add_argument("config", help="JSON config file (schema_version 1)")
    s.add_argument("--out", default=None, help="override the config's output CSV path")
    s.add_argument("--replications", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--svg", default=None, help="also write a per-slot SVG chart here")
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="mechanism-vs-centralized gain across horizons")
    w.add_argument("--dist", required=True)
    w.add_argument("--n-agents", type=int, required=True)
    w.add_argument("--t-start", type=int, default=10)
    w.add_argument("--t-stop", type=int, default=80)
    w.add_argument("--t-step", type=int, default=10)
    w.add_argument("--modes", default="deterministic",
                   help="comma list of deterministic,stochastic,heterogeneous")
    w.add_argument("--noise-sd", type=float, default=SimConfig.noise_sd)
    w.add_argument("--pref-sd", type=float, default=SimConfig.pref_sd)
    w.add_argument("--replications", type=int, default=500)
    w.add_argument("--seed", type=int, default=SimConfig.master_seed)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, QuadratureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (CommgateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
