import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commgate.cli import load_sim_config, main
from commgate.distributions import RewardDistribution
from commgate.errors import CommgateError
from commgate.schedules import CommSchedule
from commgate.simulate import SimConfig

HOTEL = str(Path(__file__).parent.parent / "data" / "hotel_ratings.csv")


def run_cli(*argv):
    return main(list(argv))


class TestFitCommand:
    def test_fit_hotel(self, tmp_path, capsys):
        out = tmp_path / "prior.csv"
        assert run_cli("fit", HOTEL, str(out)) == 0
        d = RewardDistribution.from_csv(out)
        assert abs(d.mean() - 0.49) <= 0.02
        meta = json.loads((tmp_path / "prior.csv.meta.json").read_text())
        assert meta["rows"] == 825
        assert meta["bandwidth"] > 0

    def test_fit_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("fit", HOTEL, str(a))
        run_cli("fit", HOTEL, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        for row in ("x,oops,10,3", "x,4,10,inf", "x,inf,inf,3", "x,4,10,3.7"):
            bad.write_text(f"hotel_id,avg_rating,rating_scale_max,n_reviews\ny,4,10,3\n{row}\n")
            assert run_cli("fit", str(bad), str(tmp_path / "o.csv"), "--bandwidth", "0.05") == 2
            assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["nan", "-1", "0", "inf"])
    def test_bad_bandwidth_exits_2(self, tmp_path, capsys, bandwidth):
        out = tmp_path / "o.csv"
        assert run_cli("fit", HOTEL, str(out), "--bandwidth", bandwidth) == 2
        assert "bandwidth must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rating", ["3.7", "3.3"])
    def test_zero_spread_ratings_exit_2(self, tmp_path, capsys, rating):
        # 3.7/5 leaves float noise in the spread (sd ~ 1e-16), 3.3/5 none at all
        ratings = tmp_path / "flat.csv"
        ratings.write_text("hotel_id,avg_rating,rating_scale_max,n_reviews\n"
                           + "".join(f"h{i},{rating},5,10\n" for i in range(30)))
        out = tmp_path / "o.csv"
        assert run_cli("fit", str(ratings), str(out)) == 2
        assert "zero spread" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("fit", str(ratings), str(out), "--bandwidth", "0.05") == 0
        assert abs(RewardDistribution.from_csv(out).mean() - float(rating) / 5) < 0.01


class TestOptimizeCommand:
    @pytest.mark.parametrize("mode", ["nonmyopic", "myopic-approx", "myopic-exact"])
    def test_huge_horizon_exits_2(self, capsys, mode):
        code = run_cli("optimize", "--dist", "uniform", "--n-agents", "5",
                       "--horizon", "10000000000000", "--mode", mode)
        assert code == 2
        assert "horizon budget MAX_HORIZON = 100000" in capsys.readouterr().err

    def test_horizon_budget_boundary(self):
        from commgate.errors import ConfigError
        from commgate.schedules import MAX_HORIZON

        assert CommSchedule(MAX_HORIZON).horizon_T == MAX_HORIZON
        with pytest.raises(ConfigError, match="horizon budget"):
            CommSchedule(MAX_HORIZON + 1)

    def test_myopic_approx_condition_fails(self, capsys, tmp_path):
        # a single agent has no sharing benefit: stay centralized
        code = run_cli("optimize", "--dist", "uniform", "--n-agents", "1",
                       "--horizon", "10", "--mode", "myopic-approx",
                       "--out", str(tmp_path / "scan.csv"))
        assert code == 0
        assert "centralized optimal" in capsys.readouterr().out

    def test_myopic_approx_scan_csv(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "5",
                       "--horizon", "10", "--mode", "myopic-approx", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_len,welfare"
        assert len(lines) == 10  # header + window lengths 1..9

    def test_myopic_exact_past_old_cap(self, capsys):
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "3",
                       "--horizon", "20", "--mode", "myopic-exact") == 0
        assert capsys.readouterr().out.startswith("exact windows: [(0, ")

    def test_myopic_exact_solves_centralized_once(self, capsys, monkeypatch):
        # the always-open report is arithmetic on the search's own term table:
        # one tail integral plus one integral per y_i, nothing solved twice
        from commgate import myopic

        calls = []
        integrate = myopic.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(myopic, "integrate", counting)
        assert run_cli("optimize", "--dist", "beta:2,5", "--n-agents", "5",
                       "--horizon", "8", "--mode", "myopic-exact") == 0
        assert len(calls) == 1 + 8
        _, welfare = myopic.optimize_exact(RewardDistribution.beta(2, 5), 5, 8)
        assert f"welfare {welfare:.6f} vs centralized" in capsys.readouterr().out

    def test_nonmyopic(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("optimize", "--dist", "beta:2,2", "--n-agents", "4",
                       "--horizon", "8", "--mode", "nonmyopic", "--out", str(out)) == 0
        txt = capsys.readouterr().out
        assert "best sharing slot" in txt
        assert out.read_text().splitlines()[0] == "T1,welfare"

    def test_nonmyopic_horizon_one_exits_2(self, capsys):
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "3",
                       "--horizon", "1", "--mode", "nonmyopic") == 2

    def test_bad_dist_exits_2(self, capsys):
        assert run_cli("optimize", "--dist", "nosuchthing", "--n-agents", "3",
                       "--horizon", "8", "--mode", "myopic-approx") == 2

    @pytest.mark.parametrize("mode", ["myopic-approx", "nonmyopic"])
    def test_beta_parameter_sum_overflow_exits_2(self, capsys, mode):
        assert run_cli("optimize", "--dist", "beta:1e308,1e308", "--n-agents", "3",
                       "--horizon", "8", "--mode", mode) == 2
        assert "finite sum" in capsys.readouterr().err

    def test_failed_candidate_exits_3(self, capsys, tmp_path, failing_slots):
        # the first failed candidate fails the scan: no T1* from the others
        failing_slots.update({2, 4})
        out = tmp_path / "scan.csv"
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "3",
                       "--horizon", "8", "--mode", "nonmyopic", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.err == "solver error: injected failure at T1=2\n"
        assert "best sharing slot" not in captured.out
        assert not out.exists()

    def test_solver_non_convergence_exits_3(self, capsys, monkeypatch):
        from commgate import nonmyopic

        monkeypatch.setattr(nonmyopic, "_MAX_ITER", 1)
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "3",
                       "--horizon", "8", "--mode", "nonmyopic") == 3
        assert capsys.readouterr().err == (
            "solver error: one-time solver did not converge at T1=1 after 1 iterations\n")

    @pytest.mark.parametrize("failing,message", [
        ({7}, "injected failure at T1=7"),
        (set(range(1, 8)), "injected failure at T1=1"),
    ], ids=["always_open", "every_candidate"])
    def test_solver_failure_exits_3(self, capsys, failing_slots, failing, message):
        failing_slots.update(failing)
        assert run_cli("optimize", "--dist", "uniform", "--n-agents", "3",
                       "--horizon", "8", "--mode", "nonmyopic") == 3
        assert capsys.readouterr().err == f"solver error: {message}\n"

    @pytest.mark.parametrize("spec,stage,T1", [
        ("beta:0.5,0.5", "welfare", 16),
        ("beta:0.3,0.3", "threshold solve", 1),
        ("beta:3,0.4", "welfare", 10),
    ])
    def test_quadrature_failure_names_candidate(self, capsys, spec, stage, T1):
        assert run_cli("optimize", "--dist", spec, "--n-agents", "5", "--horizon", "20",
                       "--mode", "nonmyopic") == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: quadrature did not converge")
        assert err.endswith(f" (in the {stage} at T1={T1})\n")


def sim_config(tmp_path, **kw):
    cfg = {
        "schema_version": 1,
        "dist": "uniform",
        "n_agents": 4,
        "horizon": 8,
        "schedule": "centralized",
        "agent_kind": "myopic",
        "replications": 50,
        "master_seed": 7,
        "out": str(tmp_path / "sim.csv"),
    }
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


SUGGESTED = {"replicatoins": "replications", "noise-sd": "noise_sd", "one-time": "one_time",
             "lenght": "len"}
# every config key but schema_version, whose checks come first
FUZZ_KEYS = ["dist", "n_agents", "horizon", "schedule", "agent_kind", "reward_mode",
             "noise_sd", "pref_sd", "replications", "master_seed", "noise_per_option", "out"]
NEAR_MISS_KEYS = ["replicatoins", "noise-sd", "thresholds", "n-agents", "Horizon", "seed"]
BASE_CONFIG = {"dist": "uniform", "n_agents": 3, "horizon": 6, "schedule": "centralized"}
_SCALARS = st.one_of(
    st.sampled_from(["uniform", "beta:2,5", "myopic", "nonmyopic", "deterministic",
                     "stochastic", "heterogeneous", "centralized", "5", ""]),
    st.integers(0, 8), st.integers(-40, 40), st.floats(-40, 40),
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf]),
)
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["csv", "one_time", "windows"]),
                    st.one_of(_SCALARS, st.lists(st.dictionaries(
                        st.sampled_from(["start", "len"]), _SCALARS, max_size=2), max_size=2)),
                    max_size=2),
)


def object_keys(value):
    """Every key of every JSON object within ``value``."""
    if isinstance(value, dict):
        return [k for key, v in value.items() for k in (key, *object_keys(v))]
    if isinstance(value, list):
        return [k for v in value for k in object_keys(v)]
    return []


class TestSimulateCommand:
    def test_basic_run(self, tmp_path, capsys):
        cfg = sim_config(tmp_path)
        assert run_cli("simulate", str(cfg)) == 0
        lines = (tmp_path / "sim.csv").read_text().splitlines()
        assert lines[1] == "t,mean_reward_per_agent,stderr"
        assert len(lines) == 2 + 9

    def test_single_replication_stable(self, tmp_path, capsys):
        cfg = sim_config(tmp_path, replications=1)
        run_cli("simulate", str(cfg))
        first = (tmp_path / "sim.csv").read_bytes()
        run_cli("simulate", str(cfg))
        assert (tmp_path / "sim.csv").read_bytes() == first
        # one replication has no standard error: every one reads nan
        assert all(line.endswith(",nan") for line in first.decode().splitlines()[2:])
        assert capsys.readouterr().out.count("+- nan,") == 2

    def test_nonmyopic_one_time(self, tmp_path):
        cfg = sim_config(tmp_path, agent_kind="nonmyopic", schedule={"one_time": 3})
        assert run_cli("simulate", str(cfg)) == 0

    def test_svg_output(self, tmp_path):
        cfg = sim_config(tmp_path)
        svg_path = tmp_path / "chart.svg"
        assert run_cli("simulate", str(cfg), "--svg", str(svg_path)) == 0
        body = svg_path.read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_schema_version_checked(self, tmp_path, capsys):
        cfg = sim_config(tmp_path)
        obj = json.loads(cfg.read_text())
        obj["schema_version"] = 99
        cfg.write_text(json.dumps(obj))
        assert run_cli("simulate", str(cfg)) == 2

    def test_missing_field_path_reported(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 1, "dist": "uniform"}))
        assert run_cli("simulate", str(cfg)) == 2
        assert "n_agents" in capsys.readouterr().err

    def test_no_output_path_exits_before_running(self, tmp_path, capsys, monkeypatch):
        from commgate import cli

        def refuse(cfg):
            raise AssertionError("simulated without an output path")

        monkeypatch.setattr(cli, "run", refuse)
        cfg = sim_config(tmp_path, out=None)
        assert run_cli("simulate", str(cfg)) == 2
        assert "no output path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"n_agents": "five"}, {"horizon": [8]}, {"replications": 1e999},
         {"schedule": {"windows": [{"start": 1}]}}, {"schedule": {"one_time": "x"}}, None,
         {"noise_per_option": "false"}, {"noise_per_option": 0},
         {"n_agents": True}, {"horizon": 6.7}, {"replications": True}, {"master_seed": 0.5},
         {"schedule": {"windows": [{"start": 0.5, "len": 2}]}},
         {"schedule": {"windows": [{"start": 0, "len": True}]}},
         {"schedule": {"one_time": 3.5}}, {"schedule": {"one_time": True}},
         {"noise_sd": float("nan")}, {"noise_sd": float("inf")}, {"pref_sd": "inf"},
         {"master_seed": -1}, {"dist": {"csv": 5}}, {"dist": {"csv": ["a"]}},
         {"schema_version": True}, {"schema_version": 1.0},
         {"replicatoins": 1000, "noise-sd": 0.5}, {"thresholds": [0.5]}, {"reward_mode": 5},
         {"agent_kind": None}, {"n_agents": "5"}, {"dist": 5},
         {"dist": {"csv": "prior.csv", "sep": ";"}}, {"out": True},
         {"schedule": {"one_time": 4, "windows": [{"start": 0, "len": 8}]}},
         {"schedule": {"windows": [{"start": 0, "len": 3, "lenght": 3}]}},
         {"schedule": {"windows": [{"start": 0, "len": 3}], "one-time": 4}}],
        ids=["n_agents_not_int", "horizon_list", "replications_inf", "window_without_len",
             "one_time_not_int", "top_level_array",
             "noise_per_option_string", "noise_per_option_int",
             "n_agents_bool", "horizon_fraction", "replications_bool", "master_seed_fraction",
             "window_start_fraction", "window_len_bool",
             "one_time_fraction", "one_time_bool", "noise_sd_nan", "noise_sd_json_infinity",
             "pref_sd_string_inf", "master_seed_negative", "dist_csv_number", "dist_csv_list",
             "schema_version_bool", "schema_version_float",
             "typo_keys", "thresholds_key", "reward_mode_number", "agent_kind_null",
             "n_agents_numeric_string", "dist_number", "dist_object_extra_key",
             "out_bool", "schedule_one_time_and_windows", "schedule_window_typo",
             "schedule_key_typo"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, fields):
        cfg = sim_config(tmp_path, **(fields or {}))
        if fields is None:
            cfg.write_text(json.dumps([json.loads(cfg.read_text())]))
        assert run_cli("simulate", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the message names every bad key, and an unknown key's closest known
        # one, also within the schedule
        for key in fields or {}:
            assert key in err
        for key in object_keys(fields):
            if key in SUGGESTED:
                assert f"unknown field {key!r} (did you mean {SUGGESTED[key]!r}?)" in err
        if fields == {"thresholds": [0.5]}:  # solved, not read; no known key is close
            assert "unknown field 'thresholds'" in err and "did you mean" not in err

    def test_absent_keys_take_simconfig_defaults(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 1, "dist": "uniform", "n_agents": 3,
                                   "horizon": 6, "schedule": "centralized"}))
        loaded, _ = load_sim_config(cfg)
        bare = SimConfig(RewardDistribution.uniform(), 3, 6, CommSchedule.centralized(6))
        assert loaded.describe() == bare.describe()  # every field but the thresholds
        assert loaded.thresholds is None

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["myopic", "nonmyopic"]),
           dropped=st.sets(st.sampled_from(sorted(BASE_CONFIG)), max_size=1),
           extra=st.dictionaries(st.sampled_from(FUZZ_KEYS), JSON_VALUES, max_size=2),
           near_miss=st.none() | st.dictionaries(st.sampled_from(NEAR_MISS_KEYS), JSON_VALUES,
                                                 min_size=1, max_size=2))
    def test_random_config_loads_or_is_refused(self, tmp_path_factory, kind, dropped, extra,
                                               near_miss):
        obj = {"schema_version": 1, "agent_kind": kind}
        obj |= {k: v for k, v in BASE_CONFIG.items() if k not in dropped} | extra | (near_miss or {})
        cfg = tmp_path_factory.mktemp("fuzz") / "c.json"
        cfg.write_text(json.dumps(obj))
        try:
            loaded, _ = load_sim_config(cfg)
        except CommgateError:
            return
        assert isinstance(loaded, SimConfig)

    def test_huge_nonmyopic_horizon_is_refused(self, tmp_path):
        # without a budget np.arange(1, T) in solve_single_agent asks for 80 PB
        cfg = sim_config(tmp_path, horizon=10**16, agent_kind="nonmyopic")
        with pytest.raises(CommgateError, match="horizon budget"):
            load_sim_config(cfg)

    @pytest.mark.parametrize("kind", ["myopic", "nonmyopic"])
    def test_huge_horizon_exits_2(self, tmp_path, capsys, monkeypatch, kind):
        # the myopic run would list every open slot, 10^16 of them
        import commgate.cli

        def refuse(*args):
            raise AssertionError("ran past the horizon budget")

        monkeypatch.setattr(commgate.cli, "run", refuse)
        cfg = sim_config(tmp_path, horizon=10**16, agent_kind=kind)
        assert run_cli("simulate", str(cfg)) == 2
        assert "horizon budget MAX_HORIZON = 100000" in capsys.readouterr().err

    def test_agents_beyond_memory_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # even a 4-replication chunk of 200,000 agents passes the byte budget:
        # the config is refused before any state array is allocated
        from commgate import simulate

        def refuse(*args):
            raise AssertionError("allocated state beyond the budget")

        monkeypatch.setattr(simulate.SimState, "initial", refuse)
        assert run_cli("simulate", str(sim_config(tmp_path, n_agents=200_000))) == 2
        assert "memory budget" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = sim_config(tmp_path, replications=50)
        run_cli("simulate", str(cfg), "--replications", "10", "--seed", "1")
        header = (tmp_path / "sim.csv").read_text().splitlines()[0]
        assert '"replications": 10' in header
        assert '"master_seed": 1' in header

    def test_windows_schedule(self, tmp_path, capsys):
        cfg = sim_config(tmp_path, schedule={"windows": [{"start": 1, "len": 3}]})
        assert run_cli("simulate", str(cfg)) == 0
        header = (tmp_path / "sim.csv").read_text().splitlines()[0]
        assert '"windows": [{"len": 3, "start": 1}]' in header

    def test_csv_dist(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        RewardDistribution.empirical([0, 0.4, 0.6, 1], [0, 0.3, 0.3, 1]).to_csv(prior)
        cfg = sim_config(tmp_path, dist={"csv": str(prior)})
        assert run_cli("simulate", str(cfg)) == 0
        header = (tmp_path / "sim.csv").read_text().splitlines()[0]
        assert "empirical" in header

    def test_non_finite_csv_dist_exits_2(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("r,cdf\n0,0\n0.5,nan\n1,1\n")
        cfg = sim_config(tmp_path, dist={"csv": str(prior)})
        assert run_cli("simulate", str(cfg)) == 2
        assert "finite" in capsys.readouterr().err
        assert run_cli("optimize", "--dist", str(prior), "--n-agents", "3",
                       "--horizon", "8", "--mode", "myopic-approx") == 2
        assert "finite" in capsys.readouterr().err

    def test_dist_object_without_csv_exits_2(self, tmp_path, capsys):
        cfg = sim_config(tmp_path, dist={"path": "prior.csv"})
        assert run_cli("simulate", str(cfg)) == 2
        assert "must carry 'csv'" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"schema_version": 1,')
        assert run_cli("simulate", str(cfg)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_flag_is_hard_error(self, capsys, tmp_path):
        cfg = sim_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", str(cfg), "--frobnicate")
        assert exc.value.code == 2


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--dist", "uniform", "--n-agents", "3",
                       "--t-start", "6", "--t-stop", "8", "--t-step", "2",
                       "--replications", "40", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("T,mode,T1_star")
        assert len(lines) == 3

    def test_horizon_one_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--dist", "uniform", "--n-agents", "3",
                       "--t-start", "1", "--t-stop", "1", "--out", str(tmp_path / "s.csv")) == 2

    def test_infinite_noise_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--dist", "uniform", "--n-agents", "3",
                       "--t-start", "6", "--t-stop", "6", "--noise-sd", "inf",
                       "--out", str(tmp_path / "s.csv")) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--t-step", "0"], ["--t-step", "-2"], ["--noise-sd", "-1"], ["--pref-sd", "nan"],
        ["--modes", "deterministic,bogus"], ["--replications", "0"], ["--seed", "-1"],
        ["--t-start", "9"], ["--t-stop", "10000000000000"],
    ], ids=["t_step_zero", "t_step_negative", "noise_negative", "pref_nan", "bad_mode",
            "no_replications", "seed_negative", "empty_horizon_range", "huge_horizon"])
    def test_bad_input_exits_2_before_any_scan(self, tmp_path, capsys, monkeypatch, flags):
        from commgate import nonmyopic

        def refuse(*args, **kwargs):
            raise AssertionError("scanned before the sweep inputs were checked")

        monkeypatch.setattr(nonmyopic, "_scan_and_pick", refuse)
        assert run_cli("sweep", "--dist", "uniform", "--n-agents", "3",
                       "--t-start", "6", "--t-stop", "8", *flags,
                       "--out", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli("sweep", "--dist", "uniform", "--n-agents", "3",
                    "--t-start", "6", "--t-stop", "6", "--t-step", "2",
                    "--replications", "40", "--out", str(p))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("spec", ["beta:1e300,1e300", "beta:1e-300,5", "beta:5,1e-300"])
@pytest.mark.parametrize("command", ["optimize", "sweep", "simulate"])
def test_degenerate_prior_exits_2_by_name(tmp_path, capsys, command, spec):
    # the solo thresholds of a point-mass prior cannot decrease strictly
    argv = {
        "optimize": ["optimize", "--dist", spec, "--n-agents", "3", "--horizon", "8",
                     "--mode", "nonmyopic"],
        "sweep": ["sweep", "--dist", spec, "--n-agents", "3", "--t-start", "8",
                  "--t-stop", "8", "--out", str(tmp_path / "s.csv")],
        "simulate": ["simulate", str(sim_config(tmp_path, dist=spec, agent_kind="nonmyopic",
                                                schedule={"one_time": 3}))],
    }[command]
    assert run_cli(*argv) == 2
    a, b = (float(v) for v in spec[5:].split(","))
    prior = RewardDistribution.beta(a, b)
    assert capsys.readouterr().err.startswith(f"error: {prior!r} is degenerate at its mean ")


def test_help_lists_all_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    for sub in ("fit", "optimize", "simulate", "sweep"):
        with pytest.raises(SystemExit):
            run_cli(sub, "--help")
