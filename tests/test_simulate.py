import hashlib
import tracemalloc

import numpy as np
import pytest

from commgate import simulate
from commgate.distributions import RewardDistribution
from commgate.errors import ConfigError
from commgate.myopic import welfare_centralized, welfare_schedule
from commgate.nonmyopic import ThresholdSequence, solve_one_time, solve_single_agent, welfare_one_time
from commgate.schedules import CommSchedule
from commgate.simulate import SimConfig, SimState, run, step, trajectory_compare


def myopic_config(uniform, **kw):
    defaults = dict(
        dist=uniform, n_agents=5, horizon=20,
        schedule=CommSchedule.centralized(20), agent_kind="myopic",
        replications=1, master_seed=0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


# Exact outputs of one small run per (agent kind, reward mode, noise per
# option): total welfare as float.hex and the first 16 hex digits of the
# sha256 of the per-slot means.  Work on the simulator's hot loop must keep
# them bit-identical; only an announced change of the random stream may
# re-record them.
PINNED_RUNS = {
    ("myopic", "deterministic", False): ("0x1.39e31f10a0915p+5", "19b1744b3efb41aa"),
    ("myopic", "stochastic", False): ("0x1.31c442e554538p+5", "5fb113a2a6537976"),
    ("myopic", "stochastic", True): ("0x1.41ceb6175d182p+5", "eea818e3721e13d4"),
    ("myopic", "heterogeneous", False): ("0x1.514b81cfb415bp+5", "621feca246b7f6fe"),
    ("nonmyopic", "deterministic", False): ("0x1.4290801bbf0b0p+5", "02cff96d38a739f2"),
    ("nonmyopic", "stochastic", False): ("0x1.35910a47aaf24p+5", "2a6e163d1b151432"),
    ("nonmyopic", "stochastic", True): ("0x1.48d80066dd4e3p+5", "55f5796e09487168"),
    ("nonmyopic", "heterogeneous", False): ("0x1.50e2129eb7c83p+5", "db6b1aa0da5f6c4c"),
}


def pinned_config(kind, mode, per_option):
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


class TestConfigValidation:
    def test_nonmyopic_needs_thresholds(self, uniform):
        with pytest.raises(ConfigError):
            SimConfig(dist=uniform, n_agents=2, horizon=5,
                      schedule=CommSchedule.centralized(5), agent_kind="nonmyopic")

    def test_schedule_horizon_must_match(self, uniform):
        with pytest.raises(ConfigError):
            myopic_config(uniform, schedule=CommSchedule.centralized(10))

    def test_bad_mode(self, uniform):
        with pytest.raises(ConfigError):
            myopic_config(uniform, reward_mode="weird")


class TestStep:
    def test_single_agent_monotone_state(self, uniform, rng):
        cfg = myopic_config(uniform, n_agents=1)
        state = SimState.initial(64, 1)
        prev = state.m.copy()
        for t in range(21):
            state = step(state, t, cfg, rng)
            assert np.all(state.m >= prev)
            prev = state.m.copy()

    def test_myopic_open_slot_pools_states(self, uniform, rng):
        cfg = myopic_config(uniform)
        state = SimState.initial(128, 5)
        state = step(state, 0, cfg, rng)
        assert np.allclose(state.m, state.m[:, :1])

    def test_nonmyopic_withholds_before_share_slot(self, uniform, rng):
        T, T1 = 10, 6
        seq = solve_one_time(uniform, 5, T, T1)
        cfg = SimConfig(dist=uniform, n_agents=5, horizon=T,
                        schedule=CommSchedule.one_time(T, T1), agent_kind="nonmyopic",
                        thresholds=seq, replications=1, master_seed=0)
        state = SimState.initial(256, 5)
        for t in range(T1):
            state = step(state, t, cfg, rng)
        # everyone has a distinct private state: no pooling happened
        assert np.all(np.ptp(state.m, axis=1) > 0)
        state = step(state, T1, cfg, rng)
        assert np.allclose(state.m, state.m[:, :1])

    def test_option_ids_unique_within_run(self, uniform, rng):
        cfg = myopic_config(uniform, n_agents=3)
        state = SimState.initial(16, 3)
        for t in range(21):
            state = step(state, t, cfg, rng)
        # ids encode (slot, agent): the same id can only be held via sharing,
        # and every agent's view is a valid AgentState
        view = state.agent(0, 0)
        assert view.explored_count >= 1
        assert view.best_option is not None

    def test_stochastic_rewards_clamped(self, uniform, rng):
        cfg = myopic_config(uniform, reward_mode="stochastic", noise_sd=0.5)
        state = SimState.initial(512, 5)
        for t in range(5):
            state = step(state, t, cfg, rng)
        assert np.all(state.m >= 0.0) and np.all(state.m <= 1.0)

    def test_heterogeneous_share_is_personal_appraisal(self, uniform, rng):
        # after pooling, each agent holds a value she could actually have
        # appraised: at least her own find, at most the best base plus offset
        cfg = myopic_config(uniform, reward_mode="heterogeneous", pref_sd=0.2)
        state = SimState.initial(2048, 5)
        before = None
        for t in range(3):
            before = state.m.copy()
            state = step(state, t, cfg, rng)
            assert np.all(state.m >= before - 1e-12)  # appraisals never degrade beliefs
        assert np.all(state.m <= 1.0)
        # the per-replication best base propagates to adopters
        assert np.all(state.best_base <= 1.0)

    def test_heterogeneous_share_without_discovery_is_inert(self, uniform):
        # appraisals are fixed per (agent, option): a share slot that follows
        # another with nothing found in between changes nobody's holding and
        # draws no appraisal at all
        cfg = myopic_config(uniform, reward_mode="heterogeneous", pref_sd=0.2)
        rng = np.random.Generator(np.random.Philox(7))
        state = step(SimState.initial(2048, 5), 0, cfg, rng)
        keep = np.all(state.m >= uniform.mean(), axis=1)  # nobody explores at t=1
        assert keep.sum() > 100
        state = SimState(state.m[keep], state.best_base[keep], state.best_opt[keep],
                         state.explored[keep])
        expected_rng = np.random.Generator(np.random.Philox(7))
        expected_rng.bit_generator.state = rng.bit_generator.state
        expected_rng.random(state.m.shape)  # option quantiles
        expected_rng.random(state.m.shape)  # exploration preference offsets
        after = step(state, 1, cfg, rng)
        assert np.array_equal(rng.random(8), expected_rng.random(8))  # same stream position
        for name in ("m", "best_base", "best_opt", "explored"):
            assert np.array_equal(getattr(after, name), getattr(state, name)), name

    def test_heterogeneous_share_memory_is_bounded(self, uniform):
        # one share step at N=200 appraises 256 x 200 x 200 pairs; the
        # appraisals are filled in blocks, not as one (R, N, N) array
        cfg = myopic_config(uniform, n_agents=200, reward_mode="heterogeneous", pref_sd=0.3)
        rng = np.random.Generator(np.random.Philox(3))
        state = SimState.initial(256, 200)
        tracemalloc.start()
        try:
            state = step(state, 0, cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(state.best_opt >= 0)
        assert peak < 48 * 2**20


class TestRun:
    def test_same_seed_bit_identical(self, uniform):
        cfg = myopic_config(uniform, replications=500, master_seed=33)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.per_slot_mean_reward, b.per_slot_mean_reward)
        assert a.total_welfare_mean == b.total_welfare_mean
        assert a.exploration_slots_mean == b.exploration_slots_mean

    def test_total_is_slot_sum(self, uniform):
        cfg = myopic_config(uniform, replications=200, master_seed=5)
        res = run(cfg)
        assert res.total_welfare_mean == pytest.approx(
            5 * res.per_slot_mean_reward.sum(), rel=1e-12
        )

    def test_matches_centralized_formula(self, uniform):
        cfg = myopic_config(uniform, replications=100_000, master_seed=11)
        res = run(cfg)
        rep = welfare_centralized(uniform, 5, 20)
        assert abs(res.total_welfare_mean - rep.total_welfare) < 3 * res.total_welfare_stderr
        assert (
            abs(res.exploration_slots_mean - rep.expected_exploration_slots)
            < 3 * res.exploration_slots_stderr
        )

    def test_matches_schedule_formula(self, uniform):
        sched = CommSchedule(20, ((0, 3), (5, 2)))
        cfg = myopic_config(uniform, schedule=sched, replications=100_000, master_seed=17)
        res = run(cfg)
        rep = welfare_schedule(uniform, 5, sched)
        assert abs(res.total_welfare_mean - rep.total_welfare) < 3 * res.total_welfare_stderr
        assert (
            abs(res.exploration_slots_mean - rep.expected_exploration_slots)
            < 3 * res.exploration_slots_stderr
        )

    def test_stderr_halves_with_quadruple_replications(self, uniform):
        small = run(myopic_config(uniform, replications=2_000, master_seed=3))
        big = run(myopic_config(uniform, replications=32_000, master_seed=3))
        ratio = small.total_welfare_stderr / big.total_welfare_stderr
        assert 4 * 0.8 < ratio < 4 * 1.25

    def test_solo_run_matches_single_agent_value(self, uniform):
        T = 10
        solo = solve_single_agent(uniform, T)
        cfg = SimConfig(dist=uniform, n_agents=1, horizon=T,
                        schedule=CommSchedule.centralized(T), agent_kind="nonmyopic",
                        thresholds=solo, replications=100_000, master_seed=7)
        res = run(cfg)
        seq = solve_one_time(uniform, 1, T, T - 1)
        value, _ = welfare_one_time(uniform, 1, T, seq)
        assert abs(res.total_welfare_mean - value) < 3 * res.total_welfare_stderr

    def test_replication_prefix_stable(self, uniform):
        # the first R replications of a longer run match a shorter one
        a = run(myopic_config(uniform, replications=1_000, master_seed=9))
        b = run(myopic_config(uniform, replications=3_000, master_seed=9))
        assert a.total_welfare_mean != b.total_welfare_mean  # different averages
        c = run(myopic_config(uniform, replications=1_000, master_seed=9))
        assert c.total_welfare_mean == a.total_welfare_mean

    def test_deterministic_receipts_do_not_depend_on_replication_count(self, uniform, monkeypatch):
        # in deterministic mode replication r's rewards come from the option
        # stream alone, so they match exactly between runs of 3 and 7
        seen = []
        advance = simulate._advance

        def recording(*args):
            receipt = advance(*args)
            seen[-1].append(receipt[:3].copy())
            return receipt

        monkeypatch.setattr(simulate, "_advance", recording)
        for reps in (3, 7):
            seen.append([])
            run(myopic_config(uniform, replications=reps, master_seed=4))
        assert np.array_equal(np.array(seen[0]), np.array(seen[1]))

    @pytest.mark.parametrize("kind,mode,per_option", list(PINNED_RUNS))
    def test_outputs_pinned(self, kind, mode, per_option):
        res = run(pinned_config(kind, mode, per_option))
        digest = hashlib.sha256(res.per_slot_mean_reward.astype("<f8").tobytes()).hexdigest()[:16]
        assert (res.total_welfare_mean.hex(), digest) == PINNED_RUNS[kind, mode, per_option]

    def test_prior_evaluated_for_explorers_only(self, uniform, monkeypatch):
        # the prior maps an option quantile only where an agent explores; the
        # quantiles are still drawn for every agent, so the streams are unchanged
        points = []
        ppf = RewardDistribution.ppf

        def counting(self, q):
            points.append(np.size(q))
            return ppf(self, q)

        monkeypatch.setattr(RewardDistribution, "ppf", counting)
        res = run(myopic_config(uniform, replications=300, master_seed=8))
        assert sum(points) == round(300 * 5 * res.exploration_slots_mean)

    def test_per_option_noise_evaluated_for_explorers_only(self, uniform, monkeypatch):
        # with noise drawn once per option, exploiters re-receive their belief,
        # so only explorers' noise quantiles go through ndtri
        points = []
        ndtri = simulate.special.ndtri

        def counting(u):
            points.append(np.size(u))
            return ndtri(u)

        monkeypatch.setattr(simulate.special, "ndtri", counting)
        res = run(myopic_config(uniform, reward_mode="stochastic", noise_per_option=True,
                                replications=300, master_seed=8))
        assert sum(points) == round(300 * 5 * res.exploration_slots_mean)

    def test_heterogeneous_reward_flat_after_exploration(self, uniform):
        # a shared option is appraised once per agent: once exploration has
        # stopped nothing new is offered, so the per-slot reward stays put
        # instead of creeping to the 1.0 clip through repeated appraisals
        cfg = myopic_config(uniform, horizon=200, schedule=CommSchedule.centralized(200),
                            reward_mode="heterogeneous", pref_sd=0.3,
                            replications=4096, master_seed=0)
        reward = run(cfg).per_slot_mean_reward
        assert abs(reward[200] - reward[50]) < 1e-3
        assert reward[200] < 0.95


class TestTrajectoryCompare:
    def test_identical_configs_identical_series(self, uniform):
        cfg = myopic_config(uniform, replications=300, master_seed=21)
        a, b = trajectory_compare(cfg, cfg)
        assert np.array_equal(a.per_slot_mean_reward, b.per_slot_mean_reward)

    def test_mismatched_shapes_rejected(self, uniform):
        a = myopic_config(uniform)
        b = myopic_config(uniform, n_agents=4)
        with pytest.raises(ConfigError):
            trajectory_compare(a, b)

    def test_shared_option_streams(self, uniform):
        # same seed, different schedule: slot-0 draws are identical
        a = myopic_config(uniform, replications=64, master_seed=13)
        sched = CommSchedule(20, ((0, 5),))
        b = myopic_config(uniform, schedule=sched, replications=64, master_seed=13)
        ra, rb = trajectory_compare(a, b)
        assert ra.per_slot_mean_reward[0] == pytest.approx(rb.per_slot_mean_reward[0], abs=1e-12)

    def test_hotel_trajectory_mechanism_dominates(self, hotel_dist):
        # one-time reveal at slot 4 vs always-open, T=80, N=30, 500 paired runs:
        # the mechanism's per-slot curve accumulates more area
        from commgate.nonmyopic import solve_centralized_nonmyopic

        T, N, T1 = 80, 30, 4
        seq = solve_one_time(hotel_dist, N, T, T1)
        cent = solve_centralized_nonmyopic(hotel_dist, N, T)
        mech_cfg = SimConfig(
            dist=hotel_dist, n_agents=N, horizon=T,
            schedule=CommSchedule.one_time(T, T1), agent_kind="nonmyopic",
            thresholds=seq, replications=500, master_seed=321,
        )
        cent_cfg = SimConfig(
            dist=hotel_dist, n_agents=N, horizon=T,
            schedule=CommSchedule.centralized(T), agent_kind="nonmyopic",
            thresholds=cent, replications=500, master_seed=321,
        )
        r_mech, r_cent = trajectory_compare(mech_cfg, cent_cfg)
        assert r_mech.per_slot_mean_reward.sum() > r_cent.per_slot_mean_reward.sum()
        # well before the reveal the mechanism already earns more per slot
        assert r_mech.per_slot_mean_reward[T1 - 1] > r_cent.per_slot_mean_reward[T1 - 1]

    def test_csv_with_config_header(self, uniform, tmp_path):
        cfg = myopic_config(uniform, replications=10, master_seed=2)
        res = run(cfg)
        out = tmp_path / "run.csv"
        res.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "t,mean_reward_per_agent,stderr"
        assert len(lines) == 2 + 21
