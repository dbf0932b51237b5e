import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from commgate import simulate
from commgate.distributions import RewardDistribution
from commgate.errors import ConfigError
from commgate.myopic import welfare_centralized, welfare_schedule
from commgate.nonmyopic import ThresholdSequence, solve_one_time, solve_single_agent, welfare_one_time
from commgate.schedules import CommSchedule
from commgate.simulate import SimConfig, SimState, run, step


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
# them bit-identical; only an announced change of the random stream or of an
# estimator may re-record them.  All were re-recorded when the keyed streams
# moved from Philox to PCG64.
PINNED_RUNS = {
    ("myopic", "deterministic", False): ("0x1.39e0a17dca6fep+5", "f47dd301072a00c5"),
    ("myopic", "stochastic", False): ("0x1.32fbe209d0449p+5", "a1741aa50e06b3b3"),
    ("myopic", "stochastic", True): ("0x1.44b9c375e9957p+5", "3734d2ffeeb7baff"),
    ("myopic", "heterogeneous", False): ("0x1.519b8319965c3p+5", "ac61c16894ded26d"),
    ("nonmyopic", "deterministic", False): ("0x1.40f6920e4ad93p+5", "a3b55c94a0ac58f3"),
    ("nonmyopic", "stochastic", False): ("0x1.3505dc5eef5c3p+5", "40242ada271dc17f"),
    ("nonmyopic", "stochastic", True): ("0x1.4847a26b2956ap+5", "233206a8ff2fad4a"),
    ("nonmyopic", "heterogeneous", False): ("0x1.50890081df98ap+5", "31a204c20ba39651"),
}

# exploration_slots_mean of the per-look pinned runs as float.hex: explorers'
# looks, and so every state, do not depend on whether an exploit is a drawn
# noisy look or enters at its conditional mean
PINNED_PER_LOOK_EXPLORATION = {"myopic": "0x1.16147ae147ae1p+0", "nonmyopic": "0x1.0155555555555p+2"}


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


# solve_one_time(uniform, 5, 20, 4) to four digits: after the share slot the
# thresholds restart at their solo values, so the threshold rises from 0.5764
# at slot 4 to 0.8 at slot 5, where run must test every agent again
RISING = [0.706, 0.6793, 0.6409, 0.5764, 0.8, 0.7948, 0.7891, 0.7829, 0.776, 0.7683,
          0.7597, 0.75, 0.7388, 0.7257, 0.7101, 0.691, 0.6667, 0.634, 0.5858, 0.5]

# Exact outputs, recorded as PINNED_RUNS are, of the slot paths in which run
# tests only the previous slot's explorers: a long idle tail ("idle"), a
# threshold that rises after the share slot ("rising"), and 75 chunks of 8
# replications, each with its own scan.  Keyed (config, mode, per_option,
# _CHUNK), None for the default chunk.
PINNED_SCAN_RUNS = {
    ("idle", "deterministic", False, None): ("0x1.78c563d0cac3ep+7", "833681a074937d43"),
    ("idle", "stochastic", False, None): ("0x1.6f9c65cd44ca6p+7", "35da95a6bd778170"),
    ("idle", "heterogeneous", False, None): ("0x1.97c1a3a8da570p+7", "b3438cf676fbfa26"),
    ("rising", "deterministic", False, None): ("0x1.6cd3822efcd5bp+6", "4ace9fcc59ca356b"),
    ("rising", "stochastic", False, None): ("0x1.5be0d106d31b3p+6", "d3ff5031560dcc9b"),
    ("rising", "heterogeneous", False, 8): ("0x1.78a074e0bb40bp+6", "1fd182cd773491b4"),
}

REWARD_MODES = pytest.mark.parametrize(
    "mode,per_option",
    [("deterministic", False), ("stochastic", False), ("stochastic", True), ("heterogeneous", False)],
    ids=["deterministic", "per_look", "per_option", "heterogeneous"])


def scan_config(name, mode, per_option):
    """The "idle" or "rising" config of ``PINNED_SCAN_RUNS``."""
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


def run_states(config):
    """The state ``run(config)`` leaves its chunk in after every slot."""
    states = []
    advance = simulate._advance

    def recording(state, *args):
        receipt = advance(state, *args)
        states.append(state.copy())
        return receipt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_advance", recording)
        run(config)
    return states


def receipts(config):
    """Every replication's receipts in ``run(config)``, shaped (R, T+1, N)."""
    calls = []
    advance = simulate._advance

    def recording(*args):
        receipt = advance(*args)
        calls.append(receipt.copy())
        return receipt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_advance", recording)
        run(config)
    slots = config.horizon + 1  # run advances a chunk through every slot, chunk by chunk
    return np.concatenate([np.stack(calls[i : i + slots], axis=1)
                           for i in range(0, len(calls), slots)])


def assert_chunk_independent(config):
    # replication r's whole receipt row is the same at R and 2R, and with
    # chunks capped by _CHUNK or by the byte budget (R = 10: partial chunks),
    # also at chunk sizes that are not a multiple of 4
    R, N = config.replications, config.n_agents
    full = receipts(replace(config, replications=2 * R))
    assert np.array_equal(receipts(config), full[:R])
    for name, value, rows in (("_CHUNK", 8, 8), ("_CHUNK", 7, 7),
                              ("_CHUNK_BYTES", 9 * N * simulate._AGENT_BYTES, 9)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, name, value)
            assert simulate._chunk_rows(N) == rows
            assert np.array_equal(receipts(config), full[:R]), name
            assert np.array_equal(receipts(replace(config, replications=2 * R)), full), name


def clipped_normal_mean(b, sd):
    """``E[clip(b + sd Z, 0, 1)]`` by quadrature, split where the clip bends."""
    pdf = lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi)  # noqa: E731
    lo, hi = -b / sd, (1 - b) / sd  # the clip bends here; pdf is 0 in double past 40
    tol = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    mid = integrate.quad(lambda z: (b + sd * z) * pdf(z), max(lo, -40), min(hi, 40), **tol)[0]
    return mid + integrate.quad(pdf, hi, math.inf, **tol)[0]


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

    def test_negative_seed(self, uniform):
        with pytest.raises(ConfigError, match="master_seed"):
            myopic_config(uniform, master_seed=-1)


    def test_agents_beyond_memory_budget(self, uniform):
        budget = simulate._CHUNK_BYTES // (4 * simulate._AGENT_BYTES)
        myopic_config(uniform, n_agents=budget)
        for n in (budget + 1, 200_000):
            with pytest.raises(ConfigError, match="memory budget"):
                myopic_config(uniform, n_agents=n)

    @pytest.mark.parametrize("T,windows", [
        (10, ()), (10, ((0, 4), (5, 6))), (10, ((0, 9), (10, 1))), (10, ((0, 11),)),
        (10, ((2, 3), (6, 5))), (10, ((0, 3), (5, 2), (8, 2))), (1, ()), (1, ((0, 1),)),
    ])
    def test_reveal_slot_is_last_open_slot_before_horizon(self, T, windows):
        schedule = CommSchedule(T, windows)
        useful = [t for t in schedule.open_slots() if t <= T - 1]
        assert simulate._reveal_slot(schedule) == (useful[-1] if useful else None)


class TestStep:
    @pytest.mark.parametrize("kind,mode,per_option", list(PINNED_RUNS))
    def test_step_chain_is_run(self, kind, mode, per_option, monkeypatch):
        # step reads run's keyed streams, so a chain of steps through every
        # slot ends in the state that run leaves its one chunk in
        config = pinned_config(kind, mode, per_option)
        assert simulate._chunk_rows(config.n_agents) >= config.replications
        final = []
        advance = simulate._advance

        def recording(state, *args):
            receipt = advance(state, *args)
            final[:] = [state.copy()]
            return receipt

        monkeypatch.setattr(simulate, "_advance", recording)
        run(config)
        monkeypatch.undo()
        state = SimState.initial(config.replications, config.n_agents)
        for t in range(config.horizon + 1):
            state = step(state, t, config)
        for name in ("m", "best_base", "best_opt", "explored"):
            assert np.array_equal(getattr(state, name), getattr(final[0], name)), name

    @pytest.mark.parametrize("name", ["idle", "rising"])
    @REWARD_MODES
    def test_step_chain_is_run_slot_by_slot(self, name, mode, per_option):
        # run tests only the previous slot's explorers unless the threshold
        # rose, step tests every agent: their states agree after every slot
        config = scan_config(name, mode, per_option)
        assert simulate._chunk_rows(config.n_agents) >= config.replications
        states = run_states(config)
        state = SimState.initial(config.replications, config.n_agents)
        for t, want in enumerate(states):
            state = step(state, t, config)
            for field in ("m", "best_base", "best_opt", "explored", "exploit"):
                assert np.array_equal(getattr(state, field), getattr(want, field)), (t, field)
        if name == "rising":
            # agents that did not explore at the share slot explore after it
            looked = [b.explored - a.explored for a, b in zip(states[3:], states[4:])]
            assert np.any((looked[1] > 0) & (looked[0] == 0))

    def test_rising_thresholds_are_solved(self, uniform):
        got = solve_one_time(uniform, 5, 20, 4).values
        assert np.allclose(got, RISING, rtol=0, atol=5e-5)

    @pytest.mark.parametrize("schedule",
                             [CommSchedule.centralized(20), CommSchedule(20, ((1, 3), (8, 2)))],
                             ids=["centralized", "two_windows"])
    @REWARD_MODES
    def test_beliefs_never_fall(self, uniform, schedule, mode, per_option):
        # run's explorer scan rests on this: an explore keeps the larger
        # value, and a pooled or appraised share adopts only larger ones
        cfg = myopic_config(uniform, schedule=schedule, reward_mode=mode,
                            noise_per_option=per_option, noise_sd=0.3, pref_sd=0.2, master_seed=5)
        state = SimState.initial(512, 5)
        for t in range(21):
            before = state.m.copy()
            state = step(state, t, cfg)
            assert np.all(state.m >= before), t

    def test_single_agent_monotone_state(self, uniform):
        cfg = myopic_config(uniform, n_agents=1)
        state = SimState.initial(64, 1)
        prev = state.m.copy()
        for t in range(21):
            state = step(state, t, cfg)
            assert np.all(state.m >= prev)
            prev = state.m.copy()

    def test_myopic_open_slot_pools_states(self, uniform):
        cfg = myopic_config(uniform)
        state = SimState.initial(128, 5)
        state = step(state, 0, cfg)
        assert np.allclose(state.m, state.m[:, :1])

    def test_nonmyopic_withholds_before_share_slot(self, uniform):
        T, T1 = 10, 6
        seq = solve_one_time(uniform, 5, T, T1)
        cfg = SimConfig(dist=uniform, n_agents=5, horizon=T,
                        schedule=CommSchedule.one_time(T, T1), agent_kind="nonmyopic",
                        thresholds=seq, replications=1, master_seed=0)
        state = SimState.initial(256, 5)
        for t in range(T1):
            state = step(state, t, cfg)
        # everyone has a distinct private state: no pooling happened
        assert np.all(np.ptp(state.m, axis=1) > 0)
        state = step(state, T1, cfg)
        assert np.allclose(state.m, state.m[:, :1])

    def test_option_ids_unique_within_run(self, uniform):
        cfg = myopic_config(uniform, n_agents=3)
        state = SimState.initial(16, 3)
        for t in range(21):
            state = step(state, t, cfg)
        # ids encode (slot, agent): the same id can only be held via sharing,
        # and every agent has explored and holds an option
        assert np.all(state.explored >= 1)
        assert np.all(state.best_opt >= 0)

    def test_stochastic_rewards_clamped(self, uniform):
        cfg = myopic_config(uniform, reward_mode="stochastic", noise_sd=0.5)
        state = SimState.initial(512, 5)
        for t in range(5):
            state = step(state, t, cfg)
        assert np.all(state.m >= 0.0) and np.all(state.m <= 1.0)

    @pytest.mark.parametrize("sd", [1e-3, 0.1, 5.0, 1e6])
    def test_look_mean_matches_quadrature(self, sd):
        b = np.array([0.0, 0.3, 0.999, 1.0])
        got = simulate._look_mean(b.copy(), sd, np.empty(4), np.empty(4))
        want = [clipped_normal_mean(x, sd) for x in b]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_look_mean_at_extreme_noise(self):
        # no noise, or noise below any reward's resolution, returns b itself;
        # overwhelming noise clips to 0 or 1 with even odds
        b = np.array([0.0, 0.3, 1.0])
        for sd in (0.0, 5e-324):
            assert np.array_equal(simulate._look_mean(b.copy(), sd, np.empty(3), np.empty(3)), b)
        huge = simulate._look_mean(b.copy(), 1e300, np.empty(3), np.empty(3))
        assert np.allclose(huge, 0.5, rtol=0, atol=1e-15)

    def test_exploit_means_follow_best_base(self, uniform):
        # the stored means are updated only for new holdings and share
        # adopters, yet equal the mean at every agent's best_base after each slot
        T, sd = 20, 0.3
        cfg = myopic_config(uniform, horizon=T, schedule=CommSchedule(T, ((1, 3), (8, 2))),
                            reward_mode="stochastic", noise_sd=sd, master_seed=1)
        state = SimState.initial(1000, 5)
        for t in range(T + 1):
            state = step(state, t, cfg)
            scratch = [np.empty_like(state.m) for _ in range(2)]
            fresh = simulate._look_mean(state.best_base.copy(), sd, *scratch)
            assert np.allclose(state.exploit, fresh, rtol=0, atol=1e-15), t

    def test_exploit_of_nothing_receives_mean_look(self, uniform):
        # a zero threshold makes agents that hold nothing exploit: each
        # receives the mean of a noisy look at base 0, and nothing is drawn
        T, sd = 6, 0.3
        seq = ThresholdSequence(T, T - 1, np.zeros(T), np.zeros(T))
        cfg = SimConfig(dist=uniform, n_agents=3, horizon=T, schedule=CommSchedule.centralized(T),
                        agent_kind="nonmyopic", thresholds=seq, reward_mode="stochastic",
                        noise_sd=sd)
        state = SimState.initial(2, 3)

        def no_draw(purpose):
            pytest.fail(f"slot drew purpose {purpose}")

        receipt = simulate._advance(state, 1, cfg, False, -1, no_draw, simulate._Scan())
        assert np.allclose(receipt, clipped_normal_mean(0.0, sd), rtol=0, atol=1e-12)
        assert np.array_equal(state.exploit, receipt)
        assert not state.m.any() and not state.explored.any()

    def test_heterogeneous_share_is_personal_appraisal(self, uniform):
        # after pooling, each agent holds a value she could actually have
        # appraised: at least her own find, at most the best base plus offset
        cfg = myopic_config(uniform, reward_mode="heterogeneous", pref_sd=0.2)
        state = SimState.initial(2048, 5)
        before = None
        for t in range(3):
            before = state.m.copy()
            state = step(state, t, cfg)
            assert np.all(state.m >= before - 1e-12)  # appraisals never degrade beliefs
        assert np.all(state.m <= 1.0)
        # the per-replication best base propagates to adopters
        assert np.all(state.best_base <= 1.0)

    def test_heterogeneous_share_without_discovery_is_inert(self, uniform, monkeypatch):
        # appraisals are fixed per (agent, option): a share slot that follows
        # another with nothing found in between changes nobody's holding and
        # opens no stream at all
        cfg = myopic_config(uniform, reward_mode="heterogeneous", pref_sd=0.2, master_seed=7)
        state = step(SimState.initial(2048, 5), 0, cfg)
        keep = np.all(state.m >= uniform.mean(), axis=1)  # nobody explores at t=1
        assert keep.sum() > 100
        state = SimState(state.m[keep], state.best_base[keep], state.best_opt[keep],
                         state.explored[keep])
        opened = []
        keyed = simulate._keyed

        def recording(seed, skip, *key):
            opened.append(key)
            return keyed(seed, skip, *key)

        monkeypatch.setattr(simulate, "_keyed", recording)
        after = step(state, 1, cfg)
        assert opened == []
        for name in ("m", "best_base", "best_opt", "explored"):
            assert np.array_equal(getattr(after, name), getattr(state, name)), name

    def test_heterogeneous_share_memory_is_bounded(self, uniform):
        # one share step at N=200 appraises 256 x 200 x 200 pairs; the
        # appraisals are filled in blocks, not as one (R, N, N) array
        cfg = myopic_config(uniform, n_agents=200, reward_mode="heterogeneous", pref_sd=0.3,
                            master_seed=3)
        state = SimState.initial(256, 200)
        tracemalloc.start()
        try:
            state = step(state, 0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(state.best_opt >= 0)
        assert peak < 48 * 2**20


    def test_heterogeneous_share_buffer_bounded_at_large_n(self, uniform):
        # at N = 2000 one replication's (recipient, option) appraisals alone
        # are 32 MB; they are filled in blocks of recipients instead
        cfg = myopic_config(uniform, n_agents=2000, reward_mode="heterogeneous", pref_sd=0.3,
                            master_seed=3)
        state = SimState.initial(4, 2000)
        tracemalloc.start()
        try:
            state = step(state, 0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(state.best_opt >= 0)
        assert peak < 16 * 2**20

    def test_heterogeneous_share_blocks_keep_the_stream(self, uniform, monkeypatch):
        # blocks of a few recipients draw the appraisals in the same order as
        # blocks of whole replications, so the outcome is the same
        cfg = myopic_config(uniform, n_agents=7, reward_mode="heterogeneous", pref_sd=0.3,
                            master_seed=5)
        start = SimState.initial(6, 7)
        whole = step(start, 0, cfg)
        for share_bytes in (8 * 7 * 3, 8 * 7 * 7 * 2 - 8):  # 3 recipients; 1 replication
            monkeypatch.setattr(simulate, "_SHARE_BYTES", share_bytes)
            part = step(start, 0, cfg)
            for name in ("m", "best_base", "best_opt", "explored"):
                assert np.array_equal(getattr(part, name), getattr(whole, name)), name


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
        # stream alone, so they match exactly between runs of 3 and 7, and
        # between chunkings
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
        monkeypatch.undo()
        assert_chunk_independent(myopic_config(uniform, replications=10, master_seed=4))

    @pytest.mark.parametrize("per_option", [False, True], ids=["per_look", "per_option"])
    def test_stochastic_receipts_do_not_depend_on_chunking(self, uniform, per_option):
        # noise quantiles are keyed by (seed, purpose, slot) like the options;
        # the blocked window keeps agents exploring past the first share
        assert_chunk_independent(myopic_config(
            uniform, schedule=CommSchedule(20, ((1, 6),)), reward_mode="stochastic",
            noise_sd=0.3, noise_per_option=per_option, replications=10, master_seed=4))

    def test_keyed_stream_known_answer(self):
        # the first doubles of the slot-7 option stream of seed 5, whole and
        # skipped 13 draws in; any change of generator, keying or double
        # conversion is an announced change of every simulated output
        whole = [x.hex() for x in simulate._keyed(5, 0, 0, 7).random(3)]
        assert whole == ["0x1.c43a84a905bfep-2", "0x1.0eec0092571a7p-1", "0x1.1f1af3f381b1fp-1"]
        skipped = [x.hex() for x in simulate._keyed(5, 13, 0, 7).random(3)]
        assert skipped == ["0x1.36c022f4f803ap-1", "0x1.b1d1e24b958d0p-3", "0x1.40f3928cdafefp-1"]

    def test_keyed_stream_skips_draws(self):
        # a chunk starting at replication r0 skips r0 * N draws, one per
        # double: its draws continue the slot's stream, key (seed, 0, 7)
        whole = simulate._keyed(5, 0, 0, 7).random(40)
        assert np.array_equal(simulate._keyed(5, 13, 0, 7).random(27), whole[13:])
        assert not np.array_equal(simulate._keyed(5, 0, 1, 7).random(40), whole)

    def test_keyed_spans_never_overlap(self, uniform, monkeypatch):
        # a heterogeneous run in chunks of 7, 7 and 3 draws options,
        # preference offsets and share appraisals; each draw reads the span
        # [skip, skip + rows * N) of its keyed stream, a share generator its
        # stream from the start, and no two spans of one key overlap
        made = []
        keyed, keyed_draw = simulate._keyed, simulate._keyed_draw

        def recording_keyed(seed, skip, *key):
            made.append([key, skip])
            return keyed(seed, skip, *key)

        def recording_draw(seed, skip, shape, t, chunk, purpose):
            out = keyed_draw(seed, skip, shape, t, chunk, purpose)  # opens one stream via _keyed
            made[-1].append(math.inf if purpose == simulate._SHARE else out.size)
            return out

        monkeypatch.setattr(simulate, "_keyed", recording_keyed)
        monkeypatch.setattr(simulate, "_keyed_draw", recording_draw)
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        run(myopic_config(uniform, reward_mode="heterogeneous", pref_sd=0.2,
                          replications=17, master_seed=6))
        spans = {}
        for key, skip, size in made:
            spans.setdefault(key, []).append((skip, skip + size))
        assert {(key[0], len(key)) for key in spans} == {(0, 2), (1, 2), (2, 3)}  # option, aux, share
        assert {key[2] for key in spans if key[0] == simulate._SHARE} == {0, 1, 2}
        assert max(len(span) for span in spans.values()) == 3  # a slot drawn by every chunk
        for key, span in spans.items():
            span.sort()
            for (_, end), (start, _) in zip(span, span[1:]):
                assert end <= start, key

    def test_memory_does_not_grow_with_horizon(self, uniform):
        # only one slot's (rows, N) draws are live; a whole-horizon (R, T+1, N)
        # option pre-draw alone would hold 80 MiB here at T = 50.  Per-look
        # noise holds one more state array, the exploit means.
        for mode in ("deterministic", "stochastic"):
            peaks = []
            for T in (50, 200):
                cfg = myopic_config(uniform, n_agents=200, horizon=T, reward_mode=mode,
                                    schedule=CommSchedule.centralized(T), replications=1024)
                tracemalloc.start()
                try:
                    run(cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 2**16, mode
            assert peaks[0] < 24 * 2**20, mode

    def test_memory_bounded_by_budget_at_ten_thousand_agents(self, uniform):
        N = 10_000
        cfg = myopic_config(uniform, n_agents=N, horizon=50, schedule=CommSchedule.centralized(50),
                            replications=256)
        assert simulate._chunk_rows(N) < 256  # several chunks
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * simulate._CHUNK_BYTES

    @pytest.mark.parametrize("mode,per_option", [("deterministic", False), ("stochastic", False),
                                                 ("stochastic", True), ("heterogeneous", False)],
                             ids=["deterministic", "per_look", "per_option", "heterogeneous"])
    def test_slot_step_peak_within_agent_bytes(self, hotel_dist, monkeypatch, mode, per_option):
        # the chunk budget takes a slot step to hold at most _AGENT_BYTES per
        # (replication, agent); slot 0, where every agent explores and the
        # empirical prior maps every quantile, is the largest
        R, N, T = 4096, 50, 2
        assert simulate._chunk_rows(N) == R  # one chunk
        peaks = []
        advance = simulate._advance

        def tracing(*args):
            tracemalloc.reset_peak()
            receipt = advance(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return receipt

        monkeypatch.setattr(simulate, "_advance", tracing)
        cfg = SimConfig(dist=hotel_dist, n_agents=N, horizon=T, schedule=CommSchedule.centralized(T),
                        reward_mode=mode, noise_per_option=per_option, replications=R,
                        master_seed=1)
        tracemalloc.start()
        try:
            run(cfg)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= simulate._AGENT_BYTES * R * N, max(peaks) / (R * N)

    @pytest.mark.parametrize("kind,mode,per_option", list(PINNED_RUNS))
    def test_outputs_pinned(self, kind, mode, per_option):
        res = run(pinned_config(kind, mode, per_option))
        digest = hashlib.sha256(res.per_slot_mean_reward.astype("<f8").tobytes()).hexdigest()[:16]
        assert (res.total_welfare_mean.hex(), digest) == PINNED_RUNS[kind, mode, per_option]

    @pytest.mark.parametrize("name,mode,per_option,chunk", list(PINNED_SCAN_RUNS))
    def test_scan_paths_pinned(self, name, mode, per_option, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
        res = run(scan_config(name, mode, per_option))
        digest = hashlib.sha256(res.per_slot_mean_reward.astype("<f8").tobytes()).hexdigest()[:16]
        want = PINNED_SCAN_RUNS[name, mode, per_option, chunk]
        assert (res.total_welfare_mean.hex(), digest) == want

    @pytest.mark.parametrize("kind", ["myopic", "nonmyopic"])
    def test_per_look_exploration_pinned(self, kind):
        res = run(pinned_config(kind, "stochastic", False))
        assert res.exploration_slots_mean.hex() == PINNED_PER_LOOK_EXPLORATION[kind]

    @pytest.mark.parametrize("kind", ["myopic", "nonmyopic"])
    def test_noiseless_per_look_is_deterministic(self, kind):
        # at noise_sd = 0 a look, drawn or at its mean, is the base reward
        res = run(replace(pinned_config(kind, "stochastic", False), noise_sd=0.0))
        digest = hashlib.sha256(res.per_slot_mean_reward.astype("<f8").tobytes()).hexdigest()[:16]
        assert (res.total_welfare_mean.hex(), digest) == PINNED_RUNS[kind, "deterministic", False]

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

    @pytest.mark.parametrize("mode,per_option", [("deterministic", False), ("stochastic", False),
                                                 ("stochastic", True), ("heterogeneous", False)],
                             ids=["deterministic", "per_look", "per_option", "heterogeneous"])
    def test_idle_slots_draw_nothing(self, uniform, monkeypatch, mode, per_option):
        # a (chunk, slot) opens the option stream only if some agent explores,
        # and outside deterministic mode the aux stream too; per-look exploits
        # receive their conditional mean and draw nothing
        slots = []
        advance, keyed = simulate._advance, simulate._keyed

        def recording_advance(state, t, config, *args):
            slots.append((t, bool(np.any(state.m < simulate._threshold_for(config, t))), []))
            return advance(state, t, config, *args)

        def recording_keyed(seed, skip, purpose, t, *chunk):
            slots[-1][2].append((purpose, t))
            return keyed(seed, skip, purpose, t, *chunk)

        monkeypatch.setattr(simulate, "_advance", recording_advance)
        monkeypatch.setattr(simulate, "_keyed", recording_keyed)
        monkeypatch.setattr(simulate, "_CHUNK", 8)
        run(myopic_config(uniform, reward_mode=mode, noise_per_option=per_option, noise_sd=0.1,
                          replications=64, master_seed=2))
        assert len(slots) == 8 * 21
        active = [t for t, explores, _ in slots if explores and t > 0]
        assert 0 < len(active) < 8 * 20  # some chunks idle at some slots, not all
        for t, explores, opened in slots:
            assert all(s == t for _, s in opened)
            assert opened.count((simulate._OPTION, t)) == explores
            want_aux = explores and mode != "deterministic"
            assert opened.count((simulate._AUX, t)) == want_aux

    @REWARD_MODES
    def test_idle_share_slot_receives_what_was_held(self, uniform, mode, per_option):
        # sharing is blocked to slot 4, in which an agent explores; at slot 5
        # nobody explores, yet the share changes the state: slot 5 receives
        # what was held before the share and slot 6, idle too, what it left
        T = 8
        cfg = myopic_config(uniform, n_agents=2, horizon=T, schedule=CommSchedule(T, ((0, 5),)),
                            reward_mode=mode, noise_per_option=per_option, pref_sd=0.2,
                            master_seed=16)
        reward = run(cfg).per_slot_mean_reward
        state = SimState.initial(1, 2)
        for t in range(T + 1):
            before, state = state, step(state, t, cfg)
            assert np.array_equal(state.explored, before.explored) == (t > 4), t
            if t in (5, 6):
                held = before.m if before.exploit is None else before.exploit
                assert reward[t] == held.sum() / 2, t
        assert reward[5] != reward[6]

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
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.per_slot_mean_reward, b.per_slot_mean_reward)

    def test_shared_option_streams(self, uniform):
        # same seed, different schedule: slot-0 draws are identical
        a = myopic_config(uniform, replications=64, master_seed=13)
        sched = CommSchedule(20, ((0, 5),))
        b = myopic_config(uniform, schedule=sched, replications=64, master_seed=13)
        ra, rb = run(a), run(b)
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
        r_mech, r_cent = run(mech_cfg), run(cent_cfg)
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
