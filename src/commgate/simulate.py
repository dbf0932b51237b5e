"""Monte-Carlo simulator of the exploration game under gated sharing.

The simulator is the independent oracle for every closed-form expression in
the analytic modules, so it implements the game mechanics directly and
nothing else: agents hold their best-known reward, explore a fresh option
whenever it sits below their slot threshold, and pool states at the end of
each slot where sharing is allowed (myopic agents share at every open slot;
forward-looking agents only at the last open slot before the horizon).

Options form an unbounded stream of i.i.d. draws from the prior, so option
identities never collide.  Replications are vectorized in chunks, and every
dense draw comes from a PCG64 stream keyed by ``(master_seed, purpose,
slot)``: one purpose holds the option quantiles and one the observation
noise or preference offsets, each laid out replication-major, so
replication ``r`` reads draws ``r*N .. r*N+N-1`` of the slot's stream and a
chunk jumps straight to its first row.  Replication ``r``'s receipts
therefore depend neither on the replication count nor on the chunk size, in
deterministic and in stochastic mode (per-look or per-option noise): the
first ``R`` replications of a longer run are exactly a run of ``R``.

A slot costs what changes in it.  A chunk draws a slot's option quantiles,
and its noise or preference quantiles, only when one of its agents explores,
and updates the state through the flat index of its explorers.  Beliefs
never fall, so while the threshold does not rise the agents that can explore
are among the previous slot's explorers, and ``run`` tests only those.  A
slot in which nobody explores draws nothing, makes no copy and costs O(R):
its receipt is the state's own array, and a run of such slots reuses one
per-replication sum.  Since every stream is keyed by slot, a skipped draw
moves no other draw.

Under per-look noise an exploit is a fresh noisy look at the option held,
but that look never feeds back into the state, so an exploiting agent
receives its conditional mean ``E[clip(b + noise_sd * Z, 0, 1)]`` at the
option's base reward ``b`` instead of a draw (Rao-Blackwellisation: the
expected welfare is the same and its variance is no larger).  The mean is
stored per agent and recomputed only where an agent takes a new option.
Explorers still observe with drawn noise, so states and exploration counts
are those of fully noisy looks; reported standard errors are those of this
estimator.

Heterogeneous mode depends on the chunking.  Shared-option appraisals have
their own purpose, keyed by ``(master_seed, purpose, slot, chunk)``, and
fill a chunk's (replication, recipient, option) array padded to the chunk's
largest offer count with ziggurat normals, so they depend on how
replications fall into chunks.  An agent's appraisal of an option is fixed:
an agent appraises an option it explores when it observes it, and an option
another agent shares the first time the option is offered to it.

A chunk holds at most ``_CHUNK`` replications and at most what fits the
byte budget ``_CHUNK_BYTES`` at ``_AGENT_BYTES`` per (replication, agent),
so memory is O(rows * N) and does not grow with the horizon; a config whose
4-replication chunk would pass the budget is refused.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import partial

import numpy as np
from scipy import special

from .distributions import RewardDistribution
from .errors import ConfigError
from .nonmyopic import ThresholdSequence
from .schedules import CommSchedule

__all__ = ["SimConfig", "SimResult", "SimState", "run", "step"]

_CHUNK = 4096  # most replications per chunk
_CHUNK_BYTES = 32 << 20  # working set of one chunk's slot step
# peak bytes a slot step holds per (replication, agent); traced run peak at
# N = 50 on the fitted hotel prior, one 4096-row chunk, at slot 0 where every
# agent explores: 81 B deterministic, 95 B per-look, 81 B per-option noise
# and 90 B heterogeneous
_AGENT_BYTES = 104
_OPTION, _AUX, _SHARE = range(3)  # purposes of the keyed draw streams
_SHARE_BYTES = 1 << 22  # appraisal buffer of one heterogeneous share step
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_MODES = ("deterministic", "stochastic", "heterogeneous")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation experiment."""

    dist: RewardDistribution
    n_agents: int
    horizon: int
    schedule: CommSchedule
    agent_kind: str = "myopic"
    thresholds: ThresholdSequence | None = None
    reward_mode: str = "deterministic"
    noise_sd: float = 0.1
    pref_sd: float = 0.1
    replications: int = 1
    master_seed: int = 0
    noise_per_option: bool = False  # draw observation noise once per option, not per look

    def __post_init__(self):
        if self.n_agents < 1:
            raise ConfigError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.schedule.horizon_T != self.horizon:
            raise ConfigError(
                f"schedule horizon {self.schedule.horizon_T} != config horizon {self.horizon}"
            )
        if self.agent_kind not in ("myopic", "nonmyopic"):
            raise ConfigError(f"agent_kind must be myopic or nonmyopic, got {self.agent_kind!r}")
        if self.agent_kind == "nonmyopic":
            if self.thresholds is None:
                raise ConfigError("nonmyopic agents need a solved ThresholdSequence")
            if self.thresholds.horizon_T != self.horizon:
                raise ConfigError("thresholds horizon does not match config horizon")
        if self.reward_mode not in _MODES:
            raise ConfigError(f"reward_mode must be one of {_MODES}, got {self.reward_mode!r}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not (0 <= self.noise_sd < math.inf and 0 <= self.pref_sd < math.inf):  # NaN fails too
            raise ConfigError("noise_sd and pref_sd must be finite and nonnegative")
        if 4 * self.n_agents * _AGENT_BYTES > _CHUNK_BYTES:
            raise ConfigError(
                f"n_agents={self.n_agents} is beyond the simulator's memory budget: a chunk of 4 "
                f"replications needs {4 * self.n_agents * _AGENT_BYTES / 2**20:.1f} MiB of "
                f"{_CHUNK_BYTES / 2**20:g} MiB (at most {_CHUNK_BYTES // (4 * _AGENT_BYTES)} agents)"
            )

    def describe(self) -> str:
        """Canonical one-line JSON echo of every field but the solved thresholds."""
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "thresholds"}
        echo["dist"] = repr(self.dist)
        echo["schedule"] = json.loads(self.schedule.to_json())
        return json.dumps(echo, sort_keys=True)


@dataclass
class SimState:
    """Vectorized state of a batch of replications (arrays shaped (R, N)).

    ``m`` is each agent's best-known (believed) reward, which is also what
    the agent receives when exploiting it (in heterogeneous mode the agent's
    own fixed appraisal of the option), except under per-look noise, where an
    exploit is a fresh noisy look at ``best_base``, the true base reward of
    the option behind ``m``, and enters at its conditional mean ``exploit``
    (see ``_look_mean``).  ``exploit`` is None outside per-look noise and
    until the first per-look slot fills it from ``best_base``; after that it
    changes only where ``best_base`` does.  ``best_opt`` is the option id
    (slot * N + creator, -1 while unset).  The slot in an id tells a share
    step whether the option is new since the previous share; an agent whose
    ``best_opt`` is -1 has nothing to offer.  Row ``r`` is replication
    ``r`` of one chunk; ``step`` takes the rows as the first chunk's.
    """

    m: np.ndarray
    best_base: np.ndarray
    best_opt: np.ndarray
    explored: np.ndarray
    exploit: np.ndarray | None = None

    @classmethod
    def initial(cls, replications: int, n_agents: int) -> "SimState":
        shape = (replications, n_agents)
        return cls(
            m=np.zeros(shape),
            best_base=np.zeros(shape),
            best_opt=np.full(shape, -1, dtype=np.int64),
            explored=np.zeros(shape, dtype=np.int64),
        )

    def copy(self) -> "SimState":
        return SimState(
            self.m.copy(), self.best_base.copy(), self.best_opt.copy(), self.explored.copy(),
            None if self.exploit is None else self.exploit.copy(),
        )


@dataclass(frozen=True)
class SimResult:
    """Aggregated outcome of a simulation run."""

    per_slot_mean_reward: np.ndarray
    per_slot_stderr: np.ndarray
    total_welfare_mean: float
    total_welfare_stderr: float
    exploration_slots_mean: float
    exploration_slots_stderr: float
    config_echo: str = ""

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# {self.config_echo}\n")
            fh.write("t,mean_reward_per_agent,stderr\n")
            for t, (mr, se) in enumerate(zip(self.per_slot_mean_reward, self.per_slot_stderr)):
                fh.write(f"{t},{mr:.12g},{se:.12g}\n")


def _threshold_for(config: SimConfig, t: int) -> float:
    if t == 0:
        return 1.0  # nothing known yet: always explore
    if config.agent_kind == "myopic":
        return config.dist.mean()
    return config.thresholds.threshold_at(t)


def _reveal_slot(schedule: CommSchedule) -> int | None:
    """The last open slot before the horizon, where forward-looking agents
    share (None if every such slot is blocked).  Windows are sorted and
    leave an open slot between them, so the slot before the window that
    holds ``T - 1`` is open."""
    last = schedule.horizon_T - 1
    for start, length in schedule.windows:
        if start <= last < start + length:
            last = start - 1
    return last if last >= 0 else None


def _share_slots(config: SimConfig) -> set[int]:
    if config.agent_kind == "myopic":
        return set(config.schedule.open_slots())
    # forward-looking agents withhold until the last open slot that can
    # still influence anyone's remaining choices
    reveal = _reveal_slot(config.schedule)
    return set() if reveal is None else {reveal}


@dataclass
class _Scan:
    """What a chunk carries from one slot to the next.

    ``explorers`` is the previous slot's explorer flat index (ascending) and
    ``threshold`` that slot's threshold.  Beliefs never fall, so the agents
    below a threshold no higher than it are among those explorers.
    ``explorers`` is None where every agent must be tested: at a chunk's
    first slot and after a slot in which every agent explored, whose index
    is not held.  ``won`` tells whether an explorer has won since the
    previous share slot.  ``settled`` tells whether the state is still
    exactly the previous slot's receipt, and ``repeat`` whether this slot's
    receipt equals the previous one, whose sums then stand.
    """

    explorers: np.ndarray | None = None
    threshold: float = math.nan
    won: bool = False
    settled: bool = False
    repeat: bool = False


def _advance(state: SimState, t: int, config: SimConfig, share_now: bool, last_share: int,
             draw, scan: _Scan) -> np.ndarray:
    """One slot for every replication in the batch; returns received rewards.

    ``draw(purpose)`` gives the slot's (R, N) quantiles of ``_OPTION`` or
    ``_AUX``, or the generator of a heterogeneous share (``_SHARE``), and
    is called only for what the slot needs (see ``_explore``).
    ``last_share`` is the previous share slot (-1 if none).  The state is
    updated in place.  A share is skipped when no agent has improved since
    ``last_share``: every agent then still holds what the last share (or
    the start) left, so pooling cannot change anything; ``scan`` says
    whether one has (see ``_Scan``).
    The receipt of an idle slot is the state's own array, valid until the
    next slot; it is copied only when a share in this slot changes the state.
    """
    receipt = _explore(state, t, config, draw, scan)
    N = state.m.shape[1]
    if not (share_now and N > 1):
        return receipt
    won, scan.won = scan.won, False
    if won:
        if receipt is state.m or receipt is state.exploit:
            receipt = receipt.copy()
        scan.settled = False
        if config.reward_mode == "heterogeneous":
            _share_appraised(state, last_share, config.pref_sd, draw(_SHARE))
        else:
            _share_pooled(state)
    return receipt


def _explore(state: SimState, t: int, config: SimConfig, draw, scan: _Scan) -> np.ndarray:
    """Explore or exploit for one slot; returns received rewards.

    Only ``scan.explorers`` are tested unless the threshold rose (see
    ``_Scan``).  The state is updated through the flat index of the
    explorers.  A slot in which nobody explores draws nothing and returns
    the state's own ``m`` (or ``exploit``).  Option, noise and preference
    quantiles are drawn only when someone explores, and only explorers'
    quantiles are mapped through the prior and ``ndtri``.  Explorers observe
    with noise or their preference offset; an exploit receives ``m``, or
    under per-look noise the conditional mean of a noisy look at
    ``best_base`` (``state.exploit``), which is evaluated only for the agents
    that take a new option, and once for every other agent at the first
    per-look slot.
    """
    N = state.m.shape[1]
    mode = config.reward_mode
    per_look = mode == "stochastic" and not config.noise_per_option
    m = state.m.reshape(-1)  # flat views of the C-contiguous state
    threshold = _threshold_for(config, t)
    if scan.explorers is None or not threshold <= scan.threshold:
        scan.explorers = None  # released before the full scan
        explore = np.flatnonzero(m < threshold)
    else:
        explore = scan.explorers[m[scan.explorers] < threshold]
    scan.explorers = explore if explore.size < m.size else None
    scan.threshold = threshold
    scan.repeat = scan.settled and not explore.size
    scan.settled = not explore.size
    if not explore.size:
        if per_look and state.exploit is None:
            _fill_exploit(state, np.arange(m.size), config.noise_sd)
        return state.exploit if per_look else state.m

    def explorers(purpose):
        return draw(purpose).reshape(-1)[explore]

    base = config.dist.ppf(explorers(_OPTION))
    if mode == "deterministic":
        obs = base
    else:
        # explorers' looks: observation noise (per look, or fixed per option)
        # or the agent's own fixed preference offset
        sd = config.noise_sd if mode == "stochastic" else config.pref_sd
        obs = np.clip(base + sd * special.ndtri(explorers(_AUX)), 0.0, 1.0)

    gain = obs > m[explore]
    won = explore[gain]
    m[won] = obs[gain]
    won_base = base[gain]
    state.best_base.reshape(-1)[won] = won_base
    state.best_opt.reshape(-1)[won] = t * N + won % N
    state.explored.reshape(-1)[explore] += 1
    if won.size:
        scan.won = True
    if per_look and state.exploit is None:
        # winners' means are evaluated below, from their new base
        keep = np.ones(m.size, dtype=bool)
        keep[won] = False
        _fill_exploit(state, np.flatnonzero(keep), config.noise_sd)
    # an explorer receives its look; anyone else's held value did not change
    receipt = (state.exploit if per_look else state.m).copy()
    receipt.reshape(-1)[explore] = obs
    if per_look:
        # base and obs are spent; their heads are the scratch buffers
        n = won.size
        state.exploit.reshape(-1)[won] = _look_mean(won_base, config.noise_sd, base[:n], obs[:n])
    return receipt


def _fill_exploit(state: SimState, agents: np.ndarray, sd: float) -> None:
    """Allocate ``state.exploit`` and fill it at the flat index ``agents``
    with the conditional mean of a look at their ``best_base``."""
    state.exploit = np.empty_like(state.m)
    b = state.best_base.reshape(-1)[agents]
    state.exploit.reshape(-1)[agents] = _look_mean(b, sd, np.empty_like(b), np.empty_like(b))


def _look_mean(b: np.ndarray, sd: float, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """``E[clip(b + sd * Z, 0, 1)]`` for standard normal ``Z``, in place on ``b``.

    For ``b`` in [0, 1] this is ``sd * (g(b/sd) - g((b-1)/sd))`` with
    ``g(x) = x Phi(x) + phi(x)`` the normal partial expectation, exactly
    ``b`` at ``sd = 0``.  It is evaluated as ``b + sd * (h(-b/sd) -
    h((b-1)/sd))`` with ``h = g - phi(0)`` (``g(x) = x + g(-x)``), whose
    absolute error stays near 1e-16 at any ``sd``: at small ``sd`` both
    ``h`` are near ``-phi(0)`` and scaled by ``sd``, at large ``sd`` both are
    O(1/sd).  ``s1`` and ``s2`` are scratch buffers of ``b``'s size.
    """
    if sd == 0:
        return b
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal sd gives x = -inf
        np.divide(b, -sd, out=s1)
        _shifted_partial_expectation(s1, s2)
        s1 *= sd
        s1 += b  # E[max(b + sd Z, 0)]
        np.subtract(b, 1.0, out=s2)
        s2 /= sd
        _shifted_partial_expectation(s2, b)
        s2 *= sd  # E[max(b + sd Z - 1, 0)] - sd phi(0)
        return np.subtract(s1, s2, out=b)


def _shifted_partial_expectation(x: np.ndarray, scratch: np.ndarray) -> None:
    """``h(x) = x Phi(x) + phi(0) expm1(-x^2 / 2) = g(x) - phi(0)``, in place on ``x``."""
    special.ndtr(x, out=scratch)
    scratch *= x
    np.nan_to_num(scratch, copy=False)  # -inf * Phi(-inf) to its limit 0
    np.square(x, out=x)
    x *= -0.5
    np.expm1(x, out=x)
    x *= _INV_SQRT_2PI
    x += scratch


def _share_pooled(state: SimState) -> None:
    """Pooling of common values: every agent adopts its replication's best."""
    rows = np.arange(state.m.shape[0])
    winner = np.argmax(state.m, axis=1)
    adopt = state.m < state.m[rows, winner][:, None]
    for held in (state.m, state.best_base, state.best_opt, state.exploit):
        if held is not None:
            np.copyto(held, held[rows, winner][:, None], where=adopt)


def _share_appraised(state: SimState, last_share: int, pref_sd: float, rng) -> None:
    """Heterogeneous pooling: sharing reveals the options themselves.

    Every recipient appraises each option offered to it with its own
    preference offset and keeps its personal best, so pooling creates a
    variety gain.  Only options found after ``last_share`` are appraised:
    any older option still held was offered at that share, every agent
    appraised it then, and since beliefs never fall it cannot win now.
    Row ``r`` lists its ``counts[r]`` new options in holder order, padded to
    the batch's largest count ``K``; the (recipient, option) appraisals are
    drawn from ``rng`` as one (R, N, K) normal array in C order, filled in
    blocks that fit ``_SHARE_BYTES``: whole replications while one fits,
    else blocks of one replication's recipients.
    """
    R, N = state.m.shape
    new = state.best_opt // N > last_share
    counts = new.sum(axis=1)
    K = int(counts.max())
    if K == 0:
        return
    holder = np.argsort(~new, axis=1, kind="stable")[:, :K]
    offered_base = np.take_along_axis(state.best_base, holder, axis=1)
    offered_opt = np.take_along_axis(state.best_opt, holder, axis=1)
    padding = np.arange(K) >= counts[:, None]
    fit = max(1, _SHARE_BYTES // (8 * K))  # (recipient, option) rows that fit the buffer
    reps, recips = (min(fit // N, R), N) if fit >= N else (1, fit)
    buf = np.empty((reps, recips, K))
    for lo in range(0, R, reps):
        rows = slice(lo, min(lo + reps, R))
        h = holder[rows]
        for i0 in range(0, N, recips):
            cols = slice(i0, min(i0 + recips, N))
            b = buf[: len(h), : cols.stop - i0]
            rng.standard_normal(out=b)
            np.multiply(b, pref_sd, out=b)
            np.add(b, offered_base[rows, None, :], out=b)
            np.clip(b, 0.0, 1.0, out=b)
            own_r, own_k = np.nonzero((h >= i0) & (h < cols.stop))
            b[own_r, h[own_r, own_k] - i0, own_k] = -1.0  # own option: value already known
            np.copyto(b, -1.0, where=padding[rows, None, :])
            k = b.argmax(axis=2)
            value = np.take_along_axis(b, k[:, :, None], axis=2)[:, :, 0]
            held = state.m[rows, cols]
            adopt = value > held
            np.copyto(held, value, where=adopt)
            np.copyto(state.best_base[rows, cols],
                      np.take_along_axis(offered_base[rows], k, axis=1), where=adopt)
            np.copyto(state.best_opt[rows, cols],
                      np.take_along_axis(offered_opt[rows], k, axis=1), where=adopt)


def step(state: SimState, t: int, config: SimConfig) -> SimState:
    """Advance a copy of ``state`` through slot ``t`` on ``run``'s keyed draws.

    The rows of ``state`` are replications ``0 .. R-1`` of ``run``'s first
    chunk, which has come through the schedule's previous share slot.  A
    chain of ``step`` calls from ``SimState.initial(R, N)`` over every slot
    is then ``run`` itself; in heterogeneous mode only for
    ``R <= _chunk_rows(N)``, since share appraisals are keyed per chunk.
    """
    out = state.copy()
    share_at = _share_slots(config)
    last_share = max((s for s in share_at if s < t), default=-1)
    draw = partial(_keyed_draw, config.master_seed, 0, out.m.shape, t, 0)
    # a fresh scan tests every agent; a win since the last share is read off the state
    scan = _Scan(won=bool(out.best_opt.max() // out.m.shape[1] > last_share))
    _advance(out, t, config, t in share_at, last_share, draw, scan)
    return out


def _chunk_rows(n_agents: int) -> int:
    """Replications per chunk: at most ``_CHUNK`` and what fits ``_CHUNK_BYTES``.

    ``SimConfig`` refuses an ``n_agents`` whose 4-replication chunk would
    not fit, so a chunk holds at least 4 replications at the default sizes.
    """
    return min(_CHUNK, _CHUNK_BYTES // (n_agents * _AGENT_BYTES))


def _keyed(seed: int, skip: int, *key: int) -> np.random.Generator:
    """Generator on the PCG64 stream keyed by ``(seed, *key)``, ``skip`` draws in.

    ``advance`` jumps over ``skip`` 64-bit outputs in O(log skip) steps, and
    each ``random()`` double takes one output.  The key is the seed
    sequence's spawn key, appended after the seed's entropy is padded to the
    pool size, so distinct (seed, key) pairs never mix the same entropy,
    whatever the size of the seed.
    """
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    bits.advance(skip)
    return np.random.Generator(bits)


def _keyed_draw(seed: int, skip: int, shape: tuple[int, int], t: int, chunk: int, purpose: int):
    """A chunk's slot-``t`` quantiles of ``purpose``, ``skip`` draws into the
    slot's stream, or its share-appraisal generator (keyed per chunk, not
    skipped)."""
    if purpose == _SHARE:
        return _keyed(seed, 0, _SHARE, t, chunk)
    return _keyed(seed, skip, purpose, t).random(shape)


def run(config: SimConfig) -> SimResult:
    """Execute all replications and aggregate welfare and exploration counts.

    Replications run in chunks of ``_chunk_rows(N)`` (at most 4096, fewer
    where ``N`` rows of ``_AGENT_BYTES`` would pass ``_CHUNK_BYTES``), so
    memory is O(rows * N) whatever the horizon.  At slot ``t`` a chunk
    starting at replication ``r0`` draws its (rows, N) option quantiles from
    the PCG64 stream keyed ``(master_seed, option, t)`` and, outside
    deterministic mode, its noise or preference quantiles from
    ``(master_seed, aux, t)``, both advanced ``r0 * N`` draws to the chunk's
    first row.  A stream is opened only when the slot needs it (see
    ``_advance``): a slot in which no agent of the chunk explores draws
    nothing, makes no copy and costs O(rows), and while the threshold does
    not rise a slot tests only the previous slot's explorers (see
    ``_Scan``).  Skipping a slot's draws moves no other slot's, so replication
    ``r`` receives the same draws for any replication count and chunk size,
    runs that differ only in schedule or reward mode share their option
    draws, and the first ``R`` replications of a longer run match a run of
    ``R`` exactly in deterministic and stochastic mode.  Heterogeneous share
    appraisals come from ``(master_seed, share, t, chunk)`` and depend on the
    chunking.  Under per-look noise exploits enter the welfare at their
    conditional mean (see ``_explore``), so the reported standard errors are
    those of that estimator, not of fully drawn noisy receipts.
    """
    R, N, T = config.replications, config.n_agents, config.horizon
    share_at = _share_slots(config)
    seed = config.master_seed
    rows = _chunk_rows(N)

    slot_sum = np.zeros(T + 1)
    slot_sq = np.zeros(T + 1)
    totals = []
    explored_all = []
    for c, r0 in enumerate(range(0, R, rows)):
        rc = min(rows, R - r0)
        skip = r0 * N
        state = SimState.initial(rc, N)
        scan = _Scan()
        rep_total = np.zeros(rc)
        last_share = -1
        for t in range(T + 1):
            share_now = t in share_at
            draw = partial(_keyed_draw, seed, skip, (rc, N), t, c)
            receipt = _advance(state, t, config, share_now, last_share, draw, scan)
            if share_now:
                last_share = t
            if not scan.repeat:  # else the receipt and its sums are the previous slot's
                rep_sum = receipt.sum(axis=1)
                rep_mean = rep_sum / N
                mean_sum, sq_sum = rep_mean.sum(), (rep_mean**2).sum()
            del receipt  # summed at once, so it is not live during the next slot
            slot_sum[t] += mean_sum
            slot_sq[t] += sq_sum
            rep_total += rep_sum
        totals.append(rep_total)
        explored_all.append(state.explored.mean(axis=1))

    totals = np.concatenate(totals)
    explored = np.concatenate(explored_all)
    slot_mean = slot_sum / R
    slot_var = np.maximum(slot_sq / R - slot_mean**2, 0.0)
    with warnings.catch_warnings():  # one replication: every stderr is undefined, nan
        warnings.simplefilter("ignore", RuntimeWarning)
        slot_se = np.sqrt(slot_var / (R - 1))
        welfare_se = float(totals.std(ddof=1) / np.sqrt(R))
        explored_se = float(explored.std(ddof=1) / np.sqrt(R))
    return SimResult(
        per_slot_mean_reward=slot_mean,
        per_slot_stderr=slot_se,
        total_welfare_mean=float(totals.mean()),
        total_welfare_stderr=welfare_se,
        exploration_slots_mean=float(explored.mean()),
        exploration_slots_stderr=explored_se,
        config_echo=config.describe(),
    )
