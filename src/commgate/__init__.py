"""Communication-gating mechanism design for multi-agent exploration.

Analytic welfare calculus and schedule/timing optimizers for platforms that
regulate information sharing among self-interested exploring agents, paired
with a Monte-Carlo simulator that serves as an independent oracle for every
closed-form expression.
"""

from .distributions import RewardDistribution, integrate
from .schedules import CommSchedule
from .myopic import (
    MyopicWelfareReport,
    approximation_ratio,
    deviation_condition,
    optimize_exact,
    optimize_single_window,
    scan_single_window,
    welfare_centralized,
    welfare_schedule,
)
from .nonmyopic import (
    BeliefCdf,
    ThresholdSequence,
    optimize_comm_time,
    solve_centralized_nonmyopic,
    solve_one_time,
    solve_single_agent,
    welfare_one_time,
)
from .simulate import SimConfig, SimResult, SimState, run, step
from .dataset import RatingsTable, estimate_pref_sd, fit_reward_cdf, load_ratings
from . import errors

__version__ = "0.1.0"

__all__ = [
    "RewardDistribution",
    "integrate",
    "CommSchedule",
    "MyopicWelfareReport",
    "welfare_centralized",
    "welfare_schedule",
    "deviation_condition",
    "optimize_single_window",
    "scan_single_window",
    "optimize_exact",
    "approximation_ratio",
    "ThresholdSequence",
    "BeliefCdf",
    "solve_single_agent",
    "solve_centralized_nonmyopic",
    "solve_one_time",
    "welfare_one_time",
    "optimize_comm_time",
    "SimConfig",
    "SimResult",
    "SimState",
    "run",
    "step",
    "RatingsTable",
    "load_ratings",
    "fit_reward_cdf",
    "estimate_pref_sd",
    "errors",
]
