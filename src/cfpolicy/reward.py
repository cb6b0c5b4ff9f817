"""Hand-crafted clinical reward: mortality terms plus MAP/SBP shaping.

Rewards operate in raw physiological units; normalized states must be
mapped back through the cohort's NormStats first. Boundary conventions:
MAP 60 and 80 are inside the normal band (the hypotension rule is strict
MAP < 60); the hypertensive crisis requires strictly SBP > 180.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import FeatureSchema, PatientTrajectory
from .kernels import discounted_returns
from .preprocess import NormStats, invert_norm_feature


@dataclass(frozen=True)
class RewardFn:
    terminal_survival: float = 1.0
    terminal_death: float = -1.0
    intermediate_death: float = -1.0
    hypo_penalty: float = -0.05
    hyper_penalty: float = -0.05
    normal_map_bonus: float = 0.05
    map_low: float = 60.0
    map_high: float = 80.0
    sbp_crisis: float = 180.0

    def __post_init__(self):
        if not (self.hypo_penalty <= 0 and self.hyper_penalty <= 0
                and self.intermediate_death <= 0 and self.terminal_death <= 0):
            raise ValueError("penalties must be nonpositive")
        if not (self.normal_map_bonus >= 0 and self.terminal_survival >= 0):
            raise ValueError("bonuses must be nonnegative")
        if not self.map_low < self.map_high:
            raise ValueError("map_low must be below map_high")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_json(cls, obj: dict) -> "RewardFn":
        return cls(**obj)


def step_reward(fn: RewardFn, map_mmhg: float, sbp_mmhg: float,
                died_now: bool, is_terminal: bool, alive_at_end: bool) -> float:
    """Hemodynamic term plus mortality term for one timestep.

    Overlapping hemodynamic conditions are additive; the paper states no
    precedence between the MAP band and the SBP crisis.
    """
    if not (np.isfinite(map_mmhg) and np.isfinite(sbp_mmhg)):
        raise ValueError("MAP/SBP must be finite")
    r = 0.0
    if map_mmhg < fn.map_low:
        r += fn.hypo_penalty
    elif map_mmhg <= fn.map_high:
        r += fn.normal_map_bonus
    if sbp_mmhg > fn.sbp_crisis:
        r += fn.hyper_penalty
    if is_terminal:
        r += fn.terminal_survival if alive_at_end else fn.terminal_death
    elif died_now:
        r += fn.intermediate_death
    return r


def trajectory_rewards(fn: RewardFn, traj: PatientTrajectory,
                       schema: FeatureSchema, stats: NormStats | None = None) -> np.ndarray:
    """Per-timestep rewards; de-normalizes MAP/SBP when stats are given."""
    i_map, i_sbp = schema.index("mean_bp"), schema.index("sbp")
    map_col = traj.states[:, i_map]
    sbp_col = traj.states[:, i_sbp]
    if stats is not None:
        map_col = invert_norm_feature(stats, i_map, map_col)
        sbp_col = invert_norm_feature(stats, i_sbp, sbp_col)
    T = traj.T
    out = np.empty(T)
    for t in range(T):
        out[t] = step_reward(
            fn, float(map_col[t]), float(sbp_col[t]),
            died_now=(traj.mortality_step == t),
            is_terminal=(t == T - 1),
            alive_at_end=traj.outcome_alive)
    return out


def trajectory_return(fn: RewardFn, traj: PatientTrajectory,
                      gamma: float, schema: FeatureSchema,
                      stats: NormStats | None = None) -> float:
    """Discounted return sum_t gamma^t r_t over the trajectory."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    rewards = trajectory_rewards(fn, traj, schema, stats)
    return float(discounted_returns(rewards, gamma)[0])

