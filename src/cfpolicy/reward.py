"""Hand-crafted clinical reward: mortality terms plus MAP/SBP shaping.

Rewards operate in raw physiological units; normalized states must be
mapped back through the cohort's NormStats first. Boundary conventions:
MAP 60 and 80 are inside the normal band (the hypotension rule is strict
MAP < 60); the hypertensive crisis requires strictly SBP > 180.
"""

from __future__ import annotations

import numpy as np

from .cohort import FeatureSchema, PatientTrajectory
from .kernels import discounted_returns
from .preprocess import NormStats, invert_norm_feature

TERMINAL_SURVIVAL, TERMINAL_DEATH, INTERMEDIATE_DEATH = 1.0, -1.0, -1.0
HYPO_PENALTY, HYPER_PENALTY, NORMAL_MAP_BONUS = -0.05, -0.05, 0.05
MAP_LOW, MAP_HIGH, SBP_CRISIS = 60.0, 80.0, 180.0


def step_reward(map_mmhg, sbp_mmhg, died_now, is_terminal, alive_at_end):
    """Hemodynamic term plus mortality term per timestep; scalars or
    broadcastable arrays.

    Overlapping hemodynamic conditions are additive; the paper states no
    precedence between the MAP band and the SBP crisis.
    """
    if not (np.all(np.isfinite(map_mmhg)) and np.all(np.isfinite(sbp_mmhg))):
        raise ValueError("MAP/SBP must be finite")
    mortality = np.where(is_terminal,
                         np.where(alive_at_end, TERMINAL_SURVIVAL, TERMINAL_DEATH),
                         np.where(died_now, INTERMEDIATE_DEATH, 0.0))
    return (np.where(map_mmhg < MAP_LOW, HYPO_PENALTY,
                     np.where(map_mmhg <= MAP_HIGH, NORMAL_MAP_BONUS, 0.0))
            + np.where(sbp_mmhg > SBP_CRISIS, HYPER_PENALTY, 0.0) + mortality)


def trajectory_rewards(traj: PatientTrajectory, schema: FeatureSchema,
                       stats: NormStats | None = None) -> np.ndarray:
    """Per-timestep rewards; de-normalizes MAP/SBP when stats are given."""
    i_map, i_sbp = schema.index("mean_bp"), schema.index("sbp")
    map_col, sbp_col = traj.states[:, i_map], traj.states[:, i_sbp]
    if stats is not None:
        map_col = invert_norm_feature(stats, i_map, map_col)
        sbp_col = invert_norm_feature(stats, i_sbp, sbp_col)
    t = np.arange(traj.T)
    return step_reward(map_col, sbp_col, died_now=(t == traj.mortality_step),
                       is_terminal=(t == traj.T - 1), alive_at_end=traj.outcome_alive)


def trajectory_return(traj: PatientTrajectory, gamma: float, schema: FeatureSchema,
                      stats: NormStats | None = None) -> float:
    """Discounted return sum_t gamma^t r_t over the trajectory."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must be in (0, 1]")
    return float(discounted_returns(trajectory_rewards(traj, schema, stats), gamma)[0])
