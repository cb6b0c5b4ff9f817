"""Per-encounter references for the whole-block cohort transforms: the
loops that ``preprocess_cohort`` and ``inject_missingness`` replaced. The
block versions must give the same bytes and draw the same random stream."""

from dataclasses import replace
from typing import Optional

import numpy as np

from cfpolicy.cohort import CohortDataset, PatientTrajectory
from cfpolicy.kernels import fill_series
from cfpolicy.preprocess import (NormStats, bin_actions_batch, fit_binning,
                                 fit_norm_stats, normalize_actions)


def impute(traj: PatientTrajectory, stats: NormStats) -> PatientTrajectory:
    """Fill every missing cell; idempotent on fully observed trajectories."""
    states = traj.states.copy()
    for j in range(states.shape[1]):
        col = states[:, j]
        if np.any(np.isnan(col)):
            states[:, j] = fill_series(col, stats.raw_means[j])
    return replace(traj, states=states)


def apply_norm(traj: PatientTrajectory, stats: NormStats,
               binary: Optional[np.ndarray] = None) -> PatientTrajectory:
    """z-normalize states (after optional ln(1+x)) and actions."""
    states = traj.states.copy()
    M = states.shape[1]
    if binary is None:
        binary = np.zeros(M, dtype=bool)
    for j in range(M):
        if binary[j]:
            continue
        col = states[:, j]
        vals = np.log1p(col) if stats.log_flags[j] else col
        if stats.stds[j] == 0:
            states[:, j] = np.where(np.isnan(col), np.nan, 0.0)
        else:
            states[:, j] = (vals - stats.means[j]) / stats.stds[j]
    return replace(traj, states=states, actions=normalize_actions(stats, traj.actions))


def preprocess_cohort(cohort: CohortDataset) -> CohortDataset:
    """Fit stats + binning on train, then impute, bin and normalize one
    trajectory at a time."""
    stats = fit_norm_stats(cohort)
    binning = fit_binning(cohort)
    binary = np.array([k == "binary" for k in cohort.schema.kinds])
    out_trajs = []
    for tr in cohort.trajectories:
        filled = impute(tr, stats)
        bins = bin_actions_batch(filled.actions, binning)
        normed = apply_norm(filled, stats, binary=binary)
        normed.action_bins = bins
        out_trajs.append(normed)
    return CohortDataset.from_trajectories(cohort.schema, out_trajs, split=cohort.split,
                                           norm_stats=stats, binning=binning)


def inject_missingness(cohort: CohortDataset, rate: float, seed: int) -> CohortDataset:
    """Mask non-demographic cells with probability ``rate``, one feature at
    a time, keeping one observation of a feature the mask would wipe out."""
    rng = np.random.default_rng(seed)
    maskable = np.array([k != "demographic" for k in cohort.schema.kinds])
    out = []
    for tr in cohort.trajectories:
        states = tr.states.copy()
        if rate > 0:
            mask = rng.random(states.shape) < rate
            mask[:, ~maskable] = False
            for j in np.flatnonzero(maskable):
                col_mask = mask[:, j]
                observed = ~np.isnan(states[:, j])
                if observed.any() and np.all(col_mask[observed]):
                    col_mask[rng.choice(np.flatnonzero(observed))] = False
                states[col_mask, j] = np.nan
        out.append(replace(tr, states=states, action_bins=None))
    return CohortDataset.from_trajectories(cohort.schema, out, split=cohort.split,
                                           norm_stats=cohort.norm_stats,
                                           binning=cohort.binning)
