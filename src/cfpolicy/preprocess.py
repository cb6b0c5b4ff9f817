"""Normalization, imputation, dose equivalence, and discrete action binning.

Statistics are fitted on the train split only. Log-flagged features are
normalized on the ln(1+x) scale. Imputation happens on raw values before
normalization: linear interpolation inside gaps, carry-forward after the
last observation, train-split mean before the first.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cohort import CohortDataset
from .errors import DegenerateBinningError, IntegrityError, MissingFeatureError
from .kernels import fill_series

# norepinephrine-equivalence conversions; divisions are exact divisions, not
# reciprocal multiplications, so e.g. 7 ug/kg/min dopamine maps to exactly 7/100
VASOPRESSOR_FACTORS = {
    "norepinephrine": lambda d: d,
    "phenylephrine": lambda d: d / 10.0,
    "dopamine": lambda d: d / 100.0,
    "vasopressin": lambda d: d * 2.5,
}
PASS_THROUGH_AGENTS = ("dobutamine", "milrinone")

N_BINS_PER_DRUG = 5
N_ACTIONS = N_BINS_PER_DRUG * N_BINS_PER_DRUG


@dataclass
class NormStats:
    """Per-feature z-normalization statistics plus action statistics.

    ``means``/``stds`` are on the (optionally log) transformed scale;
    ``raw_means`` are untransformed observed means used for imputation.
    """

    means: np.ndarray       # (M,)
    stds: np.ndarray        # (M,)
    log_flags: np.ndarray   # (M,) bool
    raw_means: np.ndarray   # (M,)
    action_mean: np.ndarray  # (2,)
    action_std: np.ndarray   # (2,)

    @staticmethod
    def spec(M) -> dict:
        """What ``to_json`` writes for M features."""
        return {"means": [float, M], "stds": [float, M], "log_flags": [bool, M],
                "raw_means": [float, M], "action_mean": [float, 2], "action_std": [float, 2]}

    def to_json(self) -> dict:
        return {name: value.tolist() for name, value in vars(self).items()}

    @classmethod
    def from_json(cls, obj: dict) -> "NormStats":
        """The statistics in ``obj``, which matches ``spec``."""
        return cls(**{name: np.array(value, dtype=bool if name == "log_flags" else np.float64)
                      for name, value in obj.items()})


@dataclass
class ActionBinning:
    """Quantile cutoffs over nonzero train doses plus per-bin median doses.

    Cutoffs are the 25/50/75% linear-interpolation quantiles; the zero
    boundary is implicit (dose == 0 is always bin 0). ``*_levels`` hold a
    representative (median) raw dose per bin for mapping discrete actions
    back to doses.
    """

    fluid_cutoffs: np.ndarray  # (3,) ascending
    vaso_cutoffs: np.ndarray   # (3,) ascending
    fluid_levels: np.ndarray   # (5,)
    vaso_levels: np.ndarray    # (5,)

    SPEC = {"quantile_convention": ("linear",),
            "fluid_cutoffs": [float, 3], "vaso_cutoffs": [float, 3],
            "fluid_levels": [float, N_BINS_PER_DRUG], "vaso_levels": [float, N_BINS_PER_DRUG]}

    def to_json(self) -> dict:
        return {"quantile_convention": "linear",
                **{name: value.tolist() for name, value in vars(self).items()}}

    @classmethod
    def from_json(cls, obj: dict) -> "ActionBinning":
        """The binning in ``obj``, which matches ``SPEC``."""
        return cls(**{name: np.array(value, dtype=np.float64)
                      for name, value in obj.items() if name != "quantile_convention"})


def _binary_mask(cohort: CohortDataset) -> np.ndarray:
    return np.array([k == "binary" for k in cohort.schema.kinds])


def fit_norm_stats(cohort: CohortDataset) -> NormStats:
    """Mean/std per feature over observed train-split cells (population std).
    A column whose mean or std is not finite (values so large that it
    overflows) raises IntegrityError naming the column."""
    train = cohort.split_of("train").row_index()
    if train.size == 0:
        raise IntegrityError("train split is empty")
    M = cohort.schema.n_features
    log_flags = np.array(cohort.schema.log_normalized, dtype=bool)
    binary = _binary_mask(cohort)

    means, stds, raw_means = np.zeros(M), np.ones(M), np.zeros(M)  # binary: mean 0, std 1
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for j in range(M):
            col = cohort.block[train, j]
            obs = col[~np.isnan(col)]
            if obs.size == 0:
                raise MissingFeatureError(
                    f"feature {cohort.schema.names[j]!r} has no observed train cells")
            raw_means[j] = obs.mean()
            if not binary[j]:
                vals = np.log1p(obs) if log_flags[j] else obs
                means[j], stds[j] = vals.mean(), vals.std()  # population (ddof=0)
        actions = cohort.block[train, M:]
        action_mean, action_std = actions.mean(axis=0), actions.std(axis=0)
    finite = np.append(np.isfinite([raw_means, means, stds]).all(axis=0),
                       np.isfinite([action_mean, action_std]).all(axis=0))
    if not finite.all():
        name = (list(cohort.schema.names) + ["action_fluid", "action_vaso"])[np.argmin(finite)]
        raise IntegrityError(f"column {name!r}: train-split mean or std is not finite")
    return NormStats(
        means=means, stds=stds, log_flags=log_flags, raw_means=raw_means,
        action_mean=action_mean, action_std=action_std)


def invert_norm_feature(stats: NormStats, j: int, z: np.ndarray) -> np.ndarray:
    """Map normalized feature values back to the raw scale."""
    vals = z * stats.stds[j] + stats.means[j]
    return np.expm1(vals) if stats.log_flags[j] else vals


def denormalize_actions(stats: NormStats, actions: np.ndarray) -> np.ndarray:
    return actions * stats.action_std + stats.action_mean


def normalize_actions(stats: NormStats, actions: np.ndarray) -> np.ndarray:
    std = np.where(stats.action_std == 0, 1.0, stats.action_std)
    return (actions - stats.action_mean) / std


def norepi_equivalent(drug: str, dose: float) -> float:
    """Convert a vasopressor dose to norepinephrine-equivalent units."""
    if dose < 0:
        raise ValueError(f"dose must be nonnegative, got {dose}")
    drug = drug.lower()
    if drug in VASOPRESSOR_FACTORS:
        return VASOPRESSOR_FACTORS[drug](dose)
    if drug in PASS_THROUGH_AGENTS:
        warnings.warn(f"no norepinephrine equivalence for {drug!r}; dose passed through",
                      stacklevel=2)
        return dose
    raise ValueError(f"unknown vasopressor {drug!r}")


def fit_binning(cohort: CohortDataset) -> ActionBinning:
    """25/50/75% quantile cutoffs of nonzero train doses, plus bin levels."""
    train = cohort.split_of("train").row_index()
    cutoffs, levels = [], []
    for d, name in ((0, "fluid"), (1, "vaso")):
        dose = cohort.block[train, cohort.schema.n_features + d]
        nonzero = dose[dose > 0]
        if nonzero.size == 0:
            raise DegenerateBinningError(f"no nonzero {name} doses in train split")
        cuts = np.quantile(nonzero, [0.25, 0.5, 0.75], method="linear")
        lv = np.zeros(N_BINS_PER_DRUG)
        bins = _bin_dose(dose, cuts)
        for b in range(1, N_BINS_PER_DRUG):  # a bin that collapsed cutoffs empty: its cutoff
            members = dose[bins == b]
            lv[b] = np.median(members) if members.size else cuts[min(b - 1, len(cuts) - 1)]
        cutoffs.append(cuts)
        levels.append(lv)
    return ActionBinning(fluid_cutoffs=cutoffs[0], vaso_cutoffs=cutoffs[1],
                         fluid_levels=levels[0], vaso_levels=levels[1])


def _bin_dose(dose: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Per-drug bin: 0 iff dose == 0, else 1 + #cutoffs strictly below dose."""
    dose = np.asarray(dose, dtype=np.float64)
    b = 1 + np.sum(dose[..., None] > cutoffs[None, :], axis=-1)
    return np.where(dose == 0, 0, b).astype(np.int64)


def bin_actions_batch(actions: np.ndarray, binning: ActionBinning) -> np.ndarray:
    """(N, 2) dose pairs -> (N,) joint 25-way action indices,
    fluid_bin * 5 + vaso_bin."""
    fb = _bin_dose(actions[:, 0], binning.fluid_cutoffs)
    vb = _bin_dose(actions[:, 1], binning.vaso_cutoffs)
    return fb * N_BINS_PER_DRUG + vb


def action_index_to_doses(index: np.ndarray, binning: ActionBinning) -> np.ndarray:
    """Map joint action indices to representative raw dose pairs."""
    index = np.asarray(index, dtype=np.int64)
    fb, vb = index // N_BINS_PER_DRUG, index % N_BINS_PER_DRUG
    return np.stack([binning.fluid_levels[fb], binning.vaso_levels[vb]], axis=-1)


def preprocess_cohort(cohort: CohortDataset) -> CohortDataset:
    """Full pipeline: fit stats + binning on train, impute, bin, normalize.

    Requires split tags. Returns a new cohort whose states/actions are
    normalized, with action bins attached and statistics stored on the
    dataset for serialization alongside trained models. The input's rows
    are gathered, encounter by encounter, into the output's one block, and
    one pass per feature imputes, log-transforms and z-normalizes a column
    of it in place. In any split, an observed binary cell not 0 or 1, an
    observed log-normalized cell at or below -1, or a feature or dose not
    finite once normalized raises IntegrityError naming column and value.
    """
    stats = fit_norm_stats(cohort)
    binning = fit_binning(cohort)
    binary = _binary_mask(cohort)
    block = cohort.block.take(cohort.row_index(), axis=0)
    lengths = cohort.lengths
    M = cohort.schema.n_features

    def reject(label, values, bad, what="not finite once normalized"):  # the first bad value
        if bad.any():
            raise IntegrityError(f"{label} holds {float(values[np.argmax(bad)])!r}, {what}")

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for j, name in enumerate(cohort.schema.names):
            col = block[:, j]
            if binary[j]:  # raw cells only: imputation rightly leaves fractions
                reject(f"binary column {name!r}", col,
                       (col != 0.0) & (col != 1.0) & ~np.isnan(col), "not 0 or 1")
            if stats.log_flags[j]:
                reject(f"log-normalized column {name!r}", col, col <= -1.0, "not above -1")
            col[:] = filled = fill_series(col, stats.raw_means[j], lengths)
            if stats.stds[j] == 0:  # never binary: those have mean 0, std 1
                col[:] = np.where(np.isnan(col), np.nan, 0.0)
            elif not binary[j]:
                if stats.log_flags[j]:
                    np.log1p(col, out=col)
                col -= stats.means[j]
                col /= stats.stds[j]
            reject(f"column {name!r}", filled, ~np.isfinite(col))
            del filled  # not held through the next column's imputation
        bins = bin_actions_batch(block[:, M:], binning)
        actions = normalize_actions(stats, block[:, M:])
    for d, name in enumerate(("action_fluid", "action_vaso")):
        reject(f"column {name!r}", block[:, M + d], ~np.isfinite(actions[:, d]))
    block[:, M:] = actions
    return replace(cohort, block=block, bins=bins, first=np.cumsum(lengths) - lengths,
                   binned=np.ones(len(cohort), bool), norm_stats=stats, binning=binning)
