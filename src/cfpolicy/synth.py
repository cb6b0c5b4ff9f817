"""Synthetic septic-cohort generator with a planted treatment disparity.

A latent severity process drives both the observed features and a
logistic-saturating expert dosing policy. One subgroup's vasopressor
propensity is shifted by ``disparity_delta`` in logit units, making
"same state, different treatment" true by construction. The generator is
a test oracle, not a physiological model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cohort import CohortDataset, FeatureSchema
from .numcore import sigmoid

MIN_FEATURES = 8


@dataclass(frozen=True)
class PolicyParams:
    """Noiseless expert dosing rule for one drug: logistic in severity."""

    slope: float
    center: float
    max_dose: float
    floor: float  # propensity below this yields a zero dose

    def dose(self, severity, logit_offset=0.0):
        """Dose for a severity (scalar or array); ``logit_offset`` may be a
        scalar or an array broadcast against ``severity``."""
        q = sigmoid(self.slope * (np.asarray(severity) - self.center) + logit_offset)
        return np.where(q >= self.floor, self.max_dose * q, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int = 200
    T: int = 72
    n_features: int = 40
    seed: int = 0
    disparity_delta: float = 0.0
    disparity_attribute: str = "gender"
    disparity_value: str = "F"
    # severity recursion
    decay: float = 0.9
    treatment_effect: float = 0.35
    noise_sd: float = 0.05
    drive_pre: float = 0.4
    drive_post: float = 1.3
    onset_t: int = 24  # presumed sepsis onset pinned by convention
    # outcome
    mortality_slope: float = 2.0
    mortality_threshold: float = 2.0
    # attribute proportions
    p_male: float = 0.5
    p_white: float = 0.7
    dose_noise_sd: float = 0.15

    def __post_init__(self):
        if self.n_patients <= 0:
            raise ValueError("n_patients must be positive")
        if self.T < 4:
            raise ValueError("T must be >= 4")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.n_features < MIN_FEATURES:
            raise ValueError(f"n_features must be >= {MIN_FEATURES}")
        if not np.isfinite(self.disparity_delta):
            raise ValueError("disparity_delta must be finite")


FLUID_POLICY = PolicyParams(slope=2.0, center=0.9, max_dose=500.0, floor=0.2)
VASO_POLICY = PolicyParams(slope=2.5, center=1.0, max_dose=0.5, floor=0.15)


@dataclass
class GroundTruth:
    """Latent severity paths and true policy parameters; never emitted
    with the cohort files."""

    severity: dict  # trajectory id -> list of T floats
    fluid_policy: PolicyParams = field(default_factory=lambda: FLUID_POLICY)
    vaso_policy: PolicyParams = field(default_factory=lambda: VASO_POLICY)
    disparity_delta: float = 0.0
    disparity_attribute: str = "gender"
    disparity_value: str = "F"

    def to_json(self) -> dict:
        return {
            "severity": {k: list(map(float, v)) for k, v in self.severity.items()},
            "fluid_policy": vars(self.fluid_policy),
            "vaso_policy": vars(self.vaso_policy),
            "disparity_delta": self.disparity_delta,
            "disparity_attribute": self.disparity_attribute,
            "disparity_value": self.disparity_value,
        }


def make_schema(n_features: int = 40) -> FeatureSchema:
    """Fixed clinical core (MAP, SBP, HR, lactate, ...) plus generic labs."""
    names = ["mean_bp", "sbp", "heart_rate", "lactate", "resp_rate",
             "temperature", "age", "mech_vent"]
    kinds = ["vital", "vital", "vital", "lab", "vital", "vital",
             "demographic", "binary"]
    logs = [False, False, False, True, False, False, False, False]
    for j in range(MIN_FEATURES, n_features):
        names.append(f"lab_{j:02d}")
        kinds.append("lab")
        logs.append(False)
    return FeatureSchema(
        names=tuple(names), kinds=tuple(kinds), log_normalized=tuple(logs),
        attributes={"gender": ("M", "F"), "ethnicity": ("White", "Black")})


def _lab_coefficients(config: SynthConfig):
    """Per-cohort fixed generating maps for the generic labs.

    Three flavors cycle through the lab block: severity-linked affine
    readouts, dose-integrating balance features (leaky accumulators of the
    fluid/vaso input, e.g. fluid balance or urine output), and oscillatory
    distractors (care-cycle rhythms with per-patient phase) uncorrelated
    with severity so a learner cannot trivially invert the generator.
    """
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    coeffs = {}
    for j in range(MIN_FEATURES, config.n_features):
        r = j % 4
        if r in (0, 1):
            coeffs[j] = ("linked", rng.uniform(-2, 2), rng.uniform(0.8, 2.0),
                         rng.uniform(0.05, 0.15))
        elif r == 2:
            # (kind, drug column, gain, leak, noise sd)
            coeffs[j] = ("balance", int(rng.integers(2)), rng.uniform(0.5, 1.5),
                         rng.uniform(0.15, 0.35), rng.uniform(0.01, 0.03))
        else:
            # (kind, level, amplitude, angular frequency, noise sd)
            coeffs[j] = ("osc", rng.uniform(-1, 1), rng.uniform(0.8, 1.5),
                         rng.uniform(2 * np.pi / 8, 2 * np.pi / 4),
                         rng.uniform(0.05, 0.15))
    return coeffs


def severity_step(config: SynthConfig, sev, drive, treat_intensity, noise):
    """One step of the damped noisy recursion, reduced by treatment."""
    nxt = (sev + (1 - config.decay) * (drive - sev)
           - config.treatment_effect * treat_intensity + noise)
    return np.maximum(nxt, 0.0)


def generate(config: SynthConfig):
    """Build (CohortDataset, GroundTruth); bit-deterministic per seed.

    No random variate depends on the state, so generation runs in three
    phases. Draw: one pass over the encounters takes every variate in the
    stream order of stepping them one at a time; the emission noise goes
    straight into its state column of the cohort's block. Step: one loop
    over t advances the severity recursion, the expert doses and the
    balance labs of every encounter at once, in the block. Emit: each state
    column gets its deterministic part for all encounters together.
    """
    rng = np.random.default_rng(config.seed)
    schema = make_schema(config.n_features)
    coeffs = _lab_coefficients(config)
    n, T, M = config.n_patients, config.T, config.n_features
    labs = range(MIN_FEATURES, M)

    # draw
    attr_u = np.empty((n, 2))
    # column 0: initial severity; then per step the fluid and vasopressor
    # dose noise and the severity noise (the last step has none: column 3T)
    z = np.zeros((n, 3 * T + 1))
    block = np.empty((n * T, M + 2))
    encounter_rows = block.reshape(n, T, M + 2)  # views: the draw fills the block
    states, actions = encounter_rows[..., :M], encounter_rows[..., M:]
    phase = np.empty((n, M))
    surv_u = np.empty(n)
    for p in range(n):
        attr_u[p] = rng.random(2)
        z[p, :3 * T] = rng.standard_normal(3 * T)
        for k, sd in enumerate((1.0, 1.5, 1.5, 0.1, 0.5, 0.1)):
            states[p, :, k] = rng.normal(0, sd, T)
        states[p, :, 6] = rng.uniform(30.0, 90.0)  # age, constant
        for j in labs:
            if coeffs[j][0] == "osc":
                phase[p, j] = rng.uniform(0.0, 2 * np.pi)
            states[p, :, j] = rng.normal(0, coeffs[j][-1], T)
        surv_u[p] = rng.random()

    attributes = {"gender": np.where(attr_u[:, 0] < config.p_male, "M", "F").astype(object),
                  "ethnicity": np.where(attr_u[:, 1] < config.p_white, "White", "Black")
                  .astype(object)}
    planted = attributes.get(config.disparity_attribute, np.full(n, None))
    vaso_offset = np.where(planted == config.disparity_value, -config.disparity_delta, 0.0)
    # rng.normal(loc, scale) is loc + scale * standard_normal, bit for bit
    step_z = z[:, 1:].reshape(n, T, 3)
    noise_mult = np.exp(-0.5 * config.dose_noise_sd ** 2
                        + config.dose_noise_sd * step_z[:, :, :2])
    sev_noise = 0.0 + config.noise_sd * step_z[:, :, 2]

    # step
    sev = np.empty((n, T))
    sev[:, 0] = np.maximum(0.35 + 0.15 * z[:, 0], 0.0)
    max_doses = (FLUID_POLICY.max_dose, VASO_POLICY.max_dose)
    balance = [(j,) + coeffs[j][1:4] for j in labs if coeffs[j][0] == "balance"]
    for t in range(T):
        s = sev[:, t]
        fluid = FLUID_POLICY.dose(s) * noise_mult[:, t, 0]
        vaso = VASO_POLICY.dose(s, vaso_offset) * noise_mult[:, t, 1]
        actions[:, t, 0] = fluid
        actions[:, t, 1] = vaso
        if t + 1 < T:
            u = 0.5 * (fluid / FLUID_POLICY.max_dose + vaso / VASO_POLICY.max_dose)
            drive = config.drive_post if t + 1 >= config.onset_t else config.drive_pre
            sev[:, t + 1] = severity_step(config, s, drive, u, sev_noise[:, t])
            # leaky accumulators of the dose; the column holds their noise
            for j, drug, gain, leak in balance:
                states[:, t + 1, j] = ((1.0 - leak) * states[:, t, j]
                                       + gain * (actions[:, t, drug] / max_doses[drug])
                                       + states[:, t + 1, j])

    # emit; float addition commutes, so adding the deterministic part to the
    # drawn noise gives the bits of part + noise
    states[:, :, 0] += 85.0 - 16.0 * sev   # mean_bp
    states[:, :, 1] += 125.0 - 20.0 * sev  # sbp
    states[:, :, 2] += 75.0 + 18.0 * sev   # heart_rate
    states[:, :, 3] = np.maximum(0.05, 0.8 + 2.2 * sev + states[:, :, 3])  # lactate
    states[:, :, 4] += 16.0 + 4.0 * sev    # resp_rate
    states[:, :, 5] += 37.0 + 0.8 * sev    # temperature
    states[:, :, 7] = sev > 1.6            # mech_vent
    t_grid = np.arange(T, dtype=np.float64)
    for j in labs:
        spec = coeffs[j]
        if spec[0] == "linked":
            _, a, b, _ = spec
            states[:, :, j] += a + b * sev
        elif spec[0] == "osc":
            _, a, amp, omega, _ = spec
            states[:, :, j] += a + amp * np.sin(omega * t_grid + phase[:, j, None])

    p_death = sigmoid(config.mortality_slope * (sev[:, -1] - config.mortality_threshold))
    alive = surv_u >= p_death
    ids = [f"enc{p:06d}" for p in range(n)]
    cohort = CohortDataset(
        schema=schema, block=block, bins=None, first=np.arange(n, dtype=np.int64) * T,
        lengths=np.full(n, T, np.int64), ids=np.array(ids, dtype=object), attributes=attributes,
        mortality_step=np.full(n, -1, np.int64), outcome_alive=alive, binned=np.zeros(n, bool))
    truth = GroundTruth(
        severity=dict(zip(ids, sev)),
        disparity_delta=config.disparity_delta,
        disparity_attribute=config.disparity_attribute,
        disparity_value=config.disparity_value)
    return cohort, truth


def inject_missingness(cohort: CohortDataset, rate: float, seed: int) -> CohortDataset:
    """Mask non-demographic cells independently with probability ``rate``,
    keeping at least one observation per (trajectory, feature) when possible:
    a feature the mask would wipe out keeps one drawn with ``rng.choice``.
    The encounters are masked one at a time in a copy of the cohort's block;
    the result has no action bins."""
    if not 0 <= rate < 1:
        raise ValueError("rate must be in [0, 1)")
    rng = np.random.default_rng(seed)
    maskable = np.array([k != "demographic" for k in cohort.schema.kinds])
    block = cohort.block.copy()
    M = cohort.schema.n_features
    for s, T in zip(cohort.first.tolist(), cohort.lengths.tolist()) if rate > 0 else ():
        states = block[s:s + T, :M]
        mask = rng.random(states.shape) < rate
        mask[:, ~maskable] = False
        observed = ~np.isnan(states)  # wiped out: observed, but no observation kept
        for j in np.flatnonzero(observed.any(axis=0) & ~(observed & ~mask).any(axis=0)):
            mask[rng.choice(np.flatnonzero(observed[:, j])), j] = False
        states[mask] = np.nan
    return replace(cohort, block=block, bins=None, binned=np.zeros(len(cohort), bool))


def save_ground_truth(truth: GroundTruth, path) -> None:
    Path(path).write_text(json.dumps(truth.to_json()), encoding="utf-8")
