"""Synthetic septic-cohort generator with a planted treatment disparity.

A latent severity process drives both the observed features and a
logistic-saturating expert dosing policy. One subgroup's vasopressor
propensity is shifted by ``disparity_delta`` in logit units, making
"same state, different treatment" true by construction. The generator is
a test oracle, not a physiological model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cohort import CohortDataset, FeatureSchema, PatientTrajectory
from .numcore import sigmoid

MIN_FEATURES = 8


@dataclass(frozen=True)
class PolicyParams:
    """Noiseless expert dosing rule for one drug: logistic in severity."""

    slope: float
    center: float
    max_dose: float
    floor: float  # propensity below this yields a zero dose

    def dose(self, severity, logit_offset: float = 0.0):
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
    intermediate_death: bool = False
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

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


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

    @classmethod
    def from_json(cls, obj: dict) -> "GroundTruth":
        return cls(
            severity={k: np.array(v) for k, v in obj["severity"].items()},
            fluid_policy=PolicyParams(**obj["fluid_policy"]),
            vaso_policy=PolicyParams(**obj["vaso_policy"]),
            disparity_delta=obj["disparity_delta"],
            disparity_attribute=obj["disparity_attribute"],
            disparity_value=obj["disparity_value"],
        )


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
    """Build (CohortDataset, GroundTruth); bit-deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    schema = make_schema(config.n_features)
    coeffs = _lab_coefficients(config)
    T, M = config.T, config.n_features

    trajectories = []
    severity_paths = {}
    for p in range(config.n_patients):
        tid = f"enc{p:06d}"
        gender = "M" if rng.random() < config.p_male else "F"
        ethnicity = "White" if rng.random() < config.p_white else "Black"
        attrs = {"gender": gender, "ethnicity": ethnicity}
        in_target = attrs.get(config.disparity_attribute) == config.disparity_value
        vaso_offset = -config.disparity_delta if in_target else 0.0

        sev = np.empty(T)
        actions = np.zeros((T, 2))
        sev[0] = max(0.0, rng.normal(0.35, 0.15))
        for t in range(T):
            s = sev[t]
            noise_mult = np.exp(rng.normal(
                -0.5 * config.dose_noise_sd ** 2, config.dose_noise_sd, size=2))
            fluid = float(FLUID_POLICY.dose(s)) * noise_mult[0]
            vaso = float(VASO_POLICY.dose(s, vaso_offset)) * noise_mult[1]
            actions[t] = (fluid, vaso)
            if t + 1 < T:
                u = 0.5 * (fluid / FLUID_POLICY.max_dose + vaso / VASO_POLICY.max_dose)
                drive = config.drive_post if t + 1 >= config.onset_t else config.drive_pre
                sev[t + 1] = severity_step(
                    config, s, drive, u, rng.normal(0.0, config.noise_sd))

        states = np.empty((T, M))
        states[:, 0] = 85.0 - 16.0 * sev + rng.normal(0, 1.0, T)   # mean_bp
        states[:, 1] = 125.0 - 20.0 * sev + rng.normal(0, 1.5, T)  # sbp
        states[:, 2] = 75.0 + 18.0 * sev + rng.normal(0, 1.5, T)   # heart_rate
        states[:, 3] = np.maximum(0.05, 0.8 + 2.2 * sev + rng.normal(0, 0.1, T))
        states[:, 4] = 16.0 + 4.0 * sev + rng.normal(0, 0.5, T)    # resp_rate
        states[:, 5] = 37.0 + 0.8 * sev + rng.normal(0, 0.1, T)    # temperature
        states[:, 6] = rng.uniform(30.0, 90.0)                      # age, constant
        states[:, 7] = (sev > 1.6).astype(float)                    # mech_vent
        max_doses = (FLUID_POLICY.max_dose, VASO_POLICY.max_dose)
        for j in range(MIN_FEATURES, M):
            spec = coeffs[j]
            if spec[0] == "linked":
                _, a, b, s_n = spec
                states[:, j] = a + b * sev + rng.normal(0, s_n, T)
            elif spec[0] == "balance":
                _, drug, gain, leak, s_n = spec
                u = actions[:, drug] / max_doses[drug]
                x = np.empty(T)
                eps = rng.normal(0, s_n, T)
                x[0] = eps[0]
                for t in range(1, T):
                    x[t] = (1.0 - leak) * x[t - 1] + gain * u[t - 1] + eps[t]
                states[:, j] = x
            else:
                _, a, amp, omega, s_n = spec
                phase = rng.uniform(0.0, 2 * np.pi)
                t_grid = np.arange(T, dtype=np.float64)
                states[:, j] = (a + amp * np.sin(omega * t_grid + phase)
                                + rng.normal(0, s_n, T))

        p_death = float(sigmoid(config.mortality_slope
                                 * (sev[-1] - config.mortality_threshold)))
        alive = rng.random() >= p_death
        mortality_step = None
        if not alive and config.intermediate_death:
            crossings = np.flatnonzero(sev >= config.mortality_threshold + 0.5)
            if crossings.size and crossings[0] < T - 1:
                mortality_step = int(crossings[0])
                states[mortality_step + 1:] = states[mortality_step]
                actions[mortality_step + 1:] = 0.0

        severity_paths[tid] = sev.copy()
        trajectories.append(PatientTrajectory(
            id=tid, attributes=attrs, states=states, actions=actions,
            mortality_step=mortality_step, outcome_alive=bool(alive)))

    cohort = CohortDataset(schema=schema, trajectories=trajectories)
    truth = GroundTruth(
        severity=severity_paths,
        disparity_delta=config.disparity_delta,
        disparity_attribute=config.disparity_attribute,
        disparity_value=config.disparity_value)
    return cohort, truth


def expected_vaso_gap(truth: GroundTruth, cohort: CohortDataset) -> float:
    """Noiseless-policy expectation of the subgroup dose gap.

    Averages the vasopressor policy with and without the planted offset
    over every ground-truth severity sample; the Monte-Carlo realized gap
    should match this because dose noise is mean-one multiplicative.
    """
    by_group = {True: [], False: []}
    for tr in cohort.trajectories:
        sev = truth.severity[tr.id]
        flag = tr.attributes[truth.disparity_attribute] == truth.disparity_value
        by_group[flag].append(np.asarray(sev))
    base = np.concatenate(by_group[False])
    shifted = np.concatenate(by_group[True])
    mean_base = truth.vaso_policy.dose(base).mean()
    mean_shifted = truth.vaso_policy.dose(shifted, -truth.disparity_delta).mean()
    return float(mean_base - mean_shifted)


def inject_missingness(cohort: CohortDataset, rate: float, seed: int) -> CohortDataset:
    """Mask non-demographic cells independently with probability ``rate``,
    keeping at least one observation per (trajectory, feature) when possible."""
    if not 0 <= rate < 1:
        raise ValueError("rate must be in [0, 1)")
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
                if np.all(col_mask[observed]):  # would wipe the feature out
                    keep = rng.choice(np.flatnonzero(observed))
                    col_mask[keep] = False
                states[col_mask, j] = np.nan
        out.append(PatientTrajectory(
            id=tr.id, attributes=tr.attributes, states=states, actions=tr.actions,
            mortality_step=tr.mortality_step, outcome_alive=tr.outcome_alive))
    return CohortDataset(schema=cohort.schema, trajectories=out, split=cohort.split,
                         norm_stats=cohort.norm_stats, binning=cohort.binning)


def save_ground_truth(truth: GroundTruth, path) -> None:
    Path(path).write_text(json.dumps(truth.to_json()), encoding="utf-8")


def load_ground_truth(path) -> GroundTruth:
    return GroundTruth.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
