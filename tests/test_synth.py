"""Synthetic generator: determinism, planted disparity, missingness."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from cfpolicy.cohort import CohortDataset, FeatureSchema, PatientTrajectory
from cfpolicy.numcore import sigmoid
from cfpolicy.synth import (FLUID_POLICY, MIN_FEATURES, VASO_POLICY, GroundTruth,
                            PolicyParams, SynthConfig, _lab_coefficients, generate,
                            inject_missingness, make_schema, save_ground_truth,
                            severity_step)


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


def load_ground_truth(path) -> GroundTruth:
    """The ground-truth record that ``save_ground_truth`` wrote to ``path``."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return GroundTruth(
        severity={k: np.array(v) for k, v in obj["severity"].items()},
        fluid_policy=PolicyParams(**obj["fluid_policy"]),
        vaso_policy=PolicyParams(**obj["vaso_policy"]),
        disparity_delta=obj["disparity_delta"],
        disparity_attribute=obj["disparity_attribute"],
        disparity_value=obj["disparity_value"],
    )


def reference_generate(config):
    """Reference generator: one encounter and one timestep at a time, each
    variate drawn where it is used. ``generate`` must match it byte for
    byte."""
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
        severity_paths[tid] = sev.copy()
        trajectories.append(PatientTrajectory(
            id=tid, attributes=attrs, states=states, actions=actions,
            mortality_step=None, outcome_alive=bool(alive)))

    cohort = CohortDataset.from_trajectories(schema, trajectories)
    truth = GroundTruth(
        severity=severity_paths,
        disparity_delta=config.disparity_delta,
        disparity_attribute=config.disparity_attribute,
        disparity_value=config.disparity_value)
    return cohort, truth


def assert_same_generation(config):
    cohort, truth = generate(config)
    ref_cohort, ref_truth = reference_generate(config)
    assert cohort.schema == ref_cohort.schema
    assert len(cohort.trajectories) == len(ref_cohort.trajectories)
    for x, y in zip(cohort.trajectories, ref_cohort.trajectories):
        assert x.id == y.id and x.attributes == y.attributes
        assert x.states.shape == y.states.shape and x.actions.shape == y.actions.shape
        assert x.states.tobytes() == y.states.tobytes()
        assert x.actions.tobytes() == y.actions.tobytes()
        assert x.mortality_step is None and y.mortality_step is None
        assert x.outcome_alive == y.outcome_alive
    assert truth.severity.keys() == ref_truth.severity.keys()
    for k in truth.severity:
        assert truth.severity[k].tobytes() == ref_truth.severity[k].tobytes()
    assert json.dumps(truth.to_json()) == json.dumps(ref_truth.to_json())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), T=st.integers(4, 12), features=st.integers(8, 17),
       delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generate_matches_reference_bytes(n, T, features, delta, seed):
    assert_same_generation(SynthConfig(n_patients=n, T=T, n_features=features,
                                       seed=seed, disparity_delta=delta))


@pytest.mark.parametrize("config", [
    SynthConfig(n_patients=60, T=72, n_features=12, seed=7, disparity_delta=0.5),
    SynthConfig(n_patients=25, T=30, n_features=40, seed=3, disparity_delta=-0.4,
                disparity_attribute="ethnicity", disparity_value="Black",
                noise_sd=0.0, mortality_threshold=0.45, mortality_slope=6.0)],
    ids=["readme-shape", "all-labs-other-attribute"])
def test_generate_matches_reference_bytes_at_size(config):
    # onset at t=24 and every lab flavor several times over
    assert_same_generation(config)


def test_generation_is_bit_deterministic():
    cfg = SynthConfig(n_patients=20, T=20, n_features=12, seed=11,
                      disparity_delta=0.3)
    a, ta = generate(cfg)
    b, tb = generate(cfg)
    for x, y in zip(a.trajectories, b.trajectories):
        assert x.id == y.id and x.attributes == y.attributes
        assert np.array_equal(x.states, y.states)
        assert np.array_equal(x.actions, y.actions)
        assert x.outcome_alive == y.outcome_alive
    for k in ta.severity:
        assert np.array_equal(ta.severity[k], tb.severity[k])


def test_different_seeds_differ():
    a, _ = generate(SynthConfig(n_patients=5, T=10, n_features=10, seed=0))
    b, _ = generate(SynthConfig(n_patients=5, T=10, n_features=10, seed=1))
    assert not np.array_equal(a.trajectories[0].states, b.trajectories[0].states)


def test_schema_layout():
    schema = make_schema(12)
    assert schema.names[:8] == ("mean_bp", "sbp", "heart_rate", "lactate",
                                "resp_rate", "temperature", "age", "mech_vent")
    assert schema.kinds[6] == "demographic" and schema.kinds[7] == "binary"
    assert schema.log_normalized[3] is True  # lactate on the log scale
    assert set(schema.attributes) == {"gender", "ethnicity"}


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_patients=0)
    with pytest.raises(ValueError):
        SynthConfig(T=2)
    with pytest.raises(ValueError):
        SynthConfig(n_features=4)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="disparity_delta"):
            SynthConfig(disparity_delta=bad)


def test_policy_floor_zeroes_low_propensity():
    # far below the logistic center the propensity drops under the floor
    assert FLUID_POLICY.dose(-5.0) == 0.0
    assert VASO_POLICY.dose(-5.0) == 0.0
    assert FLUID_POLICY.dose(3.0) > 0.9 * FLUID_POLICY.max_dose


def test_planted_disparity_matches_policy_oracle():
    """The realized subgroup vasopressor gap matches the noiseless-policy
    expectation, because dose noise is mean-one multiplicative."""
    cfg = SynthConfig(n_patients=800, T=60, n_features=10, seed=5,
                      disparity_delta=0.5)
    cohort, truth = generate(cfg)
    by = {"F": [], "M": []}
    for tr in cohort.trajectories:
        by[tr.attributes["gender"]].append(tr.actions[:, 1])
    realized_gap = (np.concatenate(by["M"]).mean()
                    - np.concatenate(by["F"]).mean())
    expected = expected_vaso_gap(truth, cohort)
    assert expected > 0.01  # the disparity is material
    assert realized_gap == pytest.approx(expected, rel=0.15)


def test_no_disparity_when_delta_zero():
    cfg = SynthConfig(n_patients=800, T=60, n_features=10, seed=5,
                      disparity_delta=0.0)
    cohort, truth = generate(cfg)
    assert expected_vaso_gap(truth, cohort) == pytest.approx(0.0, abs=0.01)


def test_inject_missingness_rate_and_retention(small_cohort):
    masked = inject_missingness(small_cohort, rate=0.3, seed=9)
    total, missing = 0, 0
    demo_cols = [j for j, k in enumerate(small_cohort.schema.kinds)
                 if k == "demographic"]
    for tr in masked.trajectories:
        total += tr.states.size
        missing += int(np.isnan(tr.states).sum())
        for j in demo_cols:
            assert not np.any(np.isnan(tr.states[:, j]))
        for j in range(tr.states.shape[1]):
            if j not in demo_cols:
                assert np.any(~np.isnan(tr.states[:, j]))  # >=1 observation kept
    assert 0.2 < missing / total < 0.35
    with pytest.raises(ValueError):
        inject_missingness(small_cohort, rate=1.5, seed=0)


MASK_SCHEMA = FeatureSchema(names=("hr", "lact", "age", "vent"),
                            kinds=("vital", "lab", "demographic", "binary"),
                            log_normalized=(False, True, False, False), attributes={})


@st.composite
def _premasked_cohorts(draw):
    """Encounters of T steps whose cells are already missing at random,
    some features wholly."""
    T = draw(st.integers(1, 6))
    trajs = []
    for i in range(draw(st.integers(1, 6))):
        states = np.arange(4.0 * T).reshape(T, 4) + i
        states[np.array(draw(st.lists(st.booleans(), min_size=4 * T, max_size=4 * T)))
               .reshape(T, 4)] = np.nan
        trajs.append(PatientTrajectory(id=f"e{i}", attributes={}, states=states,
                                       actions=np.ones((T, 2))))
    return CohortDataset.from_trajectories(MASK_SCHEMA, trajs)


def _with_recorded_generators(run, *args):
    """``run(*args)`` and every generator np.random.default_rng made in it."""
    made, make = [], np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(make(seed)) or made[-1])
        return run(*args), made


@settings(deadline=None, max_examples=150)
@given(_premasked_cohorts(), st.sampled_from((0.0, 0.1, 0.5, 0.8, 0.9, 0.95)),
       st.integers(0, 2**32 - 1))
def test_inject_missingness_equals_per_feature_reference(cohort, rate, seed):
    got, (rng,) = _with_recorded_generators(inject_missingness, cohort, rate, seed)
    want, (ref_rng,) = _with_recorded_generators(references.inject_missingness,
                                                 cohort, rate, seed)
    for g, w in zip(got.trajectories, want.trajectories, strict=True):
        assert g.states.tobytes() == w.states.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws


@pytest.mark.parametrize("T", [4, 5])
def test_inject_missingness_wipe_keeps_one_observation_per_feature(T):
    # at rate 0.95 the mask takes every cell of most features; each keeps one
    states = np.arange(4.0 * T).reshape(T, 4)
    cohort = CohortDataset.from_trajectories(MASK_SCHEMA, [
        PatientTrajectory(id=f"e{i}", attributes={}, states=states + i,
                          actions=np.ones((T, 2))) for i in range(40)])
    got, (rng,) = _with_recorded_generators(inject_missingness, cohort, 0.95, 3)
    want, (ref_rng,) = _with_recorded_generators(references.inject_missingness,
                                                 cohort, 0.95, 3)
    kept = np.array([(~np.isnan(tr.states)).sum(axis=0) for tr in got.trajectories])
    assert (kept[:, [0, 1, 3]] >= 1).all() and (kept[:, [0, 1, 3]] == 1).mean() > 0.5
    assert (kept[:, 2] == T).all()  # demographic: never masked
    for g, w in zip(got.trajectories, want.trajectories, strict=True):
        assert g.states.tobytes() == w.states.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_inject_missingness_skips_a_feature_with_no_observation():
    # the lab of encounter "a" is never observed: nothing to keep, no draw
    states = np.arange(12.0).reshape(3, 4)
    states[:, 1] = np.nan
    trajs = [PatientTrajectory(id="a", attributes={}, states=states, actions=np.ones((3, 2))),
             PatientTrajectory(id="b", attributes={}, states=np.ones((3, 4)),
                               actions=np.ones((3, 2)))]
    cohort = CohortDataset.from_trajectories(MASK_SCHEMA, trajs)
    masked = inject_missingness(cohort, rate=0.9, seed=0)
    a, b = masked.trajectories
    assert np.isnan(a.states[:, 1]).all()
    for tr in (a, b):
        assert (~np.isnan(tr.states[:, [0, 3]])).any(axis=0).all()
        assert not np.isnan(tr.states[:, 2]).any()
    want = references.inject_missingness(cohort, rate=0.9, seed=0)
    for g, w in zip(masked.trajectories, want.trajectories):
        assert g.states.tobytes() == w.states.tobytes()


def test_ground_truth_json_round_trip(tmp_path, small_truth):
    path = tmp_path / "gt.json"
    save_ground_truth(small_truth, path)
    back = load_ground_truth(path)
    assert back.disparity_delta == small_truth.disparity_delta
    assert back.vaso_policy == small_truth.vaso_policy
    for k in small_truth.severity:
        assert np.allclose(back.severity[k], small_truth.severity[k])


def test_mortality_is_severity_linked():
    # put the mortality threshold inside the realized severity range so the
    # death probability actually varies across patients
    cfg = SynthConfig(n_patients=600, T=60, n_features=10, seed=2,
                      mortality_threshold=0.45, mortality_slope=6.0)
    cohort, truth = generate(cfg)
    dead_sev = [truth.severity[tr.id][-1] for tr in cohort.trajectories
                if not tr.outcome_alive]
    alive_sev = [truth.severity[tr.id][-1] for tr in cohort.trajectories
                 if tr.outcome_alive]
    assert len(dead_sev) >= 30 and len(alive_sev) >= 30
    assert np.mean(dead_sev) > np.mean(alive_sev)
