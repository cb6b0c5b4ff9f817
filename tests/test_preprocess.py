"""Normalization, imputation, binning, and dose-equivalence behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from cfpolicy.cohort import SPLIT_TAGS, CohortDataset, FeatureSchema, PatientTrajectory
from cfpolicy.errors import CfPolicyError, DegenerateBinningError, MissingFeatureError
from cfpolicy.preprocess import (ActionBinning, N_ACTIONS, N_BINS_PER_DRUG,
                                 NormStats, _bin_dose, action_index_to_doses,
                                 bin_actions_batch, denormalize_actions, fit_binning,
                                 fit_norm_stats, invert_norm_feature,
                                 norepi_equivalent, normalize_actions,
                                 preprocess_cohort)
from references import apply_norm, impute


# ---------------------------------------------------------------------------
# normalization


def test_fit_norm_stats_matches_manual_oracle(small_cohort):
    stats = fit_norm_stats(small_cohort)
    train = small_cohort.split_of("train").trajectories
    alls = np.concatenate([tr.states for tr in train], axis=0)
    for j, (name, kind, logf) in enumerate(zip(small_cohort.schema.names,
                                               small_cohort.schema.kinds,
                                               small_cohort.schema.log_normalized)):
        col = alls[:, j]
        col = col[~np.isnan(col)]
        vals = np.log1p(col) if logf else col
        if kind == "binary":
            assert stats.means[j] == 0.0 and stats.stds[j] == 1.0
        else:
            assert stats.means[j] == pytest.approx(vals.mean(), abs=1e-12)
            assert stats.stds[j] == pytest.approx(vals.std(ddof=0), abs=1e-12)
        assert stats.raw_means[j] == pytest.approx(col.mean(), abs=1e-12)


def test_norm_round_trip_below_1e9(small_cohort):
    stats = fit_norm_stats(small_cohort)
    binary = np.array([k == "binary" for k in small_cohort.schema.kinds])
    tr = small_cohort.trajectories[0]
    normed = apply_norm(tr, stats, binary=binary)
    for j in range(tr.states.shape[1]):
        if binary[j]:
            assert np.array_equal(normed.states[:, j], tr.states[:, j])
            continue
        back = invert_norm_feature(stats, j, normed.states[:, j])
        assert np.max(np.abs(back - tr.states[:, j])) < 1e-9
    back_actions = denormalize_actions(stats, normed.actions)
    assert np.max(np.abs(back_actions - tr.actions)) < 1e-9


def test_zero_variance_feature_maps_to_zero():
    schema = FeatureSchema(names=("flat", "x"), kinds=("lab", "lab"),
                           log_normalized=(False, False), attributes={})
    trajs = [PatientTrajectory(id=str(i), attributes={},
                               states=np.column_stack([np.full(4, 3.0),
                                                       np.arange(4.0) + i]),
                               actions=np.ones((4, 2)))
             for i in range(5)]
    cohort = CohortDataset.from_trajectories(schema, trajs,
                                             split=np.full(5, "train", dtype=object))
    stats = fit_norm_stats(cohort)
    normed = apply_norm(trajs[0], stats)
    assert np.all(normed.states[:, 0] == 0.0)


def test_missing_feature_error():
    schema = FeatureSchema(names=("x",), kinds=("lab",),
                           log_normalized=(False,), attributes={})
    tr = PatientTrajectory(id="a", attributes={},
                           states=np.full((3, 1), np.nan), actions=np.ones((3, 2)))
    cohort = CohortDataset.from_trajectories(schema, [tr], split=np.array(["train"], object))
    with pytest.raises(MissingFeatureError):
        fit_norm_stats(cohort)


def test_normalize_stats_json_round_trip(small_cohort):
    stats = fit_norm_stats(small_cohort)
    back = NormStats.from_json(stats.to_json())
    assert np.array_equal(back.means, stats.means)
    assert np.array_equal(back.stds, stats.stds)
    assert np.array_equal(back.log_flags, stats.log_flags)
    assert np.array_equal(back.action_mean, stats.action_mean)


# ---------------------------------------------------------------------------
# imputation


def _stats_for(n_features):
    return NormStats(means=np.zeros(n_features), stds=np.ones(n_features),
                     log_flags=np.zeros(n_features, dtype=bool),
                     raw_means=np.full(n_features, 5.0),
                     action_mean=np.zeros(2), action_std=np.ones(2))


def test_impute_rules():
    nan = float("nan")
    tr = PatientTrajectory(
        id="a", attributes={},
        states=np.array([[nan, 1.0], [2.0, nan], [nan, 3.0], [8.0, nan]]),
        actions=np.zeros((4, 2)))
    filled = impute(tr, _stats_for(2))
    # col 0: fallback-before-first, linear gap 2 -> 8
    assert np.allclose(filled.states[:, 0], [5.0, 2.0, 5.0, 8.0])
    # col 1: interior interpolation and carry-forward at the tail
    assert np.allclose(filled.states[:, 1], [1.0, 2.0, 3.0, 3.0])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_impute_idempotent(seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(8, 3))
    states[rng.random(states.shape) < 0.5] = np.nan
    tr = PatientTrajectory(id="a", attributes={}, states=states,
                           actions=np.zeros((8, 2)))
    once = impute(tr, _stats_for(3))
    assert not np.any(np.isnan(once.states))
    twice = impute(once, _stats_for(3))
    assert np.array_equal(once.states, twice.states)


# ---------------------------------------------------------------------------
# binning


def test_bin_dose_rules():
    cuts = np.array([1.0, 2.0, 3.0])
    doses = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0])
    # zero -> bin 0; values at a cutoff stay in the lower bin (strictly-below rule)
    assert np.array_equal(_bin_dose(doses, cuts), [0, 1, 1, 2, 2, 3, 3, 4])


def test_joint_index_layout():
    binning = ActionBinning(fluid_cutoffs=np.array([1.0, 2.0, 3.0]),
                            vaso_cutoffs=np.array([0.1, 0.2, 0.3]),
                            fluid_levels=np.arange(5.0), vaso_levels=np.arange(5.0) / 10)
    doses = np.array([[0.0, 0.0], [99.0, 99.0], [1.5, 0.0], [0.0, 0.15], [1.5, 0.15]])
    assert bin_actions_batch(doses, binning).tolist() == [
        0, N_ACTIONS - 1, 2 * N_BINS_PER_DRUG, 2, 2 * N_BINS_PER_DRUG + 2]


@settings(deadline=None, max_examples=50)
@given(st.floats(0, 100), st.floats(0, 100))
def test_bin_monotone_in_dose(a, b):
    cuts = np.array([10.0, 20.0, 40.0])
    lo, hi = sorted((a, b))
    assert _bin_dose(np.array(lo), cuts) <= _bin_dose(np.array(hi), cuts)


def test_quantile_mass_within_tolerance(rng):
    """Each nonzero bin holds 25 +/- 5 % of the nonzero mass on 10^4 doses."""
    doses = np.concatenate([np.zeros(2000), rng.lognormal(1.0, 1.0, 8000)])
    rng.shuffle(doses)
    actions = np.column_stack([doses, doses])
    trajs = [PatientTrajectory(id=str(i), attributes={},
                               states=np.zeros((100, 1)),
                               actions=actions[i * 100:(i + 1) * 100])
             for i in range(100)]
    schema = FeatureSchema(names=("x",), kinds=("lab",), log_normalized=(False,),
                           attributes={})
    cohort = CohortDataset.from_trajectories(schema, trajs,
                                             split=np.full(100, "train", dtype=object))
    binning = fit_binning(cohort)
    bins = _bin_dose(doses[doses > 0], binning.fluid_cutoffs)
    for b in range(1, 5):
        frac = np.mean(bins == b)
        assert abs(frac - 0.25) <= 0.05, f"bin {b} holds {frac:.3f}"


def test_degenerate_binning():
    schema = FeatureSchema(names=("x",), kinds=("lab",), log_normalized=(False,),
                           attributes={})
    tr = PatientTrajectory(id="a", attributes={}, states=np.zeros((5, 1)),
                           actions=np.zeros((5, 2)))
    cohort = CohortDataset.from_trajectories(schema, [tr], split=np.array(["train"], object))
    with pytest.raises(DegenerateBinningError):
        fit_binning(cohort)


def test_binning_json_round_trip(proc_cohort):
    binning = proc_cohort.binning
    back = ActionBinning.from_json(binning.to_json())
    assert np.array_equal(back.fluid_cutoffs, binning.fluid_cutoffs)
    assert np.array_equal(back.vaso_levels, binning.vaso_levels)
    assert binning.to_json()["quantile_convention"] == "linear"


def test_action_index_round_trips_through_levels(proc_cohort):
    binning = proc_cohort.binning
    idx = np.arange(N_ACTIONS)
    doses = action_index_to_doses(idx, binning)
    assert np.array_equal(bin_actions_batch(doses, binning), idx)


# ---------------------------------------------------------------------------
# vasopressor equivalence


def test_norepi_conversions_exact():
    assert norepi_equivalent("norepinephrine", 0.37) == 0.37
    assert norepi_equivalent("phenylephrine", 7.0) == 7.0 / 10.0
    assert norepi_equivalent("dopamine", 7.0) == 7.0 / 100.0
    assert norepi_equivalent("vasopressin", 0.04) == 0.04 * 2.5
    assert norepi_equivalent("Dopamine", 300.0) == 3.0  # case-insensitive


def test_norepi_pass_through_warns():
    with pytest.warns(UserWarning, match="dobutamine"):
        assert norepi_equivalent("dobutamine", 5.0) == 5.0
    with pytest.warns(UserWarning, match="milrinone"):
        assert norepi_equivalent("milrinone", 0.5) == 0.5


def test_norepi_rejects_bad_input():
    with pytest.raises(ValueError):
        norepi_equivalent("norepinephrine", -1.0)
    with pytest.raises(ValueError):
        norepi_equivalent("adrenaline_like_unknown", 1.0)


# ---------------------------------------------------------------------------
# pipeline


def test_preprocess_cohort_end_to_end(small_cohort):
    proc = preprocess_cohort(small_cohort)
    assert proc.norm_stats is not None and proc.binning is not None
    for tr in proc.trajectories:
        assert not np.any(np.isnan(tr.states))
        assert tr.action_bins is not None
        assert tr.action_bins.min() >= 0 and tr.action_bins.max() < N_ACTIONS
    # train-split features should be near zero-mean unit-variance
    train = np.concatenate([tr.states for tr in proc.split_of("train").trajectories], axis=0)
    nonbinary = [j for j, k in enumerate(proc.schema.kinds)
                 if k not in ("binary",)]
    # demographic age is constant per patient but varies across; check vitals
    j = proc.schema.index("heart_rate")
    assert abs(train[:, j].mean()) < 1e-9
    assert train[:, j].std() == pytest.approx(1.0, abs=1e-9)
    assert nonbinary  # sanity


# features of every kind the pipeline treats apart: plain, log-normalized,
# zero-variance (one value), binary, demographic (constant per encounter)
BLOCK_SCHEMA = FeatureSchema(
    names=("hr", "lact", "flat", "vent", "age"),
    kinds=("vital", "lab", "lab", "binary", "demographic"),
    log_normalized=(False, True, False, False, False), attributes={})
_VALUES = (st.floats(-50, 250), st.floats(0, 1e3), st.just(3.0), st.sampled_from([0.0, 1.0]))


@st.composite
def ragged_raw_cohorts(draw):
    """Encounters of 1..6 steps whose cells are missing at random, some
    series wholly, with leading and trailing gaps; doses zero or not."""
    trajs, split = [], []
    for i in range(draw(st.integers(1, 6))):
        T = draw(st.integers(1, 6))
        missing = st.lists(st.booleans(), min_size=T, max_size=T)
        states = np.array([[draw(v) for v in _VALUES] + [40.0 + i] for _ in range(T)])
        for j in range(5):
            states[np.array(draw(missing)), j] = np.nan
        doses = st.one_of(st.just(0.0), st.floats(0, 10))
        actions = np.array(draw(st.lists(doses, min_size=2 * T, max_size=2 * T))).reshape(T, 2)
        trajs.append(PatientTrajectory(id=f"e{i}", attributes={}, states=states, actions=actions))
        split.append("train" if i == 0 else draw(st.sampled_from(SPLIT_TAGS)))
    return CohortDataset.from_trajectories(BLOCK_SCHEMA, trajs, split=np.array(split, object))


def _run(preprocess, cohort):
    try:
        return preprocess(cohort)
    except CfPolicyError as exc:
        return exc


@settings(deadline=None, max_examples=300)
@given(ragged_raw_cohorts())
def test_preprocess_cohort_equals_per_encounter_reference(cohort):
    got, want = _run(preprocess_cohort, cohort), _run(references.preprocess_cohort, cohort)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.norm_stats.to_json() == want.norm_stats.to_json()
    assert got.binning.to_json() == want.binning.to_json()
    assert got.split.tolist() == want.split.tolist()
    for g, w in zip(got.trajectories, want.trajectories, strict=True):
        assert (g.id, g.attributes, g.mortality_step, g.outcome_alive) == \
            (w.id, w.attributes, w.mortality_step, w.outcome_alive)
        for name in ("states", "actions", "action_bins"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
