"""Behavioral cloning: datasets, training, AUROC/RMSE evaluation, storage."""

import numpy as np
import pytest

from cfpolicy.bc import (REFERENCE_METRICS, BcHyperParams, binary_auroc,
                         build_dataset, eval_auroc, eval_report, eval_rmse,
                         load_policy, predict, save_policy, train_bc)
from cfpolicy.cohort import SubgroupKey
from cfpolicy.errors import SchemaMismatchError, UndefinedMetricError


def brute_auroc(scores, positives):
    """Pairwise comparison count with half credit for ties."""
    pos = [s for s, y in zip(scores, positives) if y]
    neg = [s for s, y in zip(scores, positives) if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_binary_auroc_matches_bruteforce(rng):
    for _ in range(30):
        n = int(rng.integers(5, 40))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)  # force ties
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        assert binary_auroc(scores, labels) == pytest.approx(
            brute_auroc(scores, labels), abs=1e-12)
    # tie-heavy: a few hundred scores rounded to one decimal share 11 values
    for _ in range(5):
        scores = np.round(rng.random(300), 1)
        labels = rng.random(300) < 0.3
        assert binary_auroc(scores, labels) == pytest.approx(
            brute_auroc(scores, labels), abs=1e-12)


def test_binary_auroc_edge_cases():
    assert binary_auroc([0.9, 0.1], [True, False]) == 1.0
    assert binary_auroc([0.1, 0.9], [True, False]) == 0.0
    assert binary_auroc([0.5, 0.5], [True, False]) == 0.5
    with pytest.raises(UndefinedMetricError):
        binary_auroc([0.5, 0.5], [True, True])


def test_reference_metrics_are_fixed_constants():
    assert REFERENCE_METRICS["binned_action_classification_auroc"] == {
        "mean": 0.83, "std": 0.01}
    assert REFERENCE_METRICS["continuous_action_regression_rmse_fluid"] == {
        "mean": 0.68, "std": 0.05}
    assert REFERENCE_METRICS["continuous_action_regression_rmse_vasopressor"] == {
        "mean": 0.41, "std": 0.06}


def test_build_dataset_window_padding(proc_cohort):
    X, Y = build_dataset(proc_cohort, "train", "classification")
    tr = proc_cohort.split_of("train").trajectories[0]
    M = proc_cohort.schema.n_features
    # at t=0 the 3-step window repeats the first state three times
    assert np.array_equal(X[0], np.tile(tr.states[0], 3))
    # at t=2 the window is states 0..2 in order
    assert np.array_equal(X[2], tr.states[0:3].reshape(-1))
    assert X.shape[1] == 3 * M
    assert Y[0] == tr.action_bins[0]


def test_build_dataset_regression_targets(proc_cohort):
    X, Y = build_dataset(proc_cohort, "train", "regression")
    tr = proc_cohort.split_of("train").trajectories[0]
    assert Y.shape[1] == 2
    assert np.array_equal(Y[1], tr.actions[1])


@pytest.fixture(scope="module")
def tiny_clf(proc_cohort):
    hp = BcHyperParams(epochs=6, seed=0, max_windows=800)
    return train_bc(proc_cohort, None, "classification", hp)


def test_training_reduces_loss(tiny_clf):
    losses = [h["train_loss"] for h in tiny_clf.history]
    assert losses[-1] < losses[0]


def test_predict_shapes_and_validation(tiny_clf, proc_cohort):
    M = proc_cohort.schema.n_features
    batch = predict(tiny_clf, np.zeros((4, 3 * M)))
    assert batch.shape == (4, 25) and batch.sum(axis=1) == pytest.approx(np.ones(4))
    # a wrong width, one unflattened window, (B, 3, M) windows
    for bad in (np.zeros((4, 3 * M + 1)), np.zeros(3 * M), np.zeros((4, 3, M))):
        with pytest.raises(SchemaMismatchError):
            predict(tiny_clf, bad)


def test_eval_auroc_and_report(tiny_clf, proc_cohort):
    macro, per_class, skipped = eval_auroc(tiny_clf, proc_cohort, "test")
    assert 0.0 <= macro <= 1.0
    assert set(per_class).isdisjoint(skipped)
    report = eval_report(tiny_clf, proc_cohort, "test")
    assert report["macro_auroc"] == macro
    assert report["reference_metrics"] is REFERENCE_METRICS


def test_rmse_requires_regression(tiny_clf, proc_cohort):
    with pytest.raises(ValueError):
        eval_rmse(tiny_clf, proc_cohort)


def test_subgroup_training_records_source(proc_cohort):
    hp = BcHyperParams(epochs=2, seed=0, max_windows=300)
    pol = train_bc(proc_cohort, SubgroupKey("gender", "M"), "classification", hp)
    assert pol.source_subgroup == SubgroupKey("gender", "M")


def test_policy_save_load_round_trip(tmp_path, tiny_clf, proc_cohort):
    path = tmp_path / "bc.npz"
    save_policy(tiny_clf, path)
    back = load_policy(path)
    M = proc_cohort.schema.n_features
    x = np.random.default_rng(4).normal(size=(6, 3 * M))
    assert np.array_equal(predict(back, x), predict(tiny_clf, x))
    assert back.mode == tiny_clf.mode
    assert np.array_equal(back.binning.fluid_cutoffs,
                          tiny_clf.binning.fluid_cutoffs)


def test_regression_training_beats_zero_on_train_split(proc_cohort):
    hp = BcHyperParams(epochs=10, seed=0, max_windows=1500)
    reg = train_bc(proc_cohort, None, "regression", hp)
    f_rmse, v_rmse = eval_rmse(reg, proc_cohort, "train")
    Y = np.asarray(build_dataset(proc_cohort, "train", "regression")[1])
    zero = np.sqrt(np.mean(Y * Y, axis=0))
    assert f_rmse < zero[0] and v_rmse < zero[1]
