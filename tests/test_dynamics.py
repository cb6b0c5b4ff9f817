"""Transition model: history windows, training, rollout safety, storage."""

import numpy as np
import pytest

from cfpolicy.dynamics import (STATE_CLIP, DynHyperParams, TransitionModel,
                               eval_dynamics_mse, load_dynamics, rollout,
                               save_dynamics, state_window, state_windows,
                               train_dynamics, window_arrays)
from cfpolicy.errors import RolloutBlowupError


def test_window_padding_rule(rng):
    states = rng.normal(size=(6, 4))
    actions = rng.normal(size=(6, 2))
    # t=0: earliest state repeated, actions zero except the current slot
    s, a = window_arrays(states, actions, 0)
    assert np.array_equal(s, np.stack([states[0]] * 3))
    assert np.array_equal(a, np.stack([np.zeros(2), np.zeros(2), actions[0]]))
    # t=1: one pad row
    s, a = window_arrays(states, actions, 1)
    assert np.array_equal(s, np.stack([states[0], states[0], states[1]]))
    assert np.array_equal(a, np.stack([np.zeros(2), actions[0], actions[1]]))
    # t>=2: plain slice
    s, a = window_arrays(states, actions, 4)
    assert np.array_equal(s, states[2:5])
    assert np.array_equal(a, actions[2:5])


def test_state_window_matches_window_arrays(rng):
    for T in (1, 2, 5):
        states = rng.normal(size=(T, 3))
        every = state_windows(states)
        assert every.shape == (T, 3, 3)
        for t in range(T):
            s, _ = window_arrays(states, np.zeros((T, 2)), t)
            assert np.array_equal(state_window(states, t), s)
            assert np.array_equal(every[t], s)


@pytest.fixture(scope="module")
def tiny_dyn(proc_cohort):
    hp = DynHyperParams(epochs=4, seed=0, max_windows=1200)
    return train_dynamics(proc_cohort, hp)


def test_training_keeps_best_validation(tiny_dyn):
    vals = [h["val_mse"] for h in tiny_dyn.history]
    assert len(vals) == 4
    assert min(vals) <= vals[0]


def test_eval_returns_model_and_zero_baseline(tiny_dyn, proc_cohort):
    mse_model, mse_zero = eval_dynamics_mse(tiny_dyn, proc_cohort, "test")
    assert mse_model > 0 and mse_zero > 0
    assert mse_model < mse_zero  # even a lightly trained model beats zero


def test_rollout_structure_and_clipping(tiny_dyn, proc_cohort):
    tr = proc_cohort.by_split("test")[0]
    init = [tr.states[0]] * 3
    steps = rollout(tiny_dyn, lambda w: np.zeros(2), init, horizon=20,
                    reward_fn=lambda s, a, sn: 1.0)
    assert len(steps) == 20
    for s, a, r, sn in steps:
        assert r == 1.0
        assert np.all(np.isfinite(sn))
        assert np.all(np.abs(sn) <= STATE_CLIP)
    # consecutive states chain: s_{t+1} of one tuple is s_t of the next
    assert np.array_equal(steps[0][3], steps[1][0])


def test_rollout_validation(tiny_dyn, proc_cohort):
    tr = proc_cohort.trajectories[0]
    with pytest.raises(ValueError):
        rollout(tiny_dyn, lambda w: np.zeros(2), [tr.states[0]] * 3, horizon=0)
    with pytest.raises(ValueError):
        rollout(tiny_dyn, lambda w: np.zeros(2), [tr.states[0]] * 2, horizon=1)


def test_rollout_blowup_detection(tiny_dyn, proc_cohort, monkeypatch):
    tr = proc_cohort.trajectories[0]
    M = proc_cohort.schema.n_features
    monkeypatch.setattr(TransitionModel, "predict_delta",
                        lambda self, w: np.full((len(w), M), np.nan))
    with pytest.raises(RolloutBlowupError) as exc:
        rollout(tiny_dyn, lambda w: np.zeros(2), [tr.states[0]] * 3, horizon=5)
    assert exc.value.step == 0


def test_dynamics_save_load_round_trip(tmp_path, tiny_dyn, rng):
    path = tmp_path / "dyn.npz"
    save_dynamics(tiny_dyn, path)
    back = load_dynamics(path)
    x = rng.normal(size=(4, 3, tiny_dyn.n_features + 2))
    assert np.array_equal(back.predict_delta(x), tiny_dyn.predict_delta(x))
    assert back.history == tiny_dyn.history

