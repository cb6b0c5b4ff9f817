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
    starts = np.stack([tr.states[0] for tr in proc_cohort.by_split("test")[:3]])
    init = np.stack([starts] * 3, axis=1)
    seen = []

    def policy(s_win):
        seen.append(s_win.copy())
        return np.zeros((len(s_win), 2))

    states, actions = rollout(tiny_dyn, policy, init, horizon=20)
    assert states.shape == (3, 21, proc_cohort.schema.n_features)
    assert actions.shape == (3, 20, 2) and not actions.any()
    assert np.array_equal(states[:, 0], starts)
    assert np.all(np.isfinite(states))
    assert np.all(np.abs(states[:, 1:]) <= STATE_CLIP)
    # each step's window chains the states the previous steps produced
    assert np.array_equal(seen[0], init)
    for t in range(1, 20):
        assert np.array_equal(seen[t][:, -1], states[:, t])
        assert np.array_equal(seen[t][:, :-1], seen[t - 1][:, 1:])


def test_rollout_episodes_step_independently(tiny_dyn, proc_cohort):
    """A batch of episodes gives each episode's one-episode rollout."""
    starts = np.stack([tr.states[0] for tr in proc_cohort.by_split("test")[:4]])
    init = np.stack([starts] * 3, axis=1)

    def policy(s_win):
        return np.tanh(s_win[:, -1, :2])

    batch, batch_actions = rollout(tiny_dyn, policy, init, horizon=6)
    for e in range(4):
        one, one_actions = rollout(tiny_dyn, policy, init[e:e + 1], horizon=6)
        assert np.allclose(one[0], batch[e], rtol=0, atol=1e-12)
        assert np.allclose(one_actions[0], batch_actions[e], rtol=0, atol=1e-12)


def test_rollout_validation(tiny_dyn, proc_cohort):
    s0 = proc_cohort.trajectories[0].states[0]
    zero = lambda w: np.zeros((len(w), 2))  # noqa: E731
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([[s0] * 3]), horizon=0)
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([[s0] * 2]), horizon=1)
    with pytest.raises(ValueError):
        rollout(tiny_dyn, zero, np.stack([s0] * 3), horizon=1)


def test_rollout_blowup_detection(tiny_dyn, proc_cohort, monkeypatch):
    s0 = proc_cohort.trajectories[0].states[0]
    M = proc_cohort.schema.n_features
    monkeypatch.setattr(TransitionModel, "predict_delta",
                        lambda self, w: np.full((len(w), M), np.nan))
    with pytest.raises(RolloutBlowupError) as exc:
        rollout(tiny_dyn, lambda w: np.zeros((len(w), 2)), np.stack([[s0] * 3]),
                horizon=5)
    assert exc.value.step == 0


def test_dynamics_save_load_round_trip(tmp_path, tiny_dyn, rng):
    path = tmp_path / "dyn.npz"
    save_dynamics(tiny_dyn, path)
    back = load_dynamics(path)
    x = rng.normal(size=(4, 3, tiny_dyn.n_features + 2))
    assert np.array_equal(back.predict_delta(x), tiny_dyn.predict_delta(x))
    assert back.history == tiny_dyn.history

