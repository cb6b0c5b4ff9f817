"""Transition model: history windows, training, rollout safety, storage."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy.bc import build_dataset
from cfpolicy.dynamics import (STATE_CLIP, WINDOW, DynHyperParams, TransitionModel,
                               _collect_windows, eval_dynamics_mse, load_dynamics,
                               rollout, save_dynamics, state_window, train_dynamics,
                               window_arrays)
from cfpolicy.errors import EmptySubgroupError, RolloutBlowupError


def reference_window(states, actions, t):
    """One timestep's (3, M) state and (3, 2) action windows, built slot by
    slot: the windowing rule the vectorized routines must reproduce."""
    s = np.empty((WINDOW, states.shape[1]))
    a = np.zeros((WINDOW, 2))
    for k in range(WINDOW):
        idx = t - (WINDOW - 1 - k)
        if idx < 0:
            s[k] = states[0]
        else:
            s[k] = states[idx]
            a[k] = actions[idx]
    return s, a


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
        every = state_window(states, np.arange(T))
        assert every.shape == (T, 3, 3)
        for t in range(T):
            s, _ = window_arrays(states, np.zeros((T, 2)), t)
            assert np.array_equal(state_window(states, t), s)
            assert np.array_equal(every[t], s)


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def trajectory_arrays(draw):
    T = draw(st.integers(1, 8))
    M = draw(st.integers(1, 4))
    states = np.array(draw(st.lists(finite, min_size=T * M, max_size=T * M))).reshape(T, M)
    # negative actions: padding by multiplying with a 0/1 mask would give
    # -0.0 where the rule asks for +0.0, and tobytes() tells the two apart
    actions = np.array(draw(st.lists(finite, min_size=2 * T, max_size=2 * T))).reshape(T, 2)
    return states, actions


@settings(max_examples=150, deadline=None)
@given(trajectory_arrays())
@example((np.arange(6.0).reshape(3, 2), np.array([[-1.0, -0.0], [2.0, -3.0], [-0.0, 4.0]])))
def test_windows_equal_loop_reference_bytewise(arrays):
    states, actions = arrays
    T = len(states)
    ref = [reference_window(states, actions, t) for t in range(T)]
    for t in range(T):
        s, a = window_arrays(states, actions, t)
        assert s.tobytes() == ref[t][0].tobytes()
        assert a.tobytes() == ref[t][1].tobytes()
        assert state_window(states, t).tobytes() == ref[t][0].tobytes()
    s, a = window_arrays(states, actions, np.arange(T))
    assert s.tobytes() == np.stack([r[0] for r in ref]).tobytes()
    assert a.tobytes() == np.stack([r[1] for r in ref]).tobytes()
    assert state_window(states, np.arange(T)).tobytes() == s.tobytes()


def _ragged(cohort, lengths):
    trajs = [replace(tr, states=tr.states[:T], actions=tr.actions[:T],
                     action_bins=tr.action_bins[:T], mortality_step=None,
                     outcome_alive=True)
             for tr, T in zip(cohort.trajectories, lengths)]
    return replace(cohort, trajectories=trajs)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=60, max_size=60))
@example([1] * 60)  # every encounter T=1: no transitions at all
def test_cohort_windows_equal_reference_concatenation(proc_cohort, lengths):
    cohort = _ragged(proc_cohort, lengths)
    trajs = cohort.by_split("train")
    refs = [[reference_window(tr.states, tr.actions, t) for t in range(tr.T)] for tr in trajs]
    X, Y = build_dataset(cohort, "train", "regression")
    assert X.tobytes() == np.stack([r[0].reshape(-1) for rs in refs for r in rs]).tobytes()
    assert Y.tobytes() == np.concatenate([tr.actions for tr in trajs]).tobytes()
    _, labels = build_dataset(cohort, "train", "classification")
    assert labels.dtype == np.int64
    assert np.array_equal(labels, np.concatenate([tr.action_bins for tr in trajs]))

    pairs = [(np.concatenate(rs[t], axis=1), tr.states[t + 1] - tr.states[t])
             for tr, rs in zip(trajs, refs) for t in range(tr.T - 1)]
    if not pairs:
        with pytest.raises(EmptySubgroupError, match="'train'"):
            _collect_windows(cohort, "train")
        return
    Xd, Yd = _collect_windows(cohort, "train")
    assert Xd.tobytes() == np.stack([x for x, _ in pairs]).tobytes()
    assert Yd.tobytes() == np.stack([y for _, y in pairs]).tobytes()


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
    assert back.norm_stats.to_json() == tiny_dyn.norm_stats.to_json()
    assert back.binning.to_json() == tiny_dyn.binning.to_json()

