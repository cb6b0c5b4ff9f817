"""State-transition environment model: 3-step history -> next-state delta.

The history window carries the state-action pairs of the previous three
timesteps including the current action, so the model is action-conditional
at time t. Missing history at t < 2 repeats the earliest state with zero
actions. Rollout states are clipped to +/-8 normalized units to stop
compounding-error blowups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cohort import CohortDataset
from .errors import RolloutBlowupError
from .numcore import Adam, RecurrentRegressor, fit, load_checkpoint, mse_loss, save_checkpoint

WINDOW = 3
STATE_CLIP = 8.0


def window_arrays(states: np.ndarray, actions: np.ndarray, t: int):
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


def state_window(states: np.ndarray, t: int) -> np.ndarray:
    """States-only observation window (3, M), repeat-earliest padded."""
    idx = np.maximum(np.arange(t - WINDOW + 1, t + 1), 0)
    return states[idx]


def state_windows(states: np.ndarray) -> np.ndarray:
    """Every states-only window of one trajectory, (T, 3, M); entry t
    equals ``state_window(states, t)``."""
    idx = np.maximum(np.arange(len(states))[:, None] + np.arange(1 - WINDOW, 1), 0)
    return states[idx]


@dataclass
class DynHyperParams:
    epochs: int = 15
    batch: int = 64
    lr: float = 3e-4
    hidden: int = 64
    seed: int = 0
    max_windows: Optional[int] = None  # subsample training windows for speed


@dataclass
class TransitionModel:
    net: RecurrentRegressor
    n_features: int
    history: list = field(default_factory=list)  # per-epoch train/val MSE

    def predict_delta(self, windows: np.ndarray) -> np.ndarray:
        """windows: (B, 3, M+2) -> (B, M) state deltas."""
        return self.net.forward(windows, train=False)

    def step(self, state: np.ndarray, window: np.ndarray) -> np.ndarray:
        delta = self.predict_delta(window[None])[0]
        return np.clip(state + delta, -STATE_CLIP, STATE_CLIP)


def _collect_windows(trajs, max_windows=None, rng=None):
    xs, ys = [], []
    for tr in trajs:
        for t in range(tr.T - 1):
            s, a = window_arrays(tr.states, tr.actions, t)
            xs.append(np.concatenate([s, a], axis=1))
            ys.append(tr.states[t + 1] - tr.states[t])
    X = np.stack(xs)
    Y = np.stack(ys)
    if max_windows is not None and len(X) > max_windows:
        keep = rng.choice(len(X), max_windows, replace=False)
        X, Y = X[keep], Y[keep]
    return X, Y


def train_dynamics(cohort: CohortDataset, hp: DynHyperParams = DynHyperParams()) -> TransitionModel:
    """Fit the delta regressor by MSE on train-split windows; keeps the
    best-validation parameter snapshot."""
    rng = np.random.default_rng(hp.seed)
    M = cohort.schema.n_features
    X, Y = _collect_windows(cohort.by_split("train"), hp.max_windows, rng)
    Xv, Yv = _collect_windows(cohort.by_split("val"), hp.max_windows, rng)

    net = RecurrentRegressor(M + 2, hp.hidden, M, rng)
    opt = Adam(net.params().values(), lr=hp.lr)
    losses = fit(net, opt, mse_loss, X, Y, Xv, Yv, epochs=hp.epochs, batch=hp.batch,
                 rng=rng)
    history = [{"epoch": epoch, "train_mse": train, "val_mse": val}
               for epoch, (train, val) in enumerate(losses)]
    return TransitionModel(net=net, n_features=M, history=history)


def eval_dynamics_mse(model: TransitionModel, cohort: CohortDataset, split: str = "test"):
    """(model MSE, predict-zero-delta baseline MSE) over a split."""
    X, Y = _collect_windows(cohort.by_split(split))
    mse_model, _ = mse_loss(model.predict_delta(X), Y)
    mse_zero, _ = mse_loss(np.zeros_like(Y), Y)
    return mse_model, mse_zero


def rollout(model: TransitionModel, policy: Callable[[np.ndarray], np.ndarray],
            init_states: np.ndarray, horizon: int,
            reward_fn: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], float]] = None,
            init_actions: Optional[np.ndarray] = None):
    """Alternate policy actions and model steps for ``horizon`` transitions.

    ``policy`` maps the (3, M) state window to a normalized action pair;
    ``reward_fn(s, a, s_next)`` attaches r_{t+1} (zero when omitted).
    Returns a list of (s_t, a_t, r, s_{t+1}) tuples.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    states = [np.asarray(s, dtype=np.float64) for s in init_states]
    if len(states) != WINDOW:
        raise ValueError(f"init_states must hold {WINDOW} states")
    actions = ([np.zeros(2), np.zeros(2)] if init_actions is None
               else [np.asarray(a, dtype=np.float64) for a in init_actions])
    transitions = []
    for step in range(horizon):
        s_win = np.stack(states[-WINDOW:])
        a_t = np.asarray(policy(s_win), dtype=np.float64)
        a_win = np.stack(actions[-(WINDOW - 1):] + [a_t])
        window = np.concatenate([s_win, a_win], axis=1)
        s_next = model.step(states[-1], window)
        if not np.all(np.isfinite(s_next)):
            raise RolloutBlowupError(step)
        r = 0.0 if reward_fn is None else float(reward_fn(states[-1], a_t, s_next))
        transitions.append((states[-1].copy(), a_t, r, s_next.copy()))
        states.append(s_next)
        actions.append(a_t)
    return transitions


def save_dynamics(model: TransitionModel, path) -> None:
    meta = {"kind": "transition_model", "n_features": model.n_features,
            "n_in": model.net.n_in, "hidden": model.net.hidden,
            "history": model.history}
    save_checkpoint(path, model.net.state(), meta)


def load_dynamics(path) -> TransitionModel:
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "transition_model":
        raise ValueError(f"{path} is not a transition-model checkpoint")
    net = RecurrentRegressor(meta["n_in"], meta["hidden"], meta["n_features"],
                             np.random.default_rng(0))
    net.load_state(arrays)
    return TransitionModel(net=net, n_features=meta["n_features"],
                           history=meta["history"])

