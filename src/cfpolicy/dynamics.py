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
from .errors import CfPolicyError, EmptySubgroupError, RolloutBlowupError
from .numcore import (Adam, RecurrentRegressor, fit, infer, load_checkpoint, mse_loss,
                      save_checkpoint)
from .preprocess import ActionBinning, NormStats

WINDOW = 3
STATE_CLIP = 8.0


def state_window(states: np.ndarray, t) -> np.ndarray:
    """States-only observation window(s), oldest step first: (3, M) for an
    int ``t``, (len(t), 3, M) for an int array. Timesteps before 0 repeat
    the earliest state."""
    idx = np.asarray(t)[..., None] + np.arange(1 - WINDOW, 1)
    return states[np.maximum(idx, 0)]


def window_arrays(states: np.ndarray, actions: np.ndarray, t):
    """State and action windows at ``t`` (int or int array), shaped like
    ``state_window``; actions before timestep 0 are zero."""
    idx = np.asarray(t)[..., None] + np.arange(1 - WINDOW, 1)
    a = np.where(idx[..., None] >= 0, actions[np.maximum(idx, 0)], 0.0)
    return state_window(states, t), a


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
    # the preprocessing of the training cohort, which a user must share
    norm_stats: Optional[NormStats] = None
    binning: Optional[ActionBinning] = None

    def predict_delta(self, windows: np.ndarray) -> np.ndarray:
        """windows: (B, 3, M+2) -> (B, M) state deltas."""
        return self.net.forward(windows, train=False)

    def step(self, state: np.ndarray, window: np.ndarray) -> np.ndarray:
        """state: (E, M), window: (E, 3, M+2) -> clipped next states (E, M)."""
        return np.clip(state + self.predict_delta(window), -STATE_CLIP, STATE_CLIP)


def _collect_windows(cohort: CohortDataset, split: str, max_windows=None, rng=None):
    """Every (window, next-state delta) pair of one split, in (trajectory, t)
    order."""
    xs, ys = [], []
    for tr in cohort.by_split(split):
        s, a = window_arrays(tr.states, tr.actions, np.arange(tr.T - 1))
        xs.append(np.concatenate([s, a], axis=2))
        ys.append(np.diff(tr.states, axis=0))
    if sum(len(x) for x in xs) == 0:
        raise EmptySubgroupError(f"split {split!r} has no state transitions")
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    if max_windows is not None and len(X) > max_windows:
        keep = rng.choice(len(X), max_windows, replace=False)
        X, Y = X[keep], Y[keep]
    return X, Y


def train_dynamics(cohort: CohortDataset, hp: DynHyperParams = DynHyperParams()) -> TransitionModel:
    """Fit the delta regressor by MSE on train-split windows; keeps the
    best-validation parameter snapshot."""
    rng = np.random.default_rng(hp.seed)
    M = cohort.schema.n_features
    X, Y = _collect_windows(cohort, "train", hp.max_windows, rng)
    Xv, Yv = _collect_windows(cohort, "val", hp.max_windows, rng)

    net = RecurrentRegressor(M + 2, hp.hidden, M, rng)
    opt = Adam(net.params().values(), lr=hp.lr)
    losses = fit(net, opt, mse_loss, X, Y, Xv, Yv, epochs=hp.epochs, batch=hp.batch,
                 rng=rng)
    history = [{"epoch": epoch, "train_mse": train, "val_mse": val}
               for epoch, (train, val) in enumerate(losses)]
    return TransitionModel(net=net, n_features=M, history=history,
                           norm_stats=cohort.norm_stats, binning=cohort.binning)


def eval_dynamics_mse(model: TransitionModel, cohort: CohortDataset, split: str = "test"):
    """(model MSE, predict-zero-delta baseline MSE) over a split, predicted
    by ``infer`` in bounded memory."""
    X, Y = _collect_windows(cohort, split)
    mse_model, _ = mse_loss(infer(model.net, X), Y)
    mse_zero, _ = mse_loss(np.zeros_like(Y), Y)
    return mse_model, mse_zero


def rollout(model: TransitionModel, policy: Callable[[np.ndarray], np.ndarray],
            init_states: np.ndarray, horizon: int):
    """Step E episodes together for ``horizon`` transitions.

    ``init_states`` is (E, 3, M): each episode's three history states,
    oldest first, whose actions count as zero. ``policy`` maps the (E, 3, M)
    state windows to (E, 2) normalized action pairs; each step is then one
    (E, 3, M+2) model forward. Returns ``(states, actions)``: states
    (E, horizon + 1, M) starting at the last initial state, and actions
    (E, horizon, 2), so step t goes from states[:, t] under actions[:, t]
    to states[:, t + 1].
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    init = np.asarray(init_states, dtype=np.float64)
    if init.ndim != 3 or init.shape[1] != WINDOW:
        raise ValueError(f"init_states must be (E, {WINDOW}, M), got {init.shape}")
    n_ep, _, M = init.shape
    # the history grows in place; slot t holds the state and action of time
    # t - (WINDOW - 1), so the initial states fill the first WINDOW slots
    states = np.empty((n_ep, WINDOW + horizon, M))
    states[:, :WINDOW] = init
    actions = np.zeros((n_ep, WINDOW - 1 + horizon, 2))
    for step in range(horizon):
        now = slice(step, step + WINDOW)
        t = step + WINDOW - 1
        actions[:, t] = policy(states[:, now])
        window = np.concatenate([states[:, now], actions[:, now]], axis=2)
        s_next = model.step(states[:, t], window)
        if not np.all(np.isfinite(s_next)):
            raise RolloutBlowupError(step)
        states[:, t + 1] = s_next
    return states[:, WINDOW - 1:], actions[:, WINDOW - 1:]


def save_dynamics(model: TransitionModel, path) -> None:
    meta = {"kind": "transition_model", "n_features": model.n_features,
            "n_in": model.net.n_in, "hidden": model.net.hidden,
            "history": model.history,
            "norm_stats": None if model.norm_stats is None else model.norm_stats.to_json(),
            "binning": None if model.binning is None else model.binning.to_json()}
    save_checkpoint(path, model.net.state(), meta)


def load_dynamics(path) -> TransitionModel:
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "transition_model":
        raise ValueError(f"{path} is not a transition-model checkpoint")
    if meta.get("norm_stats") is None or meta.get("binning") is None:
        raise CfPolicyError(f"{path} records no preprocessing of its training cohort "
                            f"(retrain it with `train-dyn`)")
    net = RecurrentRegressor(meta["n_in"], meta["hidden"], meta["n_features"],
                             np.random.default_rng(0))
    net.load_state(arrays)
    return TransitionModel(net=net, n_features=meta["n_features"], history=meta["history"],
                           norm_stats=NormStats.from_json(meta["norm_stats"]),
                           binning=ActionBinning.from_json(meta["binning"]))

