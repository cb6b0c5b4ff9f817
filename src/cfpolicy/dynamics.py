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
from .errors import EmptySubgroupError, RolloutBlowupError, check
from .numcore import (Adam, RecurrentRegressor, fit, infer, load_checkpoint, mse_loss,
                      save_checkpoint)
from .preprocess import ActionBinning, NormStats

WINDOW = 3
STATE_CLIP = 8.0
_STEPS = np.arange(1 - WINDOW, 1)  # a window's rows relative to its time row


def state_window(states: np.ndarray, t, first=0) -> np.ndarray:
    """States-only observation window(s), oldest step first: (3, M) for an
    int ``t``, (len(t), 3, M) for an int array. Rows before ``first`` (the
    encounter's first row, an int or one per ``t``) repeat that row."""
    idx = np.asarray(t)[..., None] + _STEPS
    np.maximum(idx, np.asarray(first)[..., None], out=idx)
    return states.take(idx, axis=0)


def window_arrays(states: np.ndarray, actions: np.ndarray, t, first=0):
    """State and action windows at ``t`` (int or int array), shaped like
    ``state_window``; actions before row ``first`` are zero."""
    idx = np.asarray(t)[..., None] + _STEPS
    lo = np.asarray(first)[..., None]
    a = np.where((idx >= lo)[..., None], actions.take(np.maximum(idx, lo), axis=0), 0.0)
    return state_window(states, t, first), a


class Windows:
    """The observation windows of one split, gathered on demand.

    The split's states (and, for the dynamics model, its actions) are one
    row block; window i ends at row ``t[i]`` of it, and ``first[i]`` is the
    first row of its encounter. Indexing with an int, a slice or an int
    array, and ``np.asarray``, give the windows ``state_window`` gives,
    flattened to (n, 3*M) rows for a policy, or with ``actions`` those of
    ``window_arrays`` side by side, (n, 3, M+2), for the dynamics model; no
    more than the requested windows are ever built.
    """

    def __init__(self, states, t, first, actions=None):
        self.states, self.t, self.first, self.actions = states, t, first, actions

    @classmethod
    def of(cls, trajs, transitions: bool = False) -> "Windows":
        """The policy windows at every timestep of ``trajs``, in (trajectory,
        t) order; with ``transitions``, the dynamics windows at every
        timestep that has a next one."""
        lengths = np.array([tr.T for tr in trajs], dtype=np.int64)
        ends = np.cumsum(lengths)
        first = np.repeat(ends - lengths, lengths)
        t = np.arange(len(first))
        if transitions:  # every row but each encounter's last
            t, first = np.delete(t, ends - 1), np.delete(first, ends - 1)
        return cls(np.concatenate([tr.states for tr in trajs]), t, first,
                   np.concatenate([tr.actions for tr in trajs]) if transitions else None)

    def select(self, keep) -> "Windows":
        """The windows at positions ``keep``, still ungathered."""
        return Windows(self.states, self.t[keep], self.first[keep], self.actions)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def shape(self) -> tuple:
        M = self.states.shape[1]
        return (len(self), WINDOW * M) if self.actions is None else (len(self), WINDOW, M + 2)

    def __getitem__(self, key) -> np.ndarray:
        t, first = self.t[key], self.first[key]
        if self.actions is None:
            return state_window(self.states, t, first).reshape(np.shape(t) + self.shape[1:])
        return np.concatenate(window_arrays(self.states, self.actions, t, first), axis=-1)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


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
    # the preprocessing of the training cohort, which a user must share
    norm_stats: NormStats
    binning: ActionBinning
    history: list = field(default_factory=list)  # per-epoch train/val MSE

    def predict_delta(self, windows: np.ndarray) -> np.ndarray:
        """windows: (B, 3, M+2) -> (B, M) state deltas."""
        return self.net.forward(windows, train=False)

    def step(self, state: np.ndarray, window: np.ndarray) -> np.ndarray:
        """state: (E, M), window: (E, 3, M+2) -> clipped next states (E, M)."""
        return np.clip(state + self.predict_delta(window), -STATE_CLIP, STATE_CLIP)


def _collect_windows(cohort: CohortDataset, split: str, max_windows=None, rng=None):
    """The dynamics windows of one split, in (trajectory, t) order, or
    ``max_windows`` of them drawn by ``rng``, and their next-state deltas."""
    trajs = cohort.by_split(split)
    if sum(tr.T - 1 for tr in trajs) == 0:
        raise EmptySubgroupError(f"split {split!r} has no state transitions")
    X = Windows.of(trajs, transitions=True)
    if max_windows is not None and len(X) > max_windows:
        X = X.select(rng.choice(len(X), max_windows, replace=False))
    Y = X.states[X.t + 1]
    Y -= X.states[X.t]
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


def _meta_spec(M) -> dict:
    """What ``save_dynamics`` writes for M features (``n_features`` is checked first)."""
    return {"kind": ("transition_model",), "format_version": int, "n_features": int,
            "n_in": int, "hidden": int,
            "history": [{"epoch": int, "train_mse": float, "val_mse": float}, ...],
            "norm_stats": NormStats.spec(M), "binning": ActionBinning.SPEC}


def save_dynamics(model: TransitionModel, path) -> None:
    meta = {"kind": "transition_model", "n_features": model.n_features,
            "n_in": model.net.n_in, "hidden": model.net.hidden,
            "history": model.history, "norm_stats": model.norm_stats.to_json(),
            "binning": model.binning.to_json()}
    save_checkpoint(path, model.net.state(), meta)


def load_dynamics(path) -> TransitionModel:
    arrays, meta = load_checkpoint(path)
    check(meta, _meta_spec(meta.get("n_features")), str(path))
    net = RecurrentRegressor(meta["n_in"], meta["hidden"], meta["n_features"],
                             np.random.default_rng(0))
    net.load_state(arrays)
    return TransitionModel(net=net, n_features=meta["n_features"], history=meta["history"],
                           norm_stats=NormStats.from_json(meta["norm_stats"]),
                           binning=ActionBinning.from_json(meta["binning"]))
