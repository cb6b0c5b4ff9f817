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

from .cohort import CohortDataset, block_rows
from .errors import EmptySubgroupError, RolloutBlowupError, check
from .numcore import (Adam, RecurrentRegressor, blocked_loss, fit, load_checkpoint,
                      mse_loss, save_checkpoint)
from .numcore.training import BLOCK
from .preprocess import ActionBinning, NormStats

WINDOW = 3
STATE_CLIP = 8.0
_STEPS = np.arange(1 - WINDOW, 1)  # a window's rows relative to its time row


def _rows(t, first):
    """The block rows of the window(s) ending at ``t``, oldest first, and
    the first row of their encounter, shaped to compare with them."""
    return np.asarray(t)[..., None] + _STEPS, np.asarray(first)[..., None]


def state_window(states: np.ndarray, t, first=0) -> np.ndarray:
    """States-only observation window(s), oldest step first: (3, M) for an
    int ``t``, (len(t), 3, M) for an int array. Rows before ``first`` (the
    encounter's first row, an int or one per ``t``) repeat that row."""
    idx, lo = _rows(t, first)
    return states.take(np.maximum(idx, lo, out=idx), axis=0)


def window_arrays(rows: np.ndarray, t, first=0) -> np.ndarray:
    """Dynamics window(s) of a block whose last two columns are the doses:
    its rows as ``state_window`` gathers them, (3, M+2) or (len(t), 3, M+2),
    with the doses of the rows before ``first`` zero."""
    idx, lo = _rows(t, first)
    w = rows.take(np.maximum(idx, lo), axis=0)
    np.copyto(w[..., -2:], 0.0, where=(idx < lo)[..., None])
    return w


class Windows:
    """One row per window of a cohort (a split of one, say), gathered on
    demand from the cohort's ``block`` (and ``bins``).

    Row i is read at block row ``t[i]``, the time row of a window whose
    encounter starts at block row ``first[i]``. ``kind`` says what a row
    is: ``policy``, the flattened states-only window (3*M,) of
    ``state_window``; ``transition``, the dynamics window (3, M+2) of
    ``window_arrays``; ``dose``, the dose pair at t (the BC regression
    target); ``bin``, its action bin (the BC classification target);
    ``delta``, the next-state delta, states[t+1] - states[t] (the dynamics
    target). Indexing with an int, a slice or an int array, and
    ``np.asarray``, gather exactly those rows, so no more than a requested
    minibatch or block of rows is ever built.
    """

    def __init__(self, block, bins, t, first, kind: str):
        self.block, self.bins, self.t, self.first, self.kind = block, bins, t, first, kind

    @classmethod
    def of(cls, cohort: CohortDataset, transitions: bool = False) -> "Windows":
        """The policy windows at every timestep of the cohort's encounters,
        in (encounter, t) order; with ``transitions``, the dynamics windows
        at every timestep that has a next one."""
        counts = cohort.lengths - transitions
        return cls(cohort.block, cohort.bins, block_rows(cohort.first, counts),
                   np.repeat(cohort.first, counts), "transition" if transitions else "policy")

    def targets(self, kind: str) -> "Windows":
        """The rows of ``kind`` at the same time rows."""
        return Windows(self.block, self.bins, self.t, self.first, kind)

    def select(self, keep) -> "Windows":
        """The rows at positions ``keep``, still ungathered."""
        return Windows(self.block, self.bins, self.t[keep], self.first[keep], self.kind)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def shape(self) -> tuple:
        M = self.block.shape[1] - 2
        return (len(self),) + {"policy": (WINDOW * M,), "transition": (WINDOW, M + 2),
                               "dose": (2,), "bin": (), "delta": (M,)}[self.kind]

    def __getitem__(self, key) -> np.ndarray:
        block, M, t = self.block, self.block.shape[1] - 2, self.t[key]
        if self.kind == "dose":
            return block[t, M:]
        if self.kind == "bin":
            return self.bins.take(t)
        if self.kind == "delta":
            delta = block.take(t + 1, axis=0)
            delta -= block.take(t, axis=0)
            return delta[..., :M]
        if self.kind == "transition":
            return window_arrays(block, t, self.first[key])
        window = state_window(block, t, self.first[key])[..., :M]
        return window.reshape(np.shape(t) + (WINDOW * M,))

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
    X = Windows.of(cohort.split_of(split), transitions=True)
    if len(X) == 0:
        raise EmptySubgroupError(f"split {split!r} has no state transitions")
    if max_windows is not None and len(X) > max_windows:
        X = X.select(rng.choice(len(X), max_windows, replace=False))
    return X, X.targets("delta")


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
    """(model MSE, predict-zero-delta baseline MSE) over a split, each
    taken one ``infer`` block at a time."""
    X, Y = _collect_windows(cohort, split)
    zero = np.empty(Y.shape)  # the baseline's squared errors: (0 - y)^2 is y^2, bit for bit
    for start in range(0, len(Y), BLOCK):
        np.square(Y[start:start + BLOCK], out=zero[start:start + BLOCK])
    return blocked_loss(model.net, mse_loss, X, Y), mse_loss.reduce(zero)


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
