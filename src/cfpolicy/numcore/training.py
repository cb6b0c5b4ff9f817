"""The minibatch training loop shared by every supervised model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TrainingDivergenceError


def fit(model, opt, loss_fn, X, Y, Xv, Yv, *, epochs: int, batch: int,
        rng: np.random.Generator, patience: Optional[int] = None) -> list:
    """Shuffled minibatch descent that keeps the best-validation snapshot.

    ``model`` provides forward(x, train), backward(grad), state() and
    load_state(); ``loss_fn(pred, target)`` returns (loss, grad). Training
    stops early once ``patience`` epochs pass without a new best validation
    loss (never when ``patience`` is None). The model ends on its
    best-validation state. Returns one (mean train loss, val loss) pair per
    epoch run.
    """
    best_loss, best_state, best_epoch = np.inf, None, -1
    history = []
    n = len(X)
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            loss, grad = loss_fn(model.forward(X[idx], train=True), Y[idx])
            if not np.isfinite(loss):
                raise TrainingDivergenceError(f"training loss diverged at epoch {epoch}")
            model.backward(grad)
            opt.step()
            total += loss * len(idx)
        val_loss, _ = loss_fn(model.forward(Xv, train=False), Yv)
        history.append((total / n, val_loss))
        if val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            best_state = {k: v.copy() for k, v in model.state().items()}
        elif patience is not None and epoch - best_epoch >= patience:
            break
    if best_state is not None:
        model.load_state(best_state)
    return history
