"""The minibatch training loop and the blocked inference shared by every
model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TrainingDivergenceError

# rows per inference forward; a fixed block shape makes each output row's
# bits independent of the rows computed with it
BLOCK = 256


def _blocks(model, X):
    """Each BLOCK-row ``forward(train=False)`` call of ``infer``: the first
    row's index and the outputs of the rows of ``X`` in the block."""
    if not hasattr(X, "shape"):
        X = np.asarray(X, dtype=np.float64)
    n = len(X)
    block = np.zeros((BLOCK,) + X.shape[1:])
    for start in range(0, max(n, 1), BLOCK):
        rows = X[start:start + BLOCK]
        block[:len(rows)] = rows
        block[len(rows):] = 0.0
        model.clear_cache()  # so one block's activations are alive, not two
        yield start, model.forward(block, train=False)[:len(rows)]
    model.clear_cache()


def infer(model, X) -> np.ndarray:
    """``model.forward(X, train=False)`` run in BLOCK-row calls.

    Every call gets a full block, the last one padded with zero rows, so an
    output row depends on its input row alone, not on the number or order
    of the other rows. ``X`` is an array or anything with ``shape`` whose
    slices are arrays (such as ``dynamics.Windows``), sliced once per block.
    Activation memory is one block's whatever len(X) is, and the model's
    backward cache is dropped on return.
    """
    out = None
    for start, y in _blocks(model, X):
        if out is None:
            out = np.empty((len(X),) + y.shape[1:])
        out[start:start + len(y)] = y
    return out


def blocked_loss(model, loss_fn, X, Y) -> float:
    """``loss_fn(infer(model, X), Y)[0]``, bit for bit, one ``infer`` block
    at a time: each block's per-row terms, ``loss_fn.terms(pred, target)``,
    are kept and reduced once by ``loss_fn.reduce``. ``Y`` is sliced once
    per block, as ``X`` is, so either may be a ``dynamics.Windows``."""
    terms = None
    for start, y in _blocks(model, X):
        rows = loss_fn.terms(y, Y[start:start + len(y)])
        if terms is None:
            terms = np.empty((len(X),) + rows.shape[1:])
        terms[start:start + len(rows)] = rows
    return loss_fn.reduce(terms)


def fit(model, opt, loss_fn, X, Y, Xv, Yv, *, epochs: int, batch: int,
        rng: np.random.Generator, patience: Optional[int] = None) -> list:
    """Shuffled minibatch descent that keeps the best-validation snapshot.

    ``model`` provides forward(x, train), backward(grad), clear_cache(),
    state() and load_state(); ``loss_fn(pred, target)`` returns (loss, grad)
    and has the ``terms`` and ``reduce`` of ``blocked_loss``.
    ``X`` and ``Y`` are indexed with each minibatch's int array of rows,
    and the validation loss is ``blocked_loss(model, loss_fn, Xv, Yv)``, so
    any of them may be a ``dynamics.Windows``. Training stops early
    once ``patience`` epochs pass without a new best validation loss (never
    when ``patience`` is None). The model ends on its best-validation state.
    Returns one (mean train loss, val loss) pair per epoch run.
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
        val_loss = blocked_loss(model, loss_fn, Xv, Yv)
        history.append((total / n, val_loss))
        if val_loss < best_loss:
            best_loss, best_epoch = val_loss, epoch
            best_state = {k: v.copy() for k, v in model.state().items()}
        elif patience is not None and epoch - best_epoch >= patience:
            break
    if best_state is not None:
        model.load_state(best_state)
    return history
