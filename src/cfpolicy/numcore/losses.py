"""Output squashing functions and losses; each loss returns (scalar loss,
gradient w.r.t. predictions)."""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)); with ``out`` (which may be ``x``) the same
    operations write into ``out``."""
    if out is None:
        return 1.0 / (1.0 + np.exp(-x))
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Row-wise softmax over the last axis; with ``out`` (which may be
    ``logits``) the same operations write into ``out``."""
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# Each loss is also ``loss.reduce(loss.terms(pred, target))``: per-row
# terms, kept for many rows and then reduced at once, give the loss of all
# the rows bit for bit (``numcore.training.blocked_loss``).


def _squared_errors(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    err = pred - target
    return np.multiply(err, err, out=err)


def _rmse(squares: np.ndarray) -> float:
    return float(np.sqrt(np.sum(squares) / squares.shape[0]))


def rmse_loss(pred: np.ndarray, target: np.ndarray):
    """sqrt(mean over batch of squared Euclidean row error)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    err = pred - target
    n = pred.shape[0]
    loss = _rmse(err * err)
    if loss == 0.0:
        return 0.0, np.zeros_like(pred)
    return loss, err / (n * loss)


def _true_class_log_probs(logits: np.ndarray, labels) -> np.ndarray:
    """Each row's log softmax probability of its label, floored at log(1e-300)."""
    p = softmax(logits)
    picked = np.maximum(p[np.arange(len(p)), np.asarray(labels, dtype=np.int64)], 1e-300)
    return np.log(picked, out=picked)


def _nll(log_probs: np.ndarray) -> float:
    return float(-(np.add.reduce(log_probs) / log_probs.shape[0]))


def nll_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax probability of the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    rows = np.arange(n)
    p = softmax(logits)
    picked = np.maximum(p[rows, labels], 1e-300)
    loss = _nll(np.log(picked, out=picked))
    p[rows, labels] -= 1.0  # p becomes the gradient
    p /= n
    return loss, p


def _mse(squares: np.ndarray) -> float:
    return float(np.mean(squares))


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean over all elements of the squared error."""
    err = pred - target
    loss = _mse(err * err)
    return loss, 2.0 * err / err.size


rmse_loss.terms, rmse_loss.reduce = _squared_errors, _rmse
nll_loss.terms, nll_loss.reduce = _true_class_log_probs, _nll
mse_loss.terms, mse_loss.reduce = _squared_errors, _mse
