"""Output squashing functions and losses; each loss returns (scalar loss,
gradient w.r.t. predictions)."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def rmse_loss(pred: np.ndarray, target: np.ndarray):
    """sqrt(mean over batch of squared Euclidean row error)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    err = pred - target
    n = pred.shape[0]
    loss = float(np.sqrt(np.sum(err * err) / n))
    if loss == 0.0:
        return 0.0, np.zeros_like(pred)
    return loss, err / (n * loss)


def nll_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax probability of the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    rows = np.arange(n)
    p = softmax(logits)
    picked = np.maximum(p[rows, labels], 1e-300)
    loss = float(-(np.add.reduce(np.log(picked, out=picked)) / n))
    p[rows, labels] -= 1.0  # p becomes the gradient
    p /= n
    return loss, p


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean over all elements of the squared error."""
    err = pred - target
    loss = float(np.mean(err * err))
    return loss, 2.0 * err / err.size
