"""Hot numeric kernels: RBF MMD², series imputation, discounted returns."""

import numpy as np

__all__ = [
    "rbf_mmd2_biased",
    "fill_series",
    "discounted_returns",
]


def rbf_mmd2_biased(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Biased (V-statistic) squared MMD with RBF kernel exp(-d^2 / (2 sigma^2))."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    gamma = 1.0 / (2.0 * sigma * sigma)

    def gram(a, b):
        d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-gamma * np.maximum(d2, 0.0))

    kxx = gram(x, x).mean()
    kyy = gram(y, y).mean()
    kxy = gram(x, y).mean()
    return float(kxx + kyy - 2.0 * kxy)


def fill_series(values: np.ndarray, fallback: float) -> np.ndarray:
    """Impute one feature series in place of NaNs.

    Gaps between two observations get linear interpolation, positions after
    the last observation carry it forward, positions before the first get
    `fallback` (the train-split feature mean), and an all-NaN series becomes
    all `fallback`.
    """
    values = np.asarray(values, dtype=np.float64)
    obs = np.flatnonzero(~np.isnan(values))
    if obs.size == 0:
        return np.full_like(values, float(fallback))
    return np.interp(np.arange(values.size), obs, values[obs],
                     left=float(fallback), right=values[obs[-1]])


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Suffix sums G_t = sum_{k>=t} gamma^(k-t) r_k."""
    rewards = np.asarray(rewards, dtype=np.float64)
    gamma = float(gamma)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out
