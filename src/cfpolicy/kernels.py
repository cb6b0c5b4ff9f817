"""Hot numeric kernels: exact RBF MMD² as one symmetric kernel sum in
memory that does not grow with the sample, the median pairwise distance
(over every pair, or over a fixed-seed sample of pairs), series
imputation, discounted returns."""

import numpy as np

__all__ = [
    "rbf_mmd2_biased",
    "median_pairwise_distance",
    "fill_series",
    "discounted_returns",
]

# Entries in one block of pairwise values. The kernel sums hold two float64
# arrays of this size at a time, so their memory does not grow with the
# number of points.
BLOCK_ENTRIES = 1 << 18
# The median of more pairs than this is taken over this many pairs i != j,
# drawn uniformly with replacement by a generator of this seed.
_MEDIAN_PAIRS = 1 << 17
_MEDIAN_SEED = 0


def _kernel_sum(z, w, sigma: float) -> float:
    """w^T K(z, z) w for the RBF kernel, in two block buffers reused
    throughout. Each strip of rows is paired only with the columns from its
    first row on: the strip's diagonal block counts once, the rest twice.

    Squared distances are summed coordinate by coordinate from squared
    differences (no |a|^2 + |b|^2 - 2ab cancellation). Each difference is
    divided by sigma before it is squared, so a distance of the order of
    sigma does not underflow however small sigma is; one far beyond it
    overflows to inf, whose kernel value is 0.
    """
    n = len(z)
    zt = np.ascontiguousarray(z.T)
    size = max(n, min(BLOCK_ENTRIES, n * n))
    k, diff = np.empty(size), np.empty(size)
    total, s = 0.0, 0
    while s < n:
        cols = n - s
        m = min(max(1, BLOCK_ENTRIES // cols), cols)
        blk, tmp = k[:m * cols].reshape(m, cols), diff[:m * cols].reshape(m, cols)
        with np.errstate(over="ignore"):
            for c in range(z.shape[1]):
                out = tmp if c else blk  # 0 + d^2 is d^2: the first needs no add
                np.subtract(z[s:s + m, c, None], zt[c, s:], out=out)
                np.divide(out, sigma, out=out)
                np.multiply(out, out, out=out)
                if c:
                    np.add(blk, tmp, out=blk)
        np.multiply(blk, -0.5, out=blk)
        np.exp(blk, out=blk)
        ws = w[s:s + m]
        total += 2.0 * (ws @ (blk @ w[s:])) - ws @ (blk[:, :m] @ ws)
        s += m
    return total


def rbf_mmd2_biased(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Biased (V-statistic) squared MMD with RBF kernel exp(-d^2 / (2 sigma^2)).

    The pooled rows are merged once: each distinct row z_i gets the weight
    w_i = (its count in x) / len(x) - (its count in y) / len(y), so
    MMD^2 = w^T K w is one symmetric kernel sum, quadratic in the number of
    distinct rows, and the Gram matrix is never held whole.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.concatenate([x, y])
    z, inv = np.unique(z[:, None] if z.ndim == 1 else z, axis=0, return_inverse=True)
    w = (np.bincount(inv[:len(x)], minlength=len(z)) / len(x)
         - np.bincount(inv[len(x):], minlength=len(z)) / len(y))
    return float(_kernel_sum(z, w, float(sigma)))


def median_pairwise_distance(points) -> float:
    """Median of the Euclidean distances between pairs of rows (identical
    rows count as distance 0): over all N(N-1)/2 pairs when there are at
    most ``_MEDIAN_PAIRS`` of them (N <= 512), otherwise over that many
    pairs i != j drawn uniformly with replacement (i uniform, then j uniform
    among the other rows) by a local ``default_rng(_MEDIAN_SEED)``, so the
    global numpy random state is neither read nor advanced. An even number
    of pairs gives the mean of the two middle values, as ``np.median`` does.
    The points must be finite; memory does not grow with N.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    n = len(p)
    if n < 2:
        raise ValueError("median_pairwise_distance needs at least 2 points")
    if not np.isfinite(p).all():
        raise ValueError("median_pairwise_distance needs finite points")
    if n * (n - 1) // 2 <= _MEDIAN_PAIRS:
        i, j = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(_MEDIAN_SEED)
        i = rng.integers(0, n, _MEDIAN_PAIRS)
        j = rng.integers(0, n - 1, _MEDIAN_PAIRS)
        j += j >= i
    # a chain of hypot calls over the coordinates: no distance underflows or
    # overflows short of the float range (a difference past it is inf)
    with np.errstate(over="ignore"):
        d = np.abs(p[i, 0] - p[j, 0])
        for k in range(1, p.shape[1]):
            np.hypot(d, p[i, k] - p[j, k], out=d)
    mid = ((len(d) - 1) // 2, len(d) // 2)
    d.partition(mid)
    lo, hi = float(d[mid[0]]), float(d[mid[1]])
    return 0.5 * (lo + hi) if lo + hi < np.inf else 0.5 * lo + 0.5 * hi  # a sum past the range


def fill_series(values: np.ndarray, fallback: float, lengths=None) -> np.ndarray:
    """Impute series of the given ``lengths`` (default: one), held back to
    back in ``values``, in place of NaNs. Gaps between two observations of a
    series get linear interpolation (over the block's row indices, whose
    differences are exact: each series gets the bits a call of its own
    gives), positions after its last observation carry it forward, those
    before its first (all of an all-NaN series) get `fallback`."""
    values = np.asarray(values, dtype=np.float64)
    out, missing = values.copy(), np.isnan(values)
    gaps, obs = np.flatnonzero(missing), np.flatnonzero(~missing)
    ends = np.cumsum([values.size] if lengths is None else lengths)
    series = np.searchsorted(ends, gaps, side="right")
    k = np.searchsorted(obs, gaps)  # the observations around each gap: obs[k - 1], obs[k]
    prev, nxt = np.append(-1, obs)[k], np.append(obs, values.size)[k]
    head = prev < np.append(0, ends)[series]
    out[gaps] = np.where(head, fallback, values[prev])  # prev -1 only where head
    inner = gaps[~head & (nxt < ends[series])]
    if inner.size:
        out[inner] = np.interp(inner, obs, values[obs])
    return out


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Suffix sums G_t = sum_{k>=t} gamma^(k-t) r_k along the last axis, so
    an (E, H) array discounts each of its E rows."""
    rewards = np.asarray(rewards, dtype=np.float64)
    gamma = float(gamma)
    out = np.empty_like(rewards)
    acc = np.zeros(rewards.shape[:-1])
    for t in range(rewards.shape[-1] - 1, -1, -1):
        acc = rewards[..., t] + gamma * acc
        out[..., t] = acc
    return out
