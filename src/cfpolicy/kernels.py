"""Hot numeric kernels: RBF MMD² and median pairwise distance, series
imputation, discounted returns."""

import numpy as np

__all__ = [
    "rbf_mmd2_biased",
    "median_pairwise_distance",
    "fill_series",
    "discounted_returns",
]

# Entries in one block of pairwise values. The pairwise kernels hold a few
# float64 arrays of this size at a time, so their memory does not grow with
# the number of points.
BLOCK_ENTRIES = 1 << 18
# Bits of a distance's bit pattern that one pass of the median search fixes.
_DIGIT_BITS = 16


def _distinct(a):
    """Distinct rows of a sample (1-D: one value per row) and how often each
    occurs, as float64."""
    a = np.asarray(a, dtype=np.float64)
    rows, counts = np.unique(a[:, None] if a.ndim == 1 else a, axis=0, return_counts=True)
    return rows, counts.astype(np.float64)


def _scaled_sq_dists(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances in units of sigma, summed
    coordinate by coordinate from squared differences (no |a|^2 + |b|^2 - 2ab
    cancellation). Each difference is divided by sigma before it is squared,
    so a distance of the order of sigma does not underflow however small
    sigma is; one far beyond it overflows to inf, whose kernel value is 0."""
    d2 = np.zeros((len(a), len(b)))
    with np.errstate(over="ignore"):
        for k in range(a.shape[1]):
            diff = (a[:, k, None] - b[None, :, k]) / sigma
            d2 += diff * diff
    return d2


# Below this a sum of squared differences may have lost digits to underflow.
_TINY_SQ = 2.0 ** -900


def _dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances. The few pairs whose sum of
    squares is so small that it may have underflowed are recomputed as in
    ``math.dist``: their differences are divided by the largest of them
    before they are squared."""
    d2 = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        d2 += diff * diff
    d = np.sqrt(d2)
    i, j = np.nonzero(d2 < _TINY_SQ)
    if i.size:
        diffs = np.abs(a[i] - b[j])
        m = diffs.max(axis=1)
        q = diffs / np.where(m > 0.0, m, 1.0)[:, None]
        d[i, j] = m * np.sqrt(np.sum(q * q, axis=1))
    return d


def _kernel_sum(a, wa, b, wb, sigma: float) -> float:
    """wa^T K(a, b) wb for the RBF kernel, a block of rows of a at a time."""
    rows = max(1, BLOCK_ENTRIES // len(b))
    total = 0.0
    for s in range(0, len(a), rows):
        k = np.exp(-0.5 * _scaled_sq_dists(a[s:s + rows], b, sigma))
        total += wa[s:s + rows] @ (k @ wb)
    return total


def rbf_mmd2_biased(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Biased (V-statistic) squared MMD with RBF kernel exp(-d^2 / (2 sigma^2)).

    Repeated rows are merged into weights first, so the cost is quadratic in
    the number of distinct rows, and the Gram matrices are never held whole.
    """
    x, wx = _distinct(x)
    y, wy = _distinct(y)
    sigma = float(sigma)
    nx, ny = wx.sum(), wy.sum()
    kxx = _kernel_sum(x, wx, x, wx, sigma) / (nx * nx)
    kyy = _kernel_sum(y, wy, y, wy, sigma) / (ny * ny)
    kxy = _kernel_sum(x, wx, y, wy, sigma) / (nx * ny)
    return float(kxx + kyy - 2.0 * kxy)


def _pair_blocks(u: np.ndarray, w: np.ndarray):
    """Distance and weight w_i * w_j of every pair i < j of rows of u, one
    block of rows at a time."""
    n = len(u)
    s = 0
    while s < n - 1:
        e = min(n - 1, s + max(1, BLOCK_ENTRIES // (n - s)))
        upper = np.arange(n - s)[None, :] > np.arange(e - s)[:, None]
        yield _dists(u[s:e], u[s:])[upper], (w[s:e, None] * w[None, s:])[upper]
        s = e


def _pair_order_stats(u: np.ndarray, w: np.ndarray, ranks) -> dict:
    """Values at the given 0-based ranks of the weighted multiset of
    distances between distinct rows of u (pair i < j has weight w_i * w_j).

    A radix select on the uint64 bit patterns of the distances, which order
    as nonnegative floats do: each pass over the pairs bincounts the next
    digit of those that share the bits fixed so far and keeps the bin that
    holds the rank, until the pairs left fit one block and are sorted, or
    every bit is fixed and is the value.
    """
    out = {}
    for r in ranks:
        if r in out:
            continue
        prefix, shift, below = 0, 63, 0.0  # bits >= shift; the sign bit is 0
        n_inside = len(u) * (len(u) - 1) // 2
        while n_inside > BLOCK_ENTRIES and shift > 0:
            step = min(_DIGIT_BITS, shift)
            shift -= step
            weight = np.zeros(1 << step)
            count = np.zeros(1 << step, dtype=np.int64)
            for d, pw in _pair_blocks(u, w):
                b = d.view(np.uint64) >> shift
                b -= np.uint64(prefix << step)  # below the prefix wraps round
                inside = b < (1 << step)
                b = b[inside].view(np.int64)
                weight += np.bincount(b, weights=pw[inside], minlength=1 << step)
                count += np.bincount(b, minlength=1 << step)
                del b, inside  # not held while the next block is built
            cum = below + np.cumsum(weight)
            k = int(np.searchsorted(cum, r, side="right"))
            below = cum[k] - weight[k]
            prefix, n_inside = (prefix << step) | k, int(count[k])
        if n_inside > BLOCK_ENTRIES:  # every bit is fixed: the pairs left equal it
            vals, cum = np.array([prefix], dtype=np.uint64).view(np.float64), [cum[k]]
        else:
            vals, wts = [], []
            for d, pw in _pair_blocks(u, w):
                inside = (d.view(np.uint64) >> shift) == prefix
                vals.append(d[inside])
                wts.append(pw[inside])
            vals = np.concatenate(vals)
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            cum = below + np.cumsum(np.concatenate(wts)[order])
        for q in ranks:
            if below <= q < cum[-1]:
                out[q] = vals[np.searchsorted(cum, q, side="right")]
    return out


def median_pairwise_distance(points) -> float:
    """Exact median of the Euclidean distances between all N(N-1)/2 pairs of
    rows (identical rows count as distance 0). An even number of pairs gives
    the mean of the two middle values, as ``np.median`` does.

    The memory used does not grow with N: repeated rows become weights and
    the pairs are visited a block at a time (see ``_pair_order_stats``).
    """
    u, w = _distinct(points)
    n = int(w.sum())
    if n < 2:
        raise ValueError("median_pairwise_distance needs at least 2 points")
    pairs = n * (n - 1) // 2
    ranks = ((pairs - 1) // 2, pairs // 2)
    zero = int(np.sum(w * (w - 1.0))) // 2  # pairs of identical rows
    d = _pair_order_stats(u, w, sorted({r - zero for r in ranks if r >= zero}))
    lo, hi = (d[r - zero] if r >= zero else 0.0 for r in ranks)
    return float(0.5 * (lo + hi))


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
