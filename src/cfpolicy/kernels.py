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
# Bits of a distance's bit pattern that one overflowing pass of the median
# search resolves.
_DIGIT_BITS = 16


def _distinct(a):
    """Distinct rows of a sample (1-D: one value per row) and how often each
    occurs, as float64."""
    a = np.asarray(a, dtype=np.float64)
    rows, counts = np.unique(a[:, None] if a.ndim == 1 else a, axis=0, return_counts=True)
    return rows, counts.astype(np.float64)


# Below this a sum of squared differences may have lost digits to underflow;
# the distance of such a pair is below 2^-449 * sqrt(dims).
_TINY_SQ = 2.0 ** -900


def _small_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between rows a[k] and b[k] as ``math.dist`` computes them:
    the differences are divided by the largest of them before they are
    squared, so none underflows. Used for the pairs whose plain sum of
    squares is below ``_TINY_SQ``."""
    diffs = np.abs(a - b)
    m = diffs.max(axis=1)
    q = diffs / np.where(m > 0.0, m, 1.0)[:, None]
    return m * np.sqrt(np.sum(q * q, axis=1))


def _huge_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between rows a[k] and b[k] whose sum of squares overflows,
    from the points scaled by 2^-600: exact, as a coordinate it rounds is
    below 2^-422, far below the pair's largest difference (>= 2^511/sqrt(dims))."""
    a, b = np.ldexp(a, -600), np.ldexp(b, -600)
    d2 = np.zeros(len(a))
    for k in range(a.shape[1]):
        d2 += (a[:, k] - b[:, k]) ** 2
    return np.ldexp(np.sqrt(d2), 600)


def _kernel_sum(a, wa, b, wb, sigma: float) -> float:
    """wa^T K(a, b) wb for the RBF kernel, a block of rows of a at a time, in
    two block buffers reused throughout.

    Squared distances are summed coordinate by coordinate from squared
    differences (no |a|^2 + |b|^2 - 2ab cancellation). Each difference is
    divided by sigma before it is squared, so a distance of the order of
    sigma does not underflow however small sigma is; one far beyond it
    overflows to inf, whose kernel value is 0.
    """
    rows = max(1, BLOCK_ENTRIES // len(b))
    bt = np.ascontiguousarray(b.T)
    shape = (min(rows, len(a)), len(b))
    k, diff = np.empty(shape), np.empty(shape)
    total = 0.0
    for s in range(0, len(a), rows):
        a_s = a[s:s + rows]
        blk, tmp = k[:len(a_s)], diff[:len(a_s)]
        with np.errstate(over="ignore"):
            for c in range(a.shape[1]):
                out = tmp if c else blk  # 0 + d^2 is d^2: the first needs no add
                np.subtract(a_s[:, c, None], bt[c], out=out)
                np.divide(out, sigma, out=out)
                np.multiply(out, out, out=out)
                if c:
                    np.add(blk, tmp, out=blk)
        np.multiply(blk, -0.5, out=blk)
        np.exp(blk, out=blk)
        total += wa[s:s + rows] @ (blk @ wb)
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


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _value(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


# The median search works on the bit patterns of the distances as uint64,
# which order as nonnegative floats do. An interval [lo, hi) of them is
# searched by one pass over the pairs; _TOP lies above every distance
# (inf included), and below _EXACT a distance may come from _small_dists,
# so there the pass compares distances, not their squares.
_TOP = (1 << 63) - 1
_INF = _bits(np.inf)
_EXACT = _bits(2.0 ** -400)
# The bracket of the ranks comes from at most this many pairs, drawn with
# this seed, and reaches this many standard deviations beyond each rank.
_SAMPLE_PAIRS = 1 << 18
_SAMPLE_SEED = 0
_BRACKET_SD = 3.0


def _sq_bound(x: int) -> int:
    """The least bit pattern y of a float with sqrt(y) >= the distance with
    bit pattern x. sqrt is monotone, so a sum of squares d2 has
    sqrt(d2) < that distance exactly when its bit pattern is below y."""
    if x >= _INF:
        return x
    v = _value(x)
    y = _bits(v * v)
    while y and np.sqrt(_value(y - 1)) >= v:
        y -= 1
    while np.sqrt(_value(y)) < v:
        y += 1
    return y


def _bracket(u: np.ndarray, w: np.ndarray, ranks) -> tuple:
    """Bit patterns [lo, hi) likely to hold the distances at the given ranks
    of the weighted pairs of distinct rows of u, from the order statistics
    of a sample of pairs drawn with probability w_i * w_j (Floyd & Rivest,
    "Expected time bounds for selection", CACM 1975). The sample is sized so
    that about a quarter block of pairs lies inside; [0, _TOP) when every
    pair fits one block. The generator is local, so the global numpy
    random state is neither read nor advanced.
    """
    n = len(u)
    pairs = n * (n - 1) // 2
    if pairs <= BLOCK_ENTRIES:
        return 0, _TOP
    m = int(min(_SAMPLE_PAIRS, pairs, (4.0 * _BRACKET_SD * pairs / BLOCK_ENTRIES) ** 2))
    rng = np.random.default_rng(_SAMPLE_SEED)
    p = w / w.sum()
    rows = np.arange(n, dtype=np.int32)
    i = np.repeat(rows, rng.multinomial(m, p))
    j = rng.permutation(np.repeat(rows, rng.multinomial(m, p)))
    d2 = np.zeros(m)
    for k in range(u.shape[1]):
        diff = u[i, k]
        diff -= u[j, k]
        diff *= diff
        d2 += diff
    same = i == j
    d2[same] = np.nan  # not a pair of distinct rows; sorts last
    valid = m - int(np.count_nonzero(same))
    del i, j, diff, same
    total = 0.5 * (w.sum() ** 2 - np.dot(w, w))
    lo_p, hi_p = ranks[0] / total, (ranks[-1] + 1) / total
    k_lo = int(np.floor(lo_p * valid - _BRACKET_SD * np.sqrt(valid * lo_p * (1.0 - lo_p)))) - 1
    k_hi = int(np.ceil(hi_p * valid + _BRACKET_SD * np.sqrt(valid * hi_p * (1.0 - hi_p))))
    kth = [k for k in (k_lo, k_hi) if 0 <= k < valid]
    if kth:
        d2.partition(kth)
    lo = _bits(np.sqrt(d2[k_lo])) if k_lo >= 0 else 0
    hi = _bits(np.sqrt(d2[k_hi])) + 1 if k_hi < valid else _TOP
    return lo, hi


def _pair_pass(u: np.ndarray, w: np.ndarray, lo: int, hi: int, shift: int):
    """One pass over the pairs i < j of rows of u (weight w_i * w_j), for
    the distances whose bit patterns lie in [lo, hi).

    Returns the weight of the pairs below lo, and then either the weights
    and sorted values of the pairs inside, or, when more than BLOCK_ENTRIES
    pairs are inside, their weights binned by bits >> shift of the bit
    pattern minus lo, and None.

    Each row block's sums of squared differences are formed in place in a
    reused buffer, one coordinate at a time, and compared with the bounds
    ``_sq_bound`` gives for lo and hi; no mask covers the block, only the
    few entries left of its diagonal are set to NaN. Only the pairs inside
    get a square root (or ``_small_dists`` / ``_huge_dists``). If lo is
    below _EXACT, every pair whose distance may be below hi is a candidate,
    and the candidates are placed by their distances.
    """
    n, cap = len(u), BLOCK_ENTRIES
    ut = np.ascontiguousarray(u.T)
    exact = lo < _EXACT
    tl = 0 if exact else _sq_bound(lo)
    lo_at = _value(tl)
    th = _sq_bound(max(hi, _EXACT) if exact else hi)
    bins = ((hi - lo - 1) >> shift) + 1
    # from inf on every sum of squares, an overflowed one too, may lie below th
    hi_op, hi_at = (np.less_equal, np.inf) if th >= _INF else (np.less, _value(th))
    heavy = int(np.count_nonzero(w != 1.0))  # the repeated rows come first
    block = max(1, BLOCK_ENTRIES // 4)  # its four arrays fit a core's L2 cache
    size = max(block, n)
    d2, tmp = np.empty(size), np.empty(size)
    low, cand = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    vals, wts = np.empty(cap), np.empty(cap)  # the pairs inside, up to the cap
    held, hist, below = 0, None, 0.0

    def binned(v, pw):
        digits = ((v.view(np.uint64) - np.uint64(lo)) >> np.uint64(shift)).view(np.int64)
        return np.bincount(digits, weights=pw, minlength=bins)

    s = 0
    while s < n - 1:
        e = min(n - 1, s + max(1, block // (n - s)))
        r, c = e - s, n - s - 1  # rows s..e-1 against columns s+1..n-1
        d, t = d2[:r * c].reshape(r, c), tmp[:r * c].reshape(r, c)
        for k in range(u.shape[1]):
            out = t if k else d
            np.subtract(ut[k, s:e, None], ut[k, s + 1:], out=out)
            np.multiply(out, out, out=out)
            if k:
                np.add(d, t, out=d)
        d.view(np.uint64)[:, :r][np.tri(r, r, -1, dtype=bool)] = _TOP  # j <= i: a NaN
        m = cand[:r * c].reshape(r, c)
        hi_op(d, hi_at, out=m)
        if tl:
            lt = low[:r * c].reshape(r, c)
            np.less(d, lo_at, out=lt)
            # only blocks with repeated rows need the weighted form, which
            # converts lt to float64 (on every block a README-scale median
            # takes 24-29% longer)
            below += w[s:e] @ (lt @ w[s + 1:]) if s < heavy else np.count_nonzero(lt)
            m ^= lt
        idx = np.flatnonzero(m)
        s = e
        if not idx.size:
            continue
        i, j = np.divmod(idx, c)
        i += e - r
        j += e - r + 1
        sq = d.ravel()[idx]
        dist = np.sqrt(sq)
        for redo, measure in ((sq < _TINY_SQ, _small_dists), (sq == np.inf, _huge_dists)):
            redo = np.flatnonzero(redo)
            if redo.size:
                dist[redo] = measure(u[i[redo]], u[j[redo]])
        pw = w[i] * w[j]
        db = dist.view(np.uint64)
        below += pw[db < lo].sum()
        inside = (db - np.uint64(lo)) < hi - lo
        dist, pw = dist[inside], pw[inside]
        if held + dist.size > cap:
            hist = np.zeros(bins) if hist is None else hist
            hist += binned(vals[:held], wts[:held])
            held = 0
            if dist.size > cap:
                hist += binned(dist, pw)
                continue
        vals[held:held + dist.size] = dist
        wts[held:held + dist.size] = pw
        held += dist.size
    if hist is not None:
        return below, hist + binned(vals[:held], wts[:held]), None
    order = np.argsort(vals[:held], kind="stable")
    return below, wts[:held][order], vals[:held][order]


def _pair_order_stats(u: np.ndarray, w: np.ndarray, ranks) -> dict:
    """Values at the given 0-based ranks of the weighted multiset of
    distances between distinct rows of u (pair i < j has weight w_i * w_j).

    A sampled bracket [lo, hi) of bit patterns (``_bracket``) is searched by
    one pass over the pairs (``_pair_pass``). If the ranks lie inside and the
    pairs inside fit one block, they are sorted and that is all. Otherwise
    the search goes on as a radix select on the bit patterns: a pass that
    overflowed the block leaves the next 16 bits' bins, and the bin holding
    the rank is the next interval; a rank the bracket missed is searched for
    in [0, lo) or [hi, _TOP). An interval one bit pattern wide is the value.
    """
    if not ranks:  # every rank asked for lies among the pairs of identical rows
        return {}
    first = np.argsort(w == 1.0, kind="stable")  # no pair's distance depends on the order
    u, w = u[first], w[first]
    out = {}
    lo, hi = _bracket(u, w, ranks)
    for _ in range(32):  # a rank takes at most 7: bracket, miss, 4 narrowings, sort
        shift = max(0, (hi - lo - 1).bit_length() - _DIGIT_BITS)
        below, weights, vals = _pair_pass(u, w, lo, hi, shift)
        if vals is None and hi - lo == 1:
            vals = np.array([_value(lo)])
        cum = below + np.cumsum(weights)
        end = cum[-1] if cum.size else below
        if vals is not None:
            for q in ranks:
                if below <= q < end:
                    out[q] = vals[np.searchsorted(cum, q, side="right")]
        pending = [q for q in ranks if q not in out]
        if not pending:
            return out
        r = pending[0]
        if r < below:
            lo, hi = 0, lo
        elif r >= end:
            lo, hi = hi, _TOP
        else:
            k = int(np.searchsorted(cum, r, side="right"))
            lo, hi = lo + (k << shift), min(hi, lo + ((k + 1) << shift))
    raise RuntimeError("the median search did not converge")


def median_pairwise_distance(points) -> float:
    """Exact median of the Euclidean distances between all N(N-1)/2 pairs of
    rows (identical rows count as distance 0). An even number of pairs gives
    the mean of the two middle values, as ``np.median`` does. The points
    must be finite; no distance overflows short of the float range.

    The memory used does not grow with N: repeated rows become weights and
    the pairs are visited a block at a time (see ``_pair_order_stats``).
    """
    u, w = _distinct(points)
    n = int(w.sum())
    if n < 2:
        raise ValueError("median_pairwise_distance needs at least 2 points")
    if not np.isfinite(u).all():
        raise ValueError("median_pairwise_distance needs finite points")
    pairs = n * (n - 1) // 2
    ranks = ((pairs - 1) // 2, pairs // 2)
    zero = int(np.sum(w * (w - 1.0))) // 2  # pairs of identical rows
    with np.errstate(over="ignore"):  # a sum of squares past the float range: _huge_dists
        d = _pair_order_stats(u, w, sorted({r - zero for r in ranks if r >= zero}))
    lo, hi = (float(d[r - zero]) if r >= zero else 0.0 for r in ranks)
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
