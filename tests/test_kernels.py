"""The numpy kernels must agree with independent brute-force computations
and with plain-loop reference implementations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy import kernels
from cfpolicy.kernels import (discounted_returns, fill_series, median_pairwise_distance,
                              rbf_mmd2_biased)


def brute_mmd2(x, y, sigma):
    """Plain-python O(n^2) V-statistic."""
    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * sigma**2))

    kxx = np.mean([k(a, b) for a in x for b in x])
    kyy = np.mean([k(a, b) for a in y for b in y])
    kxy = np.mean([k(a, b) for a in x for b in y])
    return kxx + kyy - 2.0 * kxy


def test_mmd2_matches_bruteforce(rng):
    for i in range(40):
        x = rng.normal(size=(rng.integers(2, 12), 3))
        y = rng.normal(size=(rng.integers(2, 12), 3)) + 0.5
        if i % 2:  # repeated rows (merged into weights), some shared by x and y
            x = x[rng.integers(0, 2, size=len(x) + 5)]
            y = np.concatenate([y, y[:1], x[:2]])[rng.integers(0, len(y) + 3, size=9)]
        sigma = float(rng.uniform(0.3, 3.0))
        assert rbf_mmd2_biased(x, y, sigma) == pytest.approx(
            brute_mmd2(x, y, sigma), abs=1e-12)


def test_mmd2_one_dimensional_inputs(rng):
    x, y = rng.normal(size=20), rng.normal(size=20) + 1
    assert rbf_mmd2_biased(x, y, 1.0) == pytest.approx(
        rbf_mmd2_biased(x[:, None], y[:, None], 1.0), abs=0)


# ---------------------------------------------------------------------------
# references: the V-statistic as three kernel sums over the separately
# merged samples, each from its whole Gram matrix, and pairwise distances
# from plain sums of squares


def reference_scaled_sq_dists(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
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


def reference_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances. The few pairs whose sum of
    squares is below ``_TINY_SQ`` are recomputed as in ``math.dist``: their
    differences are divided by the largest of them before they are
    squared."""
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


def reference_merged(a):
    """Distinct rows of a sample (1-D: one value per row) and their counts."""
    a = np.asarray(a, dtype=np.float64)
    rows, counts = np.unique(a.reshape(len(a), -1), axis=0, return_counts=True)
    return rows, counts.astype(np.float64)


def reference_kernel_sum(a, wa, b, wb, sigma: float) -> float:
    """wa^T K(a, b) wb for the RBF kernel."""
    return wa @ np.exp(-0.5 * reference_scaled_sq_dists(a, b, sigma)) @ wb


def reference_rbf_mmd2_biased(x, y, sigma):
    """kxx + kyy - 2 kxy, each a normalized ``reference_kernel_sum``."""
    x, wx = reference_merged(x)
    y, wy = reference_merged(y)
    sigma = float(sigma)
    nx, ny = wx.sum(), wy.sum()
    kxx = reference_kernel_sum(x, wx, x, wx, sigma) / (nx * nx)
    kyy = reference_kernel_sum(y, wy, y, wy, sigma) / (ny * ny)
    kxy = reference_kernel_sum(x, wx, y, wy, sigma) / (nx * ny)
    return float(kxx + kyy - 2.0 * kxy)


def _bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


def sorted_median(points):
    """Mean of the middle order statistics of the sorted upper triangle of
    ``reference_dists`` over every row, repeats included."""
    p = np.asarray(points, dtype=np.float64)
    d = np.sort(reference_dists(p, p)[np.triu_indices(len(p), 1)])
    return float(0.5 * (d[(len(d) - 1) // 2] + d[len(d) // 2]))


_coord = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3e-209]), st.floats(-1e3, 1e3))


@st.composite
def _point_sets(draw):
    dims = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_coord] * dims), min_size=2, max_size=30))


# distances from a sum of squares and from a chain of hypot calls each lie
# within an ulp of the exact one. The median once came from a radix search
# that split its passes by BLOCK_ENTRIES; it must not depend on the budget
@pytest.mark.parametrize("block", [kernels.BLOCK_ENTRIES, 5])
@settings(deadline=None, max_examples=150)
@given(_point_sets())
@example([(float(i),) for i in range(10)])
@example([(float(i), float(j)) for i in range(4) for j in range(4)])
@example([(0.0,), (0.0,), (0.0,), (3e-209,)])
@example([(0.0,), (0.0,), (0.0,), (5.77e-248,)])
@example([(0.0, 1.0), (0.0, 1.0), (3e-209, 1.0), (5e-324, 1.0), (1.0, 1.0)])
@example([(1.0, 2.0)] * 4 + [(1.0, 3.0)] * 3 + [(4.0, 2.0)] * 5)  # repeated rows
@example([(0.0,)] * 20 + [(1.0,), (2.0,), (3.0,), (4.0,)])  # both middle ranks at 0
def test_median_radix_search_equals_sorted_reference(block, points):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block)
        assert median_pairwise_distance(points) == pytest.approx(
            sorted_median(points), rel=2 * np.finfo(float).eps, abs=0.0)


@st.composite
def _kernel_samples(draw):
    dims = draw(st.integers(1, 3))
    rows = st.lists(st.tuples(*[_coord] * dims), min_size=1, max_size=20)
    x, y = draw(rows), draw(rows)
    if draw(st.booleans()):  # repeated rows, some shared by x and y
        x = x + x[:draw(st.integers(0, len(x)))] + y[:2]
    sigma = draw(st.one_of(st.sampled_from([1e-300, 1e-200, 0.5, 3.0]),
                           st.floats(1e-3, 1e3)))
    return x, y, sigma


# sigma 1e-300 makes (a - b) / sigma overflow, so d^2 / sigma^2 is inf there.
# The one weighted sum and the three sums add in different orders: they
# agree to rounding, as the brute-force test has it
@pytest.mark.parametrize("block", [kernels.BLOCK_ENTRIES, 64, 5])
@settings(deadline=None, max_examples=120)
@given(_kernel_samples())
@example(([(0.0,), (1.0,)], [(2.0,)], 1e-300))
@example(([(0.0, 3e-209), (5e-324, 0.0)], [(3e-209, 3e-209)] * 3, 1e-300))
@example(([(0.0, 1.0)] * 3 + [(2.0, 1.0)], [(0.0, 1.0), (1.0, 1.0)], 0.5))
def test_rbf_mmd2_matches_reference(block, sample):
    x, y, sigma = sample
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block)
        assert rbf_mmd2_biased(x, y, sigma) == pytest.approx(
            reference_rbf_mmd2_biased(x, y, sigma), abs=1e-12)


def test_rbf_mmd2_memory_is_bounded(rng):
    x, y = rng.normal(size=(8000, 2)), rng.normal(size=(8000, 2)) + 0.5
    tracemalloc.start()
    try:
        rbf_mmd2_biased(x, y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# the median over a sample of pairs: threshold, seed, accuracy and memory


def test_median_ignores_the_global_random_state(rng):
    points = rng.normal(size=(600, 2))  # above 512 rows: a sample of pairs
    saved = np.random.get_state()
    try:
        np.random.seed(1)
        first = median_pairwise_distance(points)
        np.random.seed(2)
        np.random.random(10)
        before = np.random.get_state()
        second = median_pairwise_distance(points)
        after = np.random.get_state()  # neither read nor advanced
    finally:
        np.random.set_state(saved)
    assert _bytes(first) == _bytes(second)
    assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_median_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="finite"):
        median_pairwise_distance([(0.0, 1.0), (bad, 0.0), (2.0, 2.0)])


def _continuous_and_levels(rng, n):
    """n continuous dose pairs and n drawn from 25 levels, as the pooled
    sample of a classification report is."""
    x = rng.normal(size=(n, 2)) * [300.0, 0.1]
    levels = rng.normal(size=(25, 2)) * [300.0, 0.1]
    return np.concatenate([x, levels[rng.integers(0, 25, size=n)]])


def test_median_takes_every_pair_up_to_512_rows(rng):
    p = rng.normal(size=513)  # 512 rows make 130,816 pairs, 513 make 131,328
    every = [float(np.median(np.abs(q[:, None] - q)[np.triu_indices(len(q), 1)]))
             for q in (p[:512], p)]
    assert median_pairwise_distance(p[:512]) == every[0]
    # above: the pairs the docstring's draw takes
    draw = np.random.default_rng(kernels._MEDIAN_SEED)
    i = draw.integers(0, 513, kernels._MEDIAN_PAIRS)
    j = draw.integers(0, 512, kernels._MEDIAN_PAIRS)
    j += j >= i
    assert median_pairwise_distance(p) == float(np.median(np.abs(p[i] - p[j]))) != every[1]


def test_sampled_median_is_near_the_median_of_every_pair():
    for seed in range(5):
        points = _continuous_and_levels(np.random.default_rng(seed), 750)  # 1,500 rows
        every = np.concatenate([reference_dists(points[k:k + 1], points[k + 1:])[0]
                                for k in range(len(points) - 1)])
        assert median_pairwise_distance(points) == pytest.approx(np.median(every), rel=0.02)


def test_median_memory_is_bounded(rng):
    points = _continuous_and_levels(rng, 8000)
    tracemalloc.start()
    try:
        median_pairwise_distance(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_fill_series_cases():
    nan = float("nan")
    # interior gap: linear interpolation
    out = fill_series(np.array([1.0, nan, nan, 4.0]), 99.0)
    assert np.allclose(out, [1.0, 2.0, 3.0, 4.0])
    # before first observation: fallback; after last: carry forward
    out = fill_series(np.array([nan, 2.0, nan]), 7.5)
    assert np.allclose(out, [7.5, 2.0, 2.0])
    # all missing: fallback everywhere
    out = fill_series(np.array([nan, nan]), -1.0)
    assert np.allclose(out, [-1.0, -1.0])
    # fully observed: unchanged
    x = np.array([3.0, 1.0, 2.0])
    assert np.array_equal(fill_series(x, 0.0), x)


def loop_fill_series(values, fallback):
    """Reference imputation: the same rules as ``fill_series``, one
    position at a time."""
    out = values.copy()
    obs = np.flatnonzero(~np.isnan(out))
    if obs.size == 0:
        out[:] = fallback
        return out
    first, last = obs[0], obs[-1]
    out[:first] = fallback
    out[last + 1:] = out[last]
    for k in range(obs.size - 1):
        i, j = obs[k], obs[k + 1]
        if j > i + 1:
            step = (out[j] - out[i]) / (j - i)
            for t in range(i + 1, j):
                out[t] = out[i] + step * (t - i)
    return out


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=80),
       st.floats(-1e6, 1e6))
@example([None], 0.25)                  # length 1, all missing
@example([2.5], 0.25)                   # length 1, observed
@example([None, None, None], 0.25)      # all missing
@example([None, 1.0, None, 4.0], 0.25)  # leading NaN
@example([1.0, None, 4.0, None], 0.25)  # trailing NaN
def test_fill_series_bit_equal_to_loop_reference(vals, fallback):
    x = np.array([np.nan if v is None else v for v in vals])
    fast = fill_series(x, fallback)
    ref = loop_fill_series(x, fallback)
    assert np.array_equal(fast.view(np.int64), ref.view(np.int64))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=40),
       st.floats(-10, 10))
def test_fill_series_idempotent_and_complete(vals, fallback):
    x = np.array([np.nan if v is None else v for v in vals])
    once = fill_series(x, fallback)
    assert not np.any(np.isnan(once))
    assert np.array_equal(fill_series(once, fallback), once)


_SERIES = st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=1, max_size=12)


@settings(deadline=None, max_examples=200)
@given(st.lists(_SERIES, min_size=1, max_size=8), st.floats(-1e6, 1e6))
@example([[None], [2.5], [None, None]], 0.25)        # T=1 series, an all-missing one
@example([[None, 1.0, None], [None, 4.0, None]], 0.25)  # no gap spans two series
def test_block_fill_series_equals_per_series_calls(series, fallback):
    parts = [np.array([np.nan if v is None else v for v in vals]) for vals in series]
    block = fill_series(np.concatenate(parts), fallback, [len(p) for p in parts])
    assert block.tobytes() == np.concatenate([fill_series(p, fallback) for p in parts]).tobytes()


_WIDE = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 3e-209, 1e-300]),
                  st.floats(-1e300, 1e300))


@st.composite
def _wide_point_sets(draw):
    dims = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_WIDE] * dims), min_size=2, max_size=12))


@settings(deadline=None, max_examples=150)
@given(_wide_point_sets())
@example([(0.0, 0.0), (1e200, 0.0), (0.0, 1e200), (1e200, 1e200), (2.0, 3.0)])
@example([(0.0,)] * 5 + [(1e-300,), (2e-300,), (1e200,)])  # a tiny median beside a huge span
@example([(0.0,), (5e-324,)])  # 0.5 * lo + 0.5 * hi would round to 0
def test_median_equals_math_dist_brute_force(points):
    # differences past 1e154 overflow a plain sum of squares; math.dist
    # rounds its result correctly, a sum of squares within an ulp or two
    got = median_pairwise_distance(points)
    want = float(np.median([math.dist(p, q) for p, q in itertools.combinations(points, 2)]))
    assert got == pytest.approx(want, rel=4e-16, abs=0.0)


def test_median_of_huge_distances_is_exact():
    points = [(0.0, 0.0), (1e200, 0.0), (0.0, 1e200), (1e200, 1e200), (2.0, 3.0)]
    assert median_pairwise_distance(points) == 1e200
    # two middle distances whose sum overflows, and distances past the float range
    points = [(0.0,), (1.7e308,), (1.6e308,), (-1e307,)]
    d = sorted(math.dist(p, q) for p, q in itertools.combinations(points, 2))
    assert d[2] + d[3] == np.inf
    assert median_pairwise_distance(points) == 0.5 * d[2] + 0.5 * d[3]
    assert median_pairwise_distance([(1.7e308,), (-1.7e308,), (1e308,), (-1e308,)]) == np.inf


def test_discounted_returns_oracle(rng):
    r = rng.normal(size=13)
    gamma = 0.9
    expected = np.array([sum(gamma ** (k - t) * r[k] for k in range(t, 13))
                         for t in range(13)])
    assert np.allclose(discounted_returns(r, gamma), expected, atol=1e-10)


def test_gamma_one_is_plain_suffix_sum():
    r = np.array([1.0, 2.0, 3.0])
    assert np.allclose(discounted_returns(r, 1.0), [6.0, 5.0, 3.0])


@pytest.mark.parametrize("gamma", [0.99, 1.0])
def test_discounted_returns_rows_match_one_dimensional_calls(rng, gamma):
    r = rng.normal(size=(7, 16))
    r[2] = 0.0
    r[3, ::2] = -0.0
    rows = discounted_returns(r, gamma)
    assert rows.shape == r.shape
    assert rows.tobytes() == np.stack([discounted_returns(row, gamma) for row in r]).tobytes()
