"""The numpy kernels must agree with independent brute-force computations
and with plain-loop reference implementations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy import kernels
from cfpolicy.kernels import discounted_returns, fill_series, rbf_mmd2_biased


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


def sorted_median(points):
    """Mean of the middle order statistics of the sorted upper triangle of
    ``_dists`` over every row, repeats included."""
    p = np.asarray(points, dtype=np.float64)
    d = np.sort(kernels._dists(p, p)[np.triu_indices(len(p), 1)])
    return float(0.5 * (d[(len(d) - 1) // 2] + d[len(d) // 2]))


_coord = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3e-209]), st.floats(-1e3, 1e3))


@st.composite
def _point_sets(draw):
    dims = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[_coord] * dims), min_size=2, max_size=30))


# a budget of 5 entries makes the radix search take passes; on the grids
# more than 5 pairs lie at the median, so every bit of it gets fixed
@pytest.mark.parametrize("block", [kernels.BLOCK_ENTRIES, 5])
@settings(deadline=None, max_examples=150)
@given(_point_sets())
@example([(float(i),) for i in range(10)])
@example([(float(i), float(j)) for i in range(4) for j in range(4)])
@example([(0.0,), (0.0,), (0.0,), (3e-209,)])
@example([(0.0,), (0.0,), (0.0,), (5.77e-248,)])
@example([(0.0, 1.0), (0.0, 1.0), (3e-209, 1.0), (5e-324, 1.0), (1.0, 1.0)])
def test_median_radix_search_equals_sorted_reference(block, points):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_ENTRIES", block)
        assert kernels.median_pairwise_distance(points) == sorted_median(points)


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


def test_discounted_returns_oracle(rng):
    r = rng.normal(size=13)
    gamma = 0.9
    expected = np.array([sum(gamma ** (k - t) * r[k] for k in range(t, 13))
                         for t in range(13)])
    assert np.allclose(discounted_returns(r, gamma), expected, atol=1e-10)


def test_gamma_one_is_plain_suffix_sum():
    r = np.array([1.0, 2.0, 3.0])
    assert np.allclose(discounted_returns(r, 1.0), [6.0, 5.0, 3.0])
