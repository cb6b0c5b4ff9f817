"""Divergence metrics against independent brute-force oracles, plus the
counterfactual discrepancy report."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpolicy import divergence, kernels
from cfpolicy.bc import BcHyperParams, predict, train_bc
from cfpolicy.cohort import SubgroupKey, filter_subgroup
from cfpolicy.divergence import (DEFAULT_EPS, DiscrepancyReport,
                                 counterfactual_report, empirical_action_dist,
                                 js_divergence, kl_divergence, mmd_rbf,
                                 wasserstein1)
from cfpolicy.dynamics import state_window
from cfpolicy.preprocess import denormalize_actions


# ---------------------------------------------------------------------------
# brute-force oracles (plain python, no shared code with the implementation)


def brute_kl(p, q, eps):
    k = len(p)
    p = [(v + eps) / (1 + k * eps) for v in p]
    q = [(v + eps) / (1 + k * eps) for v in q]
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def brute_js(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    return 0.5 * brute_kl(p, m, 0.0) + 0.5 * brute_kl(q, m, 0.0)


def _point(a):
    return tuple(a) if isinstance(a, (list, tuple)) else (a,)


def brute_bandwidth(pooled):
    """Median of all pairwise distances (mean of the middle two when even),
    1.0 when that median is zero."""
    dists = sorted(math.dist(_point(a), _point(b)) for i, a in enumerate(pooled)
                   for b in pooled[i + 1:])
    n = len(dists)
    sigma = (dists[n // 2] if n % 2 == 1
             else 0.5 * (dists[n // 2 - 1] + dists[n // 2]))
    return sigma if sigma != 0 else 1.0


def brute_mmd(x, y):
    """x, y: lists of numbers or of equal-length tuples (points)."""
    sigma = brute_bandwidth(list(x) + list(y))

    def k(a, b):
        r = math.dist(_point(a), _point(b)) / sigma
        return math.exp(-r * r / 2)  # r * r gives inf, not OverflowError, far out

    kxx = sum(k(a, b) for a in x for b in x) / len(x) ** 2
    kyy = sum(k(a, b) for a in y for b in y) / len(y) ** 2
    kxy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return math.sqrt(max(kxx + kyy - 2 * kxy, 0.0))


def brute_w1_equal(x, y):
    return sum(abs(a - b) for a, b in zip(sorted(x), sorted(y))) / len(x)


def _random_dist(rng, k):
    p = rng.random(k) + 1e-3
    return p / p.sum()


def test_kl_and_js_match_bruteforce_on_50_instances(rng):
    for _ in range(50):
        k = int(rng.integers(2, 20))
        p, q = _random_dist(rng, k), _random_dist(rng, k)
        assert kl_divergence(p, q) == pytest.approx(
            brute_kl(p.tolist(), q.tolist(), DEFAULT_EPS), abs=1e-9)
        assert js_divergence(p, q) == pytest.approx(
            brute_js(p.tolist(), q.tolist()), abs=1e-9)


def test_mmd_matches_bruteforce_on_50_instances(rng):
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(3, 15)))
        y = rng.normal(size=int(rng.integers(3, 15))) + rng.normal()
        assert mmd_rbf(x, y) == pytest.approx(
            brute_mmd(x.tolist(), y.tolist()), abs=1e-9)


def test_w1_matches_bruteforce_on_50_instances(rng):
    for _ in range(50):
        n = int(rng.integers(2, 30))
        x, y = rng.normal(size=n), rng.normal(size=n) * 2 + 1
        assert wasserstein1(x, y) == pytest.approx(
            brute_w1_equal(x.tolist(), y.tolist()), abs=1e-9)


# ---------------------------------------------------------------------------
# analytic/structural properties


def test_kl_properties(rng):
    p = _random_dist(rng, 10)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    q = _random_dist(rng, 10)
    assert kl_divergence(p, q) >= 0.0
    # smoothing keeps zero-support arguments finite
    assert np.isfinite(kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_js_symmetric_and_bounded(seed):
    r = np.random.default_rng(seed)
    p, q = _random_dist(r, 8), _random_dist(r, 8)
    a, b = js_divergence(p, q), js_divergence(q, p)
    assert a == pytest.approx(b, abs=1e-12)
    assert 0.0 <= a <= math.log(2) + 1e-12


def test_w1_translation_and_triangle(rng):
    x, y, z = rng.normal(size=20), rng.normal(size=20), rng.normal(size=20)
    assert wasserstein1(x, x + 3.0) == pytest.approx(3.0, abs=1e-12)
    assert wasserstein1(x + 5, y + 5) == pytest.approx(wasserstein1(x, y), abs=1e-9)
    assert wasserstein1(x, z) <= wasserstein1(x, y) + wasserstein1(y, z) + 1e-12


def test_w1_unequal_sizes_quantile_alignment(rng):
    x = rng.normal(size=30)
    assert wasserstein1(x, x) == 0.0
    big = np.concatenate([x, x])  # same distribution, double the draws
    assert wasserstein1(x, big) == pytest.approx(0.0, abs=1e-9)


def test_mmd_identical_samples_and_bandwidth_fallback(rng):
    x = rng.normal(size=(10, 2))
    assert mmd_rbf(x, x) == pytest.approx(0.0, abs=1e-9)
    with pytest.warns(UserWarning, match="bandwidth"):
        assert mmd_rbf(np.zeros(5), np.zeros(5)) == 0.0
    with pytest.raises(ValueError, match="at least 1 sample"):
        mmd_rbf(np.zeros((0, 2)), np.zeros((5, 2)))


def test_bandwidth_fallback_when_most_pooled_rows_are_equal(rng):
    # the pairs of the 2,000 zero rows are 51% of all pairs, so both middle
    # ranks of the 2^17 sampled pairs lie among them
    x = np.concatenate([np.zeros((1000, 2)), rng.normal(size=(400, 2))])
    y = np.concatenate([np.zeros((1000, 2)), rng.normal(size=(400, 2))])
    info = {}
    with pytest.warns(UserWarning, match="zero median pairwise distance"):
        mmd_rbf(x, y, info=info)
    assert info == {"bandwidth": 1.0, "fallback": True}


def test_mmd_ignores_a_large_constant_coordinate():
    # the constant coordinate's differences are 0: it adds exactly 0 to every distance
    x, y = [[1e300, 0.0], [1e300, 1e-10]], [[1e300, 2e-10], [1e300, 3e-10]]
    info, plain = {}, {}
    got = mmd_rbf(x, y, info=info)
    assert got == mmd_rbf([[0.0], [1e-10]], [[2e-10], [3e-10]], info=plain) > 0.0
    assert info == plain


@pytest.mark.parametrize("x, y", [([[-1e308]], [[1e308]]),
                                  ([[-1e308], [-1e308]], [[1e308], [0.0]])])
def test_mmd_rejects_a_span_beyond_the_float_range(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise instead
        with pytest.raises(ValueError, match="float range"):
            mmd_rbf(x, y)


def test_explicit_bandwidth_is_respected(rng):
    x, y = rng.normal(size=8), rng.normal(size=8) + 2
    assert mmd_rbf(x, y, bandwidth=0.5) != mmd_rbf(x, y, bandwidth=5.0)
    # unchecked, 0 divides by zero, nan gives nan, inf gives 0.0 and -1 the value of +1
    for bad in (0.0, float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite bandwidth > 0"):
            mmd_rbf([[0.0], [1.0]], [[0.5], [2.0]], bandwidth=bad)


def _sample(draw, n, dims, integer):
    if integer:  # few distinct values: heavy ties, many zero distances
        cell = st.integers(0, 3).map(float)
    else:
        cell = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
    return draw(st.lists(st.tuples(*[cell] * dims), min_size=n, max_size=n))


@st.composite
def mmd_samples(draw):
    dims = draw(st.integers(1, 3))
    integer = draw(st.booleans())
    x = _sample(draw, draw(st.integers(1, 14)), dims, integer)
    y = _sample(draw, draw(st.integers(1, 14)), dims, integer)
    return x, y


def _check_against_bruteforce(x, y):
    xa, ya = np.array(x), np.array(y)
    info = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = mmd_rbf(xa, ya, info=info)
    assert info["bandwidth"] == pytest.approx(brute_bandwidth(x + y), rel=1e-12)
    # compared squared: where both samples hold the same points the oracle's
    # own summation order leaves ~1e-16 in MMD^2, whose square root is ~1e-8
    assert got**2 == pytest.approx(brute_mmd(x, y) ** 2, abs=1e-12)


# N pooled points make N(N-1)/2 pairs: even for N = 4 or 5, odd for N = 6 or 7
@settings(deadline=None, max_examples=200)
@given(mmd_samples())
@example(([(0.0,), (1.0,)], [(1.0,), (0.0,)]))
# one row on a side, as at the ragged tail of a per-timestep report
@example(([(0.5, 1.0)], [(2.0, 0.0)]))
@example(([(0.5, 1.0)], [(1.0, 2.0), (3.0, 0.0), (3.0, 0.0), (0.5, 1.0), (2.0, 2.0)]))
@example(([(0.0,), (1.0,), (1.0,), (4.0,)], [(2.0,)]))
# squared distances underflow to 0 unless differences are scaled before squaring
@example(([(0.0,), (0.0,)], [(0.0,), (5.77e-248,)]))
# ... or when the median distance is far below the span
@example(([(0.0,), (0.0,), (0.0,), (2.988579002148598e-209,)], [(1.0,)]))
# a subnormal point beside -1: the bandwidth is 1.4e-45, not the 1.0 fallback
@example(([(0.0,), (0.0,), (0.0,), (1.401298464324817e-45,)], [(-1.0,)]))
@example(([(0.0, 0.0), (0.0, 0.0), (3e-200, 4e-200)], [(0.0, 0.0), (1.0, 1.0)]))
@example(([(0.0,), (0.0,)], [(0.0,), (2.0,), (2.0,)]))
@example(([(1.0, 2.0), (1.0, 2.0)], [(1.0, 2.0), (3.0, 0.0), (3.0, 0.0), (0.5, 1.0)]))
@example(([(0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, 0.0, 1.0)],
          [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.0, 1.0), (0.0, 0.0, 1.0)]))
def test_mmd_matches_bruteforce_with_ties_in_1_to_3_dims(sample):
    _check_against_bruteforce(*sample)


def test_mmd_blocked_passes_match_bruteforce(monkeypatch, rng):
    # a budget of a few entries forces many blocks in the kernel sums
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 5)
    for i in range(40):
        dims, n, m = int(rng.integers(1, 4)), int(rng.integers(2, 30)), int(rng.integers(2, 30))
        if i % 2:
            x = rng.integers(0, 4, size=(n, dims)).astype(float)
            y = rng.integers(0, 4, size=(m, dims)).astype(float)
        else:
            x, y = rng.normal(size=(n, dims)), rng.normal(size=(m, dims)) + 0.5
        _check_against_bruteforce([tuple(p) for p in x], [tuple(p) for p in y])


def test_mmd_memory_does_not_grow_with_sample_size(rng):
    x = rng.normal(size=(4000, 2)) * [300.0, 0.1]
    levels = rng.normal(size=(25, 2)) * [300.0, 0.1]
    y = levels[rng.integers(0, 25, size=4000)]
    tracemalloc.start()
    try:
        value = mmd_rbf(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 2.0
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"


# ---------------------------------------------------------------------------
# action distributions and the report


@pytest.fixture(scope="module")
def subgroup_policy(proc_cohort):
    hp = BcHyperParams(epochs=6, seed=0, max_windows=800)
    return train_bc(proc_cohort, SubgroupKey("gender", "M"), "classification", hp)


def test_realized_distribution_is_bin_histogram(proc_cohort):
    dist = empirical_action_dist(None, proc_cohort, "test")
    labels = np.concatenate([tr.action_bins
                             for tr in proc_cohort.split_of("test").trajectories])
    expected = np.bincount(labels, minlength=25) / labels.size
    assert np.allclose(dist.probs, expected)
    assert dist.n == labels.size
    assert len(dist.fluid) == labels.size


def test_policy_distribution_mean_probs(subgroup_policy, proc_cohort):
    dist = empirical_action_dist(subgroup_policy, proc_cohort, "test")
    assert dist.probs.shape == (25,)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_per_timestep_distributions(proc_cohort):
    pooled, dists = empirical_action_dist(None, proc_cohort, "test", per_timestep=True)
    T = proc_cohort.split_of("test").trajectories[0].T
    assert len(dists) == T
    assert np.array_equal(pooled.probs, empirical_action_dist(None, proc_cohort, "test").probs)


def _pooled_doses(policy, cohort, key):
    sub = filter_subgroup(cohort, key)
    dists = [empirical_action_dist(p, sub, "test") for p in (None, policy)]
    return np.concatenate([np.stack([d.fluid, d.vaso], axis=1) for d in dists])


@pytest.mark.parametrize("per_timestep", [False, True])
def test_counterfactual_predicts_once_per_subgroup(subgroup_policy, proc_cohort,
                                                   monkeypatch, per_timestep):
    calls = []

    def counted(policy, windows):
        calls.append(len(windows))
        return predict(policy, windows)

    monkeypatch.setattr(divergence, "predict", counted)
    target = SubgroupKey("gender", "F")
    if per_timestep:  # some timestep's pooled doses are all equal
        with pytest.warns(UserWarning, match="zero median pairwise distance"):
            counterfactual_report(subgroup_policy, proc_cohort, target, per_timestep=True)
    else:
        counterfactual_report(subgroup_policy, proc_cohort, target)
    # the target's windows, then the source subgroup's for the control
    assert calls == [sum(tr.T for tr in
                         filter_subgroup(proc_cohort, key).split_of("test").trajectories)
                     for key in (target, subgroup_policy.source_subgroup)]


def test_counterfactual_report_structure(subgroup_policy, proc_cohort, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = counterfactual_report(subgroup_policy, proc_cohort,
                                       SubgroupKey("gender", "F"), seed=7,
                                       per_timestep=True)
    fallbacks = sum("zero median pairwise distance" in str(w.message) for w in caught)
    assert set(report.metrics) == {"kl", "kl_reverse", "js", "w1_fluid",
                                   "w1_vaso", "mmd"}
    assert set(report.control) == set(report.metrics)
    assert report.source_subgroup == "gender=M"
    assert report.target_subgroup == "gender=F"
    assert report.conventions["kl_direction"] == "realized||counterfactual"
    assert report.conventions["counterfactual_probs"] == "mean of predicted probability vectors"
    assert all(len(v) > 0 for v in report.per_timestep.values())
    n_test_f = len(filter_subgroup(proc_cohort, SubgroupKey("gender", "F")).split_of("test"))
    assert report.sample_sizes["per_timestep"] == [n_test_f] * proc_cohort.trajectories[0].T

    bw = report.conventions["mmd_bandwidth"]
    assert bw["method"] == ("median of pooled pairwise distances between doses in train-split "
                            "z-units, (dose - action_mean) / action_std "
                            "(every pair up to 512 rows, else 2^17 pairs drawn with seed 0)")
    assert fallbacks > 0 and bw["zero_distance_fallbacks"] == fallbacks
    stats = proc_cohort.norm_stats
    for scope, key in (("aggregate", "F"), ("control", "M")):
        pooled = _pooled_doses(subgroup_policy, proc_cohort, SubgroupKey("gender", key))
        pooled = (pooled - stats.action_mean) / stats.action_std
        iu = np.triu_indices(len(pooled), k=1)
        dists = np.linalg.norm(pooled[:, None] - pooled[None], axis=-1)[iu]
        assert bw[scope] == pytest.approx(np.median(dists), rel=1e-12)

    json_path = tmp_path / "report.json"
    report.save(json_path)
    back = DiscrepancyReport.load(json_path)
    assert back.metrics == report.metrics
    assert back.control == report.control

    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scope,timestep,metric,value"
    assert any(line.startswith("aggregate,,kl,") for line in lines)
    assert any(line.startswith("per_timestep,0,") for line in lines)


def test_report_mmd_sees_a_vaso_only_shift(subgroup_policy, proc_cohort, monkeypatch):
    # the counterfactual is the realized distribution with one drug's doses
    # moved by one train-split action_std
    realized = divergence.empirical_action_dist
    std = proc_cohort.norm_stats.action_std

    def mmd_of_shift(drug):
        def shifted(policy, cohort, split="test", per_timestep=False):
            dist = realized(None, cohort, split, per_timestep)
            if policy is None:
                return dist
            doses = {"fluid": dist.fluid, "vaso": dist.vaso}
            doses[drug] = doses[drug] + std[int(drug == "vaso")]
            return replace(dist, **doses)

        monkeypatch.setattr(divergence, "empirical_action_dist", shifted)
        report = counterfactual_report(subgroup_policy, proc_cohort, SubgroupKey("gender", "F"))
        assert report.metrics["kl"] == report.control["kl"] == 0.0
        return report.metrics["mmd"]

    fluid, vaso = mmd_of_shift("fluid"), mmd_of_shift("vaso")
    assert vaso > 0.5 * fluid > 0.0, (fluid, vaso)


def _hand_binned_histogram(doses, binning):
    """25-bin histogram of raw dose pairs, binned without the package's
    binning code: a dose <= 0 is bin 0, else 1 + the cutoffs below it."""
    counts = np.zeros(25)
    for fluid, vaso in doses:
        fb = 0 if fluid <= 0 else 1 + sum(c < fluid for c in binning.fluid_cutoffs)
        vb = 0 if vaso <= 0 else 1 + sum(c < vaso for c in binning.vaso_cutoffs)
        counts[5 * fb + vb] += 1
    return counts / counts.sum()


def test_regression_kl_measures_the_binned_predictions(proc_cohort):
    key = SubgroupKey("gender", "F")
    target = filter_subgroup(proc_cohort, key)
    trajs = target.split_of("test").trajectories
    windows = np.concatenate([state_window(tr.states, np.arange(tr.T)).reshape(tr.T, -1)
                              for tr in trajs])
    realized = np.bincount(np.concatenate([tr.action_bins for tr in trajs]), minlength=25)
    realized = realized / realized.sum()
    kls = []
    for seed in (0, 1):
        hp = BcHyperParams(epochs=4, seed=seed, max_windows=800)
        policy = train_bc(proc_cohort, SubgroupKey("gender", "M"), "regression", hp)
        report = counterfactual_report(policy, proc_cohort, key)
        doses = denormalize_actions(proc_cohort.norm_stats, predict(policy, windows))
        expected = kl_divergence(realized, _hand_binned_histogram(doses, proc_cohort.binning))
        assert report.metrics["kl"] == pytest.approx(expected, rel=1e-12)
        assert report.conventions["counterfactual_probs"].endswith(
            "a predicted dose <= 0 counts as no drug")
        kls.append(report.metrics["kl"])
    assert kls[0] != kls[1]


def test_disparity_visible_in_report(subgroup_policy, proc_cohort):
    # the fixture cohort plants a vasopressor disparity on gender
    report = counterfactual_report(subgroup_policy, proc_cohort,
                                   SubgroupKey("gender", "F"))
    assert report.metrics["kl"] > report.control["kl"]


def _truncated(cohort, rng, shortest, longest):
    """The cohort with each encounter cut to a random length."""
    T = np.array([rng.integers(shortest, longest + 1) for _ in range(len(cohort))])
    death = cohort.mortality_step
    return replace(cohort, lengths=T, mortality_step=np.where(death < T, death, -1))


def test_ragged_cohort_report(subgroup_policy, proc_cohort):
    key = SubgroupKey("gender", "F")
    ragged = _truncated(proc_cohort, np.random.default_rng(5), 8, 30)
    test_trajs = filter_subgroup(ragged, key).split_of("test").trajectories
    lengths = np.array([tr.T for tr in test_trajs])
    assert lengths.min() < lengths.max()

    report = counterfactual_report(subgroup_policy, ragged, key)
    assert report.sample_sizes["target"] == report.sample_sizes["counterfactual"] == lengths.sum()

    with pytest.warns(UserWarning, match="zero median pairwise distance"):
        report = counterfactual_report(subgroup_policy, ragged, key, per_timestep=True)
    horizon = int(lengths.max())
    assert report.sample_sizes["per_timestep"] == [int((lengths > t).sum())
                                                  for t in range(horizon)]
    assert all(len(v) == horizon for v in report.per_timestep.values())
    assert all(np.isfinite(v) for series in report.per_timestep.values() for v in series)
    # the tail entry holds one encounter; its MMD is that of one row per side
    assert report.sample_sizes["per_timestep"][-1] == 1
    _, real_t = empirical_action_dist(None, filter_subgroup(ragged, key), "test",
                                      per_timestep=True)

    # entry t holds the predictions on the windows of the encounters reaching t
    _, cf_t = empirical_action_dist(subgroup_policy, filter_subgroup(ragged, key), "test",
                                    per_timestep=True)
    for t in (0, int(lengths.min()), horizon - 1):
        windows = np.stack([state_window(tr.states, t).reshape(-1)
                            for tr in test_trajs if tr.T > t])
        assert np.array_equal(cf_t[t].probs, predict(subgroup_policy, windows).mean(axis=0))
    tail = [[(d.fluid[0], d.vaso[0])] for d in (real_t[-1], cf_t[-1])]
    assert tail[0] != tail[1]
    assert report.per_timestep["mmd"][-1] == pytest.approx(brute_mmd(*tail), abs=1e-12)
