"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget, printing a single summary line on success.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from cfpolicy.bc import (REFERENCE_METRICS, BcHyperParams, build_dataset, eval_report,
                         train_bc)
from cfpolicy.cohort import (CohortDataset, PatientTrajectory, SubgroupKey,
                             assign_splits)
from cfpolicy.divergence import (DEFAULT_EPS, counterfactual_report,
                                 js_divergence, kl_divergence, mmd_rbf,
                                 wasserstein1)
from cfpolicy.dynamics import (STATE_CLIP, DynHyperParams, eval_dynamics_mse,
                               rollout, train_dynamics)
from cfpolicy.gail import GailConfig, StochasticPolicy, make_episode_sampler, train_gail
from cfpolicy.numcore import Mlp, MlpSpec, RecurrentRegressor, mse_loss, nll_loss, rmse_loss
from cfpolicy.preprocess import (VASOPRESSOR_FACTORS, action_index_to_doses,
                                 fit_binning, fit_norm_stats, invert_norm_feature,
                                 norepi_equivalent, normalize_actions,
                                 preprocess_cohort)
from cfpolicy.reward import step_reward
from cfpolicy.synth import SynthConfig, generate
from gradcheck import finite_difference_check
from references import apply_norm, impute


def _passed(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared cohorts (built once; training budgets are timed inside each test)


@pytest.fixture(scope="module")
def big_proc():
    """The n=2000, delta=0.5, seed-7 cohort used by the learning criteria."""
    cohort, _ = generate(SynthConfig(n_patients=2000, seed=7, disparity_delta=0.5))
    return preprocess_cohort(assign_splits(cohort, seed=7))


# ---------------------------------------------------------------------------
# 1. clinical-cohort reference numbers are constants, not reproduced


def test_criterion_1_reference_constants(big_proc):
    assert REFERENCE_METRICS["binned_action_classification_auroc"] == {
        "mean": 0.83, "std": 0.01}
    assert REFERENCE_METRICS["continuous_action_regression_rmse_fluid"] == {
        "mean": 0.68, "std": 0.05}
    assert REFERENCE_METRICS["continuous_action_regression_rmse_vasopressor"] == {
        "mean": 0.41, "std": 0.06}
    # and they travel inside every evaluation report for context
    hp = BcHyperParams(epochs=1, max_windows=500, seed=0)
    pol = train_bc(big_proc, None, "regression", hp)
    assert eval_report(pol, big_proc)["reference_metrics"] is REFERENCE_METRICS
    _passed(1, "reference AUROC/RMSE constants stored and reported verbatim")


# ---------------------------------------------------------------------------
# 2. gradient correctness on every trainable layer, 10 seeds, < 30 s


def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # dense + batch-norm stack under both output heads
        for head, loss in (("linear", rmse_loss), ("softmax", nll_loss)):
            mlp = Mlp(MlpSpec(widths=(5, 8, 6, 3), batch_norm=True), rng)
            x = rng.normal(size=(9, 5))
            target = (rng.integers(0, 3, size=9) if head == "softmax"
                      else rng.normal(size=(9, 3)))

            def loss_fn(mlp=mlp, x=x, target=target, loss=loss):
                out = mlp.forward(x, train=True)
                value, grad = loss(out, target)
                mlp.backward(grad)
                return value

            worst = max(worst, finite_difference_check(mlp.params(), loss_fn))
        # recurrent cell
        net = RecurrentRegressor(4, 6, 3, rng)
        xr = rng.normal(size=(5, 3, 4))
        tr = rng.normal(size=(5, 3))

        def loss_fn_r(net=net, xr=xr, tr=tr):
            out = net.forward(xr, train=True)
            value, grad = mse_loss(out, tr)
            net.backward(grad)
            return value

        worst = max(worst, finite_difference_check(net.params(), loss_fn_r))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    _passed(2, f"max rel grad error {worst:.2e} over 10 seeds x 3 nets "
               f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. divergence metrics match independent brute force within 1e-9, < 5 s


def _brute_kl(p, q, eps):
    k = len(p)
    p = [(v + eps) / (1 + k * eps) for v in p]
    q = [(v + eps) / (1 + k * eps) for v in q]
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def _brute_js(p, q):
    m = [(a + b) / 2 for a, b in zip(p, q)]
    return 0.5 * _brute_kl(p, m, 0.0) + 0.5 * _brute_kl(q, m, 0.0)


def _brute_mmd(x, y):
    pooled = list(x) + list(y)
    dists = sorted(abs(a - b) for i, a in enumerate(pooled) for b in pooled[i + 1:])
    n = len(dists)
    sigma = (dists[n // 2] if n % 2 == 1
             else 0.5 * (dists[n // 2 - 1] + dists[n // 2])) or 1.0

    def k(a, b):
        return math.exp(-((a - b) ** 2) / (2 * sigma**2))

    kxx = sum(k(a, b) for a in x for b in x) / len(x) ** 2
    kyy = sum(k(a, b) for a in y for b in y) / len(y) ** 2
    kxy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return math.sqrt(max(kxx + kyy - 2 * kxy, 0.0))


def _brute_w1(x, y):
    return sum(abs(a - b) for a, b in zip(sorted(x), sorted(y))) / len(x)


def test_criterion_3_divergences_vs_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        p = rng.random(k) + 1e-3
        q = rng.random(k) + 1e-3
        p, q = p / p.sum(), q / q.sum()
        assert kl_divergence(p, q) == pytest.approx(
            _brute_kl(p.tolist(), q.tolist(), DEFAULT_EPS), abs=1e-9)
        assert js_divergence(p, q) == pytest.approx(
            _brute_js(p.tolist(), q.tolist()), abs=1e-9)
        n = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=n) * 1.5 + rng.normal()
        assert mmd_rbf(x, y) == pytest.approx(
            _brute_mmd(x.tolist(), y.tolist()), abs=1e-9)
        assert wasserstein1(x, y) == pytest.approx(
            _brute_w1(x.tolist(), y.tolist()), abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(3, f"KL/JS/MMD/W1 within 1e-9 of brute force on 50 instances "
               f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. preprocessing properties, < 5 s


def test_criterion_4_preprocessing_properties():
    t0 = time.perf_counter()
    # --- quantile binning: 25 +/- 5 % mass per nonzero bin on 1e4 doses
    rng = np.random.default_rng(11)
    n, T = 100, 100  # 10^4 dose rows per drug
    schema = generate(SynthConfig(n_patients=2, T=4, n_features=10, seed=0))[0].schema
    trajs = []
    for i in range(n):
        states = rng.normal(size=(T, 10))
        states[:, 7] = (states[:, 7] > 0).astype(float)
        actions = np.abs(rng.gamma(2.0, 1.0, size=(T, 2)))
        actions[rng.random((T, 2)) < 0.1] = 0.0  # some true zero doses
        trajs.append(PatientTrajectory(
            id=f"p{i}", attributes={"gender": "F", "ethnicity": "group_a"},
            states=states, actions=actions, mortality_step=None,
            outcome_alive=True))
    cohort = assign_splits(CohortDataset.from_trajectories(schema, trajs), seed=0)
    binning = fit_binning(cohort)
    for cuts in (binning.fluid_cutoffs, binning.vaso_cutoffs):
        doses = np.concatenate([tr.actions for tr in trajs])[:, 0 if cuts is
                                                             binning.fluid_cutoffs else 1]
        nz = doses[doses > 0]
        bins = 1 + np.sum(nz[:, None] > cuts[None, :], axis=1)
        for b in range(1, 5):
            frac = np.mean(bins == b)
            assert 0.20 <= frac <= 0.30, f"bin {b} mass {frac:.3f}"

    # --- imputation idempotence and normalization round trip
    masked, _ = generate(SynthConfig(n_patients=30, T=24, n_features=12, seed=4))
    from cfpolicy.synth import inject_missingness
    masked = assign_splits(inject_missingness(masked, rate=0.25, seed=4), seed=4)
    stats = fit_norm_stats(masked)
    for tr in masked.trajectories[:10]:
        once = impute(tr, stats)
        twice = impute(once, stats)
        assert np.array_equal(once.states, twice.states)
        normed = apply_norm(once, stats)
        for j in range(normed.states.shape[1]):
            back = invert_norm_feature(stats, j, normed.states[:, j])
            assert np.max(np.abs(back - once.states[:, j])) < 1e-9

    # --- norepinephrine equivalence is exact arithmetic
    for d in (0.0, 0.3, 7.0, 123.456):
        assert norepi_equivalent("norepinephrine", d) == d
        assert norepi_equivalent("phenylephrine", d) == d / 10.0
        assert norepi_equivalent("dopamine", d) == d / 100.0
        assert norepi_equivalent("vasopressin", d) == d * 2.5
    assert set(VASOPRESSOR_FACTORS) == {"norepinephrine", "phenylephrine",
                                        "dopamine", "vasopressin"}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(4, f"binning mass, imputation idempotence, norm round trip, "
               f"exact dose conversions in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. behavioral cloning learns the planted policy, < 5 min


def test_criterion_5_bc_learnability(big_proc):
    t0 = time.perf_counter()
    hp = BcHyperParams(epochs=30, max_windows=40000, seed=0)
    clf = train_bc(big_proc, None, "classification", hp)
    auroc = eval_report(clf, big_proc, split="test")["macro_auroc"]
    reg = train_bc(big_proc, None, "regression", hp)
    report = eval_report(reg, big_proc, split="test")
    f_r, v_r = report["rmse_fluid"], report["rmse_vaso"]
    Y = np.asarray(build_dataset(big_proc, "test", "regression")[1])
    zero = np.sqrt(np.mean(Y * Y, axis=0))
    improve = (1 - f_r / zero[0], 1 - v_r / zero[1])
    elapsed = time.perf_counter() - t0
    assert auroc >= 0.75
    assert improve[0] >= 0.30 and improve[1] >= 0.30
    assert elapsed < 300.0
    _passed(5, f"macro AUROC {auroc:.3f}, RMSE beats zero baseline by "
               f"{improve[0]:.0%}/{improve[1]:.0%} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. dynamics model beats the zero-delta baseline; rollouts stay bounded


def test_criterion_6_dynamics(big_proc):
    t0 = time.perf_counter()
    dyn = train_dynamics(big_proc, DynHyperParams(epochs=10, max_windows=20000, seed=0))
    mse_model, mse_zero = eval_dynamics_mse(dyn, big_proc, split="test")
    ratio = mse_model / mse_zero
    assert ratio <= 0.5, f"model/zero MSE ratio {ratio:.3f}"

    rng = np.random.default_rng(0)
    stats, binning = big_proc.norm_stats, big_proc.binning
    starts = np.stack([tr.states[0] for tr in big_proc.split_of("test").trajectories[:10]])

    def random_policy(s_win):
        doses = action_index_to_doses(rng.integers(0, 25, len(s_win)), binning)
        return normalize_actions(stats, doses)

    states, _ = rollout(dyn, random_policy, np.stack([starts] * 3, axis=1), 72)
    assert states.shape[:2] == (10, 73)
    assert np.all(np.isfinite(states))
    assert np.all(np.abs(states[:, 1:]) <= STATE_CLIP)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passed(6, f"test MSE ratio {ratio:.3f} <= 0.5; 10x 72-step rollouts "
               f"finite within +/-{STATE_CLIP} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. reward boundary table is exact, < 1 s


def test_criterion_7_reward_boundaries():
    t0 = time.perf_counter()

    def r(m, s):
        return step_reward(m, s, died_now=False, is_terminal=False, alive_at_end=True)

    assert r(60.0, 120.0) == 0.05          # MAP == 60 earns the bonus
    assert r(80.0, 120.0) == 0.05          # MAP == 80 earns the bonus
    assert r(np.nextafter(60.0, 0.0), 120.0) == -0.05   # just below band
    assert r(np.nextafter(80.0, 200.0), 120.0) == 0.0   # just above band
    assert r(70.0, 180.0) == 0.05          # SBP == 180 is NOT a crisis
    assert r(70.0, np.nextafter(180.0, 300.0)) == 0.05 - 0.05  # strict crisis
    assert r(50.0, 200.0) == -0.05 - 0.05  # hypo + crisis are additive
    # mortality terms
    assert step_reward(70.0, 120.0, False, True, True) == 0.05 + 1.0
    assert step_reward(70.0, 120.0, False, True, False) == 0.05 - 1.0
    assert step_reward(70.0, 120.0, True, False, False) == 0.05 - 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(7, f"MAP/SBP/mortality boundary table exact in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 8. adversarial imitation sanity, < 10 min


def test_criterion_8_gail():
    t0 = time.perf_counter()
    cohort, _ = generate(SynthConfig(n_patients=300, seed=7, disparity_delta=0.5))
    proc = preprocess_cohort(assign_splits(cohort, seed=7))
    dyn = train_dynamics(proc, DynHyperParams(epochs=5, max_windows=8000, seed=0))

    # (a) the discriminator alone separates expert data from a frozen random
    # policy with >= 0.9 accuracy within 50 iterations
    frozen_cfg = GailConfig(iterations=50, seed=3, convention="gail-orig",
                            disc_steps=5, disc_lr=1e-3, freeze_policy=True)
    frozen = train_gail(proc, dyn, frozen_cfg)
    best_acc = max(h["disc_accuracy"] for h in frozen.log)
    assert best_acc >= 0.9

    # (b) full adversarial training: the trained policy confuses the final
    # discriminator more than the initial random policy does
    cfg = GailConfig(iterations=200, seed=3, convention="gail-orig")
    res = train_gail(proc, dyn, cfg)
    max_kl = max(h["kl"] for h in res.log)
    assert max_kl <= 0.05 + 1e-12, f"post-update KL exceeded target: {max_kl}"

    sampler = make_episode_sampler(proc, dyn, cfg)
    rng = np.random.default_rng(99)

    def gap(policy):
        obs, act = sampler(policy, rng, 20)
        obs, act = obs.reshape(-1, obs.shape[-1]), act.reshape(-1)
        onehot = np.zeros((len(act), res.policy.n_actions))
        onehot[np.arange(len(act)), act] = 1.0
        d = res.disc.score(np.concatenate([obs, onehot], axis=1))
        return float(np.abs(d - 0.5).mean())

    final_gap = gap(res.policy)
    init_pol = StochasticPolicy(res.policy.obs_dim, np.random.default_rng(123),
                                n_actions=res.policy.n_actions,
                                hidden=cfg.policy_hidden)
    init_pol.load_state(res.initial_policy_state)
    init_gap = gap(init_pol)
    elapsed = time.perf_counter() - t0
    assert final_gap < init_gap, (final_gap, init_gap)
    assert elapsed < 600.0
    _passed(8, f"disc acc {best_acc:.3f} >= 0.9; |D-0.5| {final_gap:.3f} < "
               f"{init_gap:.3f} (random); max KL {max_kl:.4f} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. counterfactual disparity detection end to end, < 10 min combined


def test_criterion_9_counterfactual_detection():
    t0 = time.perf_counter()
    ratios = {}
    for delta in (0.5, 0.0):
        cohort, _ = generate(SynthConfig(n_patients=1000, seed=7,
                                         disparity_delta=delta))
        proc = preprocess_cohort(assign_splits(cohort, seed=7))
        hp = BcHyperParams(epochs=20, max_windows=25000, seed=0)
        pol = train_bc(proc, SubgroupKey("gender", "M"), "classification", hp)
        rep = counterfactual_report(pol, proc, SubgroupKey("gender", "F"), seed=0)
        ratios[delta] = rep.metrics["kl"] / rep.control["kl"]
    elapsed = time.perf_counter() - t0
    assert ratios[0.5] >= 3.0, f"planted-disparity KL ratio {ratios[0.5]:.2f}"
    assert 1.0 / 3.0 <= ratios[0.0] <= 3.0, f"null KL ratio {ratios[0.0]:.2f}"
    assert elapsed < 600.0
    _passed(9, f"KL ratio {ratios[0.5]:.1f}x at delta=0.5; {ratios[0.0]:.2f}x "
               f"at delta=0 (within [1/3, 3]) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. bit-exact determinism of command reruns at --threads 1


def test_criterion_10_determinism(tmp_path):
    from cfpolicy import cli
    from cfpolicy.numcore import load_checkpoint

    def run_pipeline(root):
        raw, proc = root / "raw", root / "proc"
        models = {name: root / f"{name}.npz" for name in ("bc", "dyn", "gail")}
        for argv in (
                ["synth", "--n", "60", "--t", "24", "--features", "10", "--delta", "0.5",
                 "--seed", "5", "--out", str(raw)],
                ["preprocess", "--cohort", str(raw), "--seed", "5", "--out", str(proc)],
                ["train-bc", "--cohort", str(proc), "--epochs", "3", "--max-windows", "500",
                 "--seed", "0", "--out", str(models["bc"])],
                ["train-dyn", "--cohort", str(proc), "--epochs", "2", "--max-windows",
                 "500", "--hidden", "16", "--seed", "0", "--out", str(models["dyn"])],
                ["train-gail", "--cohort", str(proc), "--dynamics", str(models["dyn"]),
                 "--iterations", "3", "--horizon", "4", "--episodes", "8", "--seed", "0",
                 "--out", str(models["gail"])]):
            assert cli.main(["--threads", "1"] + argv) == 0, argv[0]
        return raw, proc, models

    # both runs in this one process, so state one run leaves behind that
    # moves the next run's numbers fails here
    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    for name in ("cohort.csv", "schema.json", "ground_truth.json"):
        assert (a[0] / name).read_bytes() == (b[0] / name).read_bytes(), name
    for name in ("cohort.csv", "splits.json", "norm_stats.json", "binning.json"):
        assert (a[1] / name).read_bytes() == (b[1] / name).read_bytes(), name
    for kind, suffix in (("bc", ".metrics.json"), ("dyn", ".metrics.json"),
                         ("gail", ".log.jsonl")):
        (arrays_a, meta_a), (arrays_b, meta_b) = (load_checkpoint(run[2][kind])
                                                  for run in (a, b))
        assert arrays_a.keys() == arrays_b.keys() and meta_a == meta_b, kind
        for k in arrays_a:
            assert arrays_a[k].tobytes() == arrays_b[k].tobytes(), (kind, k)
        side_a, side_b = (run[2][kind].with_name(run[2][kind].name + suffix)
                          for run in (a, b))
        assert side_a.read_bytes() == side_b.read_bytes(), side_a.name
    _passed(10, "synth/preprocess/train-bc/train-dyn/train-gail reruns in one "
                "process bit-identical at --threads 1")
