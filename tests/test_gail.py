"""Adversarial imitation machinery: discriminator, trust-region policy step."""

import numpy as np
import pytest

from cfpolicy.dynamics import STATE_CLIP, TransitionModel
from cfpolicy.errors import RolloutBlowupError, TrainingDivergenceError
from cfpolicy.gail import (CONVENTIONS, D_CLAMP, REWARD_CLAMP, Discriminator,
                           GailConfig, StochasticPolicy, categorical_kl,
                           disc_accuracy, disc_update, load_gail,
                           make_episode_sampler, mean_entropy, pairs,
                           policy_reward, policy_update, save_gail, train_gail)
from cfpolicy.numcore import Adam, softmax
from cfpolicy.preprocess import N_ACTIONS, action_index_to_doses, normalize_actions


def sequential_sampler(cohort, dyn_model, config):
    """Reference episode generator: one episode at a time, a batch-of-one
    policy forward and ``rng.choice`` per step, a batch-of-one model forward
    per transition. ``make_episode_sampler`` must match it draw for draw."""
    stats, binning = cohort.norm_stats, cohort.binning
    starts = [tr.states[0] for tr in cohort.split_of("train").trajectories]

    def sample_episode(policy, rng):
        s0 = starts[rng.integers(len(starts))]
        states, actions = [s0, s0, s0], [np.zeros(2), np.zeros(2)]
        obs, acts = [], []
        for _ in range(config.horizon):
            s_win = np.stack(states[-3:])
            flat = s_win.reshape(-1)
            a = int(rng.choice(policy.n_actions, p=policy.probs(flat)[0]))
            obs.append(flat)
            acts.append(a)
            a_t = normalize_actions(stats, action_index_to_doses(np.array([a]), binning)[0])
            window = np.concatenate([s_win, np.stack(actions[-2:] + [a_t])], axis=1)
            delta = dyn_model.predict_delta(window[None])[0]
            states.append(np.clip(states[-1] + delta, -STATE_CLIP, STATE_CLIP))
            actions.append(a_t)
        return np.stack(obs), np.array(acts, dtype=np.int64)

    return sample_episode


def reference_policy_update(policy, obs, actions, advantages, config, opt, beta):
    """Reference trust-region step: a fresh forward for every inner step.
    ``policy_update`` must match it byte for byte."""
    obs = np.atleast_2d(obs)
    actions = np.asarray(actions, dtype=np.int64)
    adv = np.asarray(advantages, dtype=np.float64)
    n = len(obs)
    lam = config.entropy_coef

    p_old = policy.probs(obs)
    param_snap = policy.snapshot()
    opt_snap = opt.state()
    onehot = np.zeros((n, policy.n_actions))
    onehot[np.arange(n), actions] = 1.0

    lr_scale = 1.0
    for attempt in range(9):
        for _ in range(config.inner_steps):
            logits = policy.mlp.forward(obs, train=False)
            p = softmax(logits)
            logp = np.log(np.clip(p, 1e-300, None))
            ent_rows = -np.sum(p * logp, axis=1)
            dz = (adv[:, None] * (p - onehot)
                  + lam * p * (logp + ent_rows[:, None])
                  + beta * (p - p_old)) / n
            policy.mlp.backward(dz)
            opt.step(lr=config.lr * lr_scale)
        p_new = policy.probs(obs)
        kl = categorical_kl(p_old, p_new)
        if kl <= config.kl_target or attempt == 8:
            break
        policy.load_state(param_snap)
        opt.load_state(opt_snap)
        lr_scale *= 0.5

    if kl > config.kl_target * 1.5:
        beta = min(beta * 2.0, 1e3)
    elif kl < config.kl_target / 1.5:
        beta = max(beta / 2.0, 1e-3)
    if kl > config.kl_target:  # the last attempt overshot too: no step is taken
        policy.load_state(param_snap)
        opt.load_state(opt_snap)
        return {"kl": 0.0, "entropy": mean_entropy(p_old), "lr_scale": 0.0}, beta
    stats = {"kl": kl, "entropy": mean_entropy(p_new), "lr_scale": lr_scale}
    return stats, beta


@pytest.mark.parametrize("kl_target", [0.05, 1e-4, 1e-12],
                         ids=["in-region", "backtracking", "rejected"])
def test_policy_update_matches_reference_bytes(kl_target):
    cfg = GailConfig(lr=0.01, kl_target=kl_target)
    data = np.random.default_rng(4)
    obs = data.normal(size=(48, 6))
    pols = [StochasticPolicy(6, np.random.default_rng(2), n_actions=9, hidden=(16, 16))
            for _ in range(2)]
    opts = [Adam(p.params().values(), lr=cfg.lr) for p in pols]
    betas = [1.0, 1.0]
    scales = []
    for _ in range(6):
        actions = data.integers(0, 9, len(obs))
        adv = data.normal(size=len(obs)) * 3
        stats, betas[0] = policy_update(pols[0], obs, actions, adv, cfg, opts[0], betas[0])
        ref, betas[1] = reference_policy_update(pols[1], obs, actions, adv, cfg,
                                                opts[1], betas[1])
        assert stats == ref and betas[0] == betas[1]
        scales.append(stats["lr_scale"])
        for a, b in zip(pols[0].state().values(), pols[1].state().values()):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(opts[0].state().values(), opts[1].state().values()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    if kl_target < 0.01:
        assert min(scales) < 1.0  # at least one update backtracked
    if kl_target < 1e-6:
        assert scales == [0.0] * 6  # every update rejected


def test_config_validation():
    with pytest.raises(ValueError):
        GailConfig(lr=0.0)
    with pytest.raises(ValueError):
        GailConfig(convention="sideways")
    with pytest.raises(ValueError):
        GailConfig(entropy_coef=-1.0)
    assert set(CONVENTIONS) == {"paper-eq", "gail-orig"}


@pytest.mark.parametrize("field,value", [
    ("kl_target", 0.0), ("kl_target", -0.05), ("disc_lr", 0.0), ("gamma", 0.0),
    ("gamma", -0.5), ("gamma", 1.0 + 1e-12), ("gamma", 2.0), ("inner_steps", 0),
    ("iterations", 0), ("horizon", 0), ("episodes", 0), ("disc_steps", 0),
    ("disc_steps", -1)])
def test_config_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        GailConfig(**{field: value})


def test_config_accepts_range_edges():
    cfg = GailConfig(kl_target=1e-300, gamma=1.0, inner_steps=1, iterations=1, horizon=1,
                     episodes=1, disc_steps=1)
    assert cfg.gamma == 1.0


@pytest.mark.parametrize("name", ["lr", "disc_lr", "kl_penalty", "entropy_coef",
                                  "kl_target", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        GailConfig(**{name: value})


def test_discriminator_output_clamped(rng):
    disc = Discriminator(4, rng, hidden=(8,))
    x = rng.normal(size=(10, 4)) * 100
    d = disc.score(x)
    assert np.all(d >= D_CLAMP) and np.all(d <= 1 - D_CLAMP)


def test_disc_update_confused_floor_on_identical_batches(rng):
    """With expert == generated the best achievable loss is 2 ln 2."""
    disc = Discriminator(3, rng, hidden=(8,))
    opt = Adam(disc.params().values(), lr=1e-3)
    batch = rng.normal(size=(32, 3))
    losses = [disc_update(disc, batch, batch, opt) for _ in range(50)]
    assert losses[-1] >= 2 * np.log(2) - 1e-9
    assert losses[-1] == pytest.approx(2 * np.log(2), abs=0.05)


def test_disc_update_separates_separable_data(rng):
    disc = Discriminator(2, rng, hidden=(16,))
    opt = Adam(disc.params().values(), lr=3e-3)
    expert = rng.normal(size=(64, 2)) + 3.0
    gen = rng.normal(size=(64, 2)) - 3.0
    for _ in range(150):
        disc_update(disc, expert, gen, opt, convention="paper-eq")
    assert disc_accuracy(disc.score(expert), disc.score(gen), "paper-eq") > 0.95
    # paper-eq labels expert as 1
    assert disc.score(expert).mean() > 0.5 > disc.score(gen).mean()


def test_disc_accuracy_conventions(rng):
    disc = Discriminator(2, rng, hidden=(8,))
    expert, gen = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
    de, dg = disc.score(expert), disc.score(gen)
    acc_a = disc_accuracy(de, dg, "paper-eq")
    acc_b = disc_accuracy(de, dg, "gail-orig")
    assert acc_a + acc_b == pytest.approx(1.0, abs=1e-12)


def test_policy_reward_is_clamped_neg_log_d(rng):
    disc = Discriminator(5 + 3, rng, hidden=(8,))
    obs = rng.normal(size=(6, 5))
    x = np.concatenate([obs, np.eye(3)[rng.integers(0, 3, 6)]], axis=1)
    r = policy_reward(disc, x)
    d = disc.score(x)
    assert np.allclose(r, np.clip(-np.log(d), -REWARD_CLAMP, REWARD_CLAMP))
    assert np.all(np.abs(r) <= REWARD_CLAMP)


def test_pairs_one_hot_matches_index_assignment(rng):
    obs = rng.normal(size=(9, 4))
    actions = rng.integers(0, N_ACTIONS, 9)
    onehot = np.zeros((9, N_ACTIONS))
    onehot[np.arange(9), actions] = 1.0
    assert pairs(obs, actions).tobytes() == np.concatenate([obs, onehot], axis=1).tobytes()


def test_policy_update_sign_oracle(rng):
    """Positive advantage on one action must raise its probability."""
    cfg = GailConfig()
    pol = StochasticPolicy(4, rng, n_actions=5, hidden=(16,))
    opt = Adam(pol.params().values(), lr=cfg.lr)
    obs = np.ones((1, 4))
    before = pol.probs(obs)[0, 2]
    policy_update(pol, obs, np.array([2]), np.array([1.0]), cfg, opt, beta=1.0)
    assert pol.probs(obs)[0, 2] > before


def test_policy_update_respects_kl_target(rng):
    cfg = GailConfig(lr=0.05, inner_steps=10)  # aggressive step to force backtracking
    pol = StochasticPolicy(6, rng, n_actions=8, hidden=(32,))
    opt = Adam(pol.params().values(), lr=cfg.lr)
    obs = rng.normal(size=(40, 6))
    actions = rng.integers(0, 8, 40)
    adv = rng.normal(size=40) * 5
    stats, _ = policy_update(pol, obs, actions, adv, cfg, opt, beta=1.0)
    assert stats["kl"] <= cfg.kl_target + 1e-12


def test_policy_update_zero_signal_is_fixed_point(rng):
    cfg = GailConfig(entropy_coef=0.0)
    pol = StochasticPolicy(3, rng, n_actions=4, hidden=(8,))
    opt = Adam(pol.params().values(), lr=cfg.lr)
    obs = rng.normal(size=(5, 3))
    before = pol.probs(obs).copy()
    stats, _ = policy_update(pol, obs, np.zeros(5, dtype=int), np.zeros(5),
                             cfg, opt, beta=1.0)
    assert np.array_equal(pol.probs(obs), before)
    assert stats["kl"] == 0.0


def test_categorical_kl_oracle():
    p = np.array([[0.5, 0.5]])
    q = np.array([[0.9, 0.1]])
    expected = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert categorical_kl(p, q) == pytest.approx(expected, abs=1e-12)
    assert categorical_kl(p, p) == 0.0


@pytest.fixture(scope="module")
def tiny_gail(proc_cohort):
    from cfpolicy.dynamics import DynHyperParams, train_dynamics
    dyn = train_dynamics(proc_cohort, DynHyperParams(epochs=2, seed=0,
                                                     max_windows=600))
    cfg = GailConfig(iterations=8, horizon=6, episodes=4, seed=1,
                     convention="gail-orig", policy_hidden=(32,),
                     disc_hidden=(16, 16))
    return train_gail(proc_cohort, dyn, cfg), dyn


def test_train_gail_log_contract(tiny_gail):
    result, _ = tiny_gail
    assert len(result.log) == 8
    for h in result.log:
        assert set(h) >= {"iteration", "disc_loss", "disc_accuracy",
                          "mean_reward", "mean_abs_gap", "entropy", "kl", "beta"}
        assert h["kl"] <= result.config.kl_target + 1e-12
    assert result.initial_policy_state  # snapshot for before/after comparisons


def test_episode_sampler_shapes(tiny_gail, proc_cohort):
    result, dyn = tiny_gail
    sampler = make_episode_sampler(proc_cohort, dyn, result.config)
    obs, acts = sampler(result.policy, np.random.default_rng(0), 5)
    assert obs.shape == (5, 6, 3 * proc_cohort.schema.n_features)
    assert acts.shape == (5, 6) and acts.dtype == np.int64
    assert np.all((0 <= acts) & (acts < 25))


@pytest.mark.parametrize("n", [1, 3, 16])
def test_batched_sampler_matches_sequential_reference(tiny_gail, proc_cohort, n):
    result, dyn = tiny_gail
    batched = make_episode_sampler(proc_cohort, dyn, result.config)
    reference = sequential_sampler(proc_cohort, dyn, result.config)
    for seed in (0, 1):
        rng_batch, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        obs, acts = batched(result.policy, rng_batch, n)
        episodes = [reference(result.policy, rng_ref) for _ in range(n)]
        assert np.array_equal(acts, np.stack([a for _, a in episodes]))
        assert np.allclose(obs, np.stack([o for o, _ in episodes]), rtol=0, atol=1e-12)
        # both consumed the same random stream
        assert rng_batch.random() == rng_ref.random()


def test_policy_sample_is_inverse_cdf_of_rng_choice(rng):
    pol = StochasticPolicy(4, rng, n_actions=25, hidden=(8,))
    obs = rng.normal(size=(2000, 4)) * 3
    u = np.random.default_rng(1).random(2000)
    draw = np.random.default_rng(1)
    expected = [draw.choice(25, p=p) for p in pol.probs(obs)]
    actions = pol.sample(obs, u)
    assert actions.dtype == np.int64
    assert np.array_equal(actions, expected)


def test_sampler_nan_delta_raises_blowup_at_step_0(tiny_gail, proc_cohort, monkeypatch):
    result, dyn = tiny_gail
    sampler = make_episode_sampler(proc_cohort, dyn, result.config)
    predict = TransitionModel.predict_delta

    def last_episode_nan(self, windows):
        delta = predict(self, windows)
        delta[-1, 0] = np.nan
        return delta

    monkeypatch.setattr(TransitionModel, "predict_delta", last_episode_nan)
    with pytest.raises(RolloutBlowupError) as exc:
        sampler(result.policy, np.random.default_rng(0), 4)
    assert exc.value.step == 0


def test_nan_policy_logits_raise_divergence(tiny_gail, proc_cohort):
    result, dyn = tiny_gail
    pol = StochasticPolicy(result.policy.obs_dim, np.random.default_rng(0), hidden=(8,))
    list(pol.params().values())[-1].value[:] = np.nan
    sampler = make_episode_sampler(proc_cohort, dyn, result.config)
    with pytest.raises(TrainingDivergenceError):
        sampler(pol, np.random.default_rng(0), 3)


def test_rollouts_start_from_train_split_states(tiny_gail, proc_cohort):
    result, dyn = tiny_gail
    sampler = make_episode_sampler(proc_cohort, dyn, result.config)
    obs, _ = sampler(result.policy, np.random.default_rng(0), 16)
    M = proc_cohort.schema.n_features
    train_starts = {tr.states[0].tobytes() for tr in proc_cohort.split_of("train").trajectories}
    # the first observation window is the start state repeated three times
    assert all(o[:M].tobytes() in train_starts for o in obs[:, 0])


def test_empty_train_split_is_typed_error(proc_cohort):
    from dataclasses import replace

    from cfpolicy.cohort import SubgroupKey
    from cfpolicy.dynamics import DynHyperParams, train_dynamics
    from cfpolicy.errors import EmptySubgroupError
    dyn = train_dynamics(proc_cohort, DynHyperParams(epochs=1, seed=0, max_windows=100))
    no_train = replace(proc_cohort, split=np.where(proc_cohort.split == "train", "test",
                                                   proc_cohort.split))
    cfg = GailConfig(iterations=1, horizon=2, episodes=1, policy_hidden=(4,),
                     disc_hidden=(4,))
    with pytest.raises(EmptySubgroupError, match="the cohort has no train-split"):
        train_gail(no_train, dyn, cfg)
    with pytest.raises(EmptySubgroupError, match="subgroup gender=F has no train-split"):
        train_gail(no_train, dyn, cfg, SubgroupKey("gender", "F"))


def test_gail_save_load_round_trip(tmp_path, tiny_gail, rng):
    result, _ = tiny_gail
    path = tmp_path / "gail.npz"
    save_gail(result, path)
    back = load_gail(path)
    x = rng.normal(size=(5, result.policy.obs_dim))
    assert np.array_equal(back.policy.probs(x), result.policy.probs(x))
    pairs = rng.normal(size=(5, result.policy.obs_dim + 25))
    assert np.array_equal(back.disc.score(pairs), result.disc.score(pairs))
    assert back.config.convention == "gail-orig"
    assert back.log == result.log


def test_frozen_policy_run_does_not_move_policy(proc_cohort):
    from cfpolicy.dynamics import DynHyperParams, train_dynamics
    dyn = train_dynamics(proc_cohort, DynHyperParams(epochs=1, seed=0,
                                                     max_windows=300))
    cfg = GailConfig(iterations=3, horizon=5, episodes=2, seed=2,
                     freeze_policy=True, policy_hidden=(16,), disc_hidden=(8,))
    result = train_gail(proc_cohort, dyn, cfg)
    x = np.random.default_rng(0).normal(size=(4, result.policy.obs_dim))
    frozen = StochasticPolicy(result.policy.obs_dim, np.random.default_rng(9),
                              n_actions=25, hidden=(16,))
    frozen.load_state(result.initial_policy_state)
    assert np.array_equal(result.policy.probs(x), frozen.probs(x))
