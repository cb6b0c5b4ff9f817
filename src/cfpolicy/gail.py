"""Adversarial imitation: discriminator-as-reward plus a KL-penalized
policy-gradient update standing in for an exact trust-region step.

Two discriminator labeling conventions are supported and recorded, never
silently corrected:

* ``paper-eq``  - expert pairs labeled 1, generated pairs pushed to D -> 0.
* ``gail-orig`` - the conventional labeling (D = probability the pair is
  generated); with the fixed reward -log D this is the convention under
  which the policy is driven toward expert behavior.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .bc import build_dataset
from .cohort import CohortDataset, SubgroupKey, filter_subgroup
from .dynamics import TransitionModel, rollout, state_window
from .errors import EmptySubgroupError, TrainingDivergenceError, check
from .kernels import discounted_returns
from .numcore import Adam, Mlp, MlpSpec, load_checkpoint, save_checkpoint, sigmoid, softmax
from .preprocess import N_ACTIONS, action_index_to_doses, normalize_actions

D_CLAMP = 1e-6
REWARD_CLAMP = -np.log(D_CLAMP)  # 13.815...

CONVENTIONS = ("paper-eq", "gail-orig")


@dataclass
class GailConfig:
    lr: float = 3e-4
    disc_lr: float = 3e-4
    batch: int = 64
    entropy_coef: float = 0.03
    kl_penalty: float = 1.0          # initial beta, adapted multiplicatively
    kl_target: float = 0.05
    gamma: float = 0.99
    iterations: int = 200
    horizon: int = 16
    episodes: int = 16
    inner_steps: int = 5
    disc_steps: int = 1
    seed: int = 0
    convention: str = "paper-eq"
    freeze_policy: bool = False  # train the discriminator against a fixed policy
    policy_hidden: tuple = (200, 200)
    disc_hidden: tuple = (64, 64, 64)

    def __post_init__(self):
        rates = (self.lr, self.disc_lr, self.kl_penalty, self.entropy_coef,
                 self.kl_target, self.gamma)
        if not np.all(np.isfinite(rates)):
            raise ValueError("lr, disc_lr, kl_penalty, entropy_coef, kl_target and "
                             "gamma must be finite")
        if min(self.lr, self.disc_lr, self.batch, self.kl_penalty, self.kl_target) <= 0:
            raise ValueError("lr, disc_lr, batch, kl_penalty and kl_target must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if min(self.iterations, self.horizon, self.episodes, self.inner_steps,
               self.disc_steps) < 1:
            raise ValueError("iterations, horizon, episodes, inner_steps and disc_steps "
                             "must be >= 1")
        if self.entropy_coef < 0:
            raise ValueError("entropy coefficient must be nonnegative")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


class Discriminator:
    """Feed-forward scorer D(s, a) in (0, 1), output clamped away from 0/1."""

    def __init__(self, n_in: int, rng: np.random.Generator, hidden: tuple = (64, 64, 64)):
        spec = MlpSpec(widths=(n_in,) + tuple(hidden) + (1,), batch_norm=False)
        self.mlp = Mlp(spec, rng)

    def score(self, x: np.ndarray) -> np.ndarray:
        logits = self.mlp.forward(x, train=False)[:, 0]
        return np.clip(sigmoid(logits), D_CLAMP, 1.0 - D_CLAMP)

    def params(self):
        return self.mlp.params()


def disc_update(disc: Discriminator, expert: np.ndarray, generated: np.ndarray,
                opt: Adam, convention: str = "paper-eq") -> float:
    """One cross-entropy step; returns the post-step loss.

    Loss is the sum of the per-side mean binary cross-entropies, so a
    maximally confused discriminator sits at 2 ln 2.
    """
    if len(expert) == 0 or len(generated) == 0:
        raise ValueError("expert and generated batches must be non-empty")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    expert_label = 1.0 if convention == "paper-eq" else 0.0
    x = np.concatenate([expert, generated], axis=0)
    y = np.concatenate([np.full(len(expert), expert_label),
                        np.full(len(generated), 1.0 - expert_label)])
    logit = disc.mlp.forward(x, train=True)[:, 0]
    # stable BCE on logits: softplus(z) - y z
    p = sigmoid(logit)
    weights = np.concatenate([np.full(len(expert), 1.0 / len(expert)),
                              np.full(len(generated), 1.0 / len(generated))])
    dlogit = (p - y) * weights
    disc.mlp.backward(dlogit[:, None])
    opt.step()
    logit = disc.mlp.forward(x, train=False)[:, 0]
    bce = np.logaddexp(0.0, logit) - y * logit
    return float(np.sum(bce * weights))


def disc_accuracy(de: np.ndarray, dg: np.ndarray, convention: str = "paper-eq") -> float:
    """Share of pairs the discriminator puts on the right side of 0.5, from
    its scores of expert (``de``) and generated (``dg``) pairs."""
    if convention == "paper-eq":
        correct = np.sum(de > 0.5) + np.sum(dg <= 0.5)
    else:
        correct = np.sum(de <= 0.5) + np.sum(dg > 0.5)
    return float(correct / (len(de) + len(dg)))


def pairs(obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Discriminator inputs: (n, D) observations beside the one-hot
    encodings of their (n,) action indices."""
    return np.concatenate([obs, np.eye(N_ACTIONS)[actions]], axis=1)


def policy_reward(disc: Discriminator, pairs: np.ndarray) -> np.ndarray:
    """Reward = -log D(s, a) of each state-action pair row, clamped; the
    discriminator is the learned reward."""
    return np.clip(-np.log(disc.score(pairs)), -REWARD_CLAMP, REWARD_CLAMP)


class StochasticPolicy:
    """Categorical policy over the 25 discrete actions."""

    def __init__(self, obs_dim: int, rng: np.random.Generator,
                 n_actions: int = N_ACTIONS, hidden: tuple = (200, 200)):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        spec = MlpSpec(widths=(obs_dim,) + tuple(hidden) + (n_actions,), batch_norm=False)
        self.mlp = Mlp(spec, rng)

    def probs(self, obs: np.ndarray) -> np.ndarray:
        return softmax(self.mlp.forward(np.atleast_2d(obs), train=False))

    def sample(self, obs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF draw of one action per row: (E, D) observations and
        (E,) uniforms in [0, 1) -> (E,) int64 actions. Row e takes the action
        that ``rng.choice(n_actions, p=p_e)`` takes when its uniform is u[e]."""
        p = self.probs(obs)
        if not np.all(np.isfinite(p)):
            raise TrainingDivergenceError("non-finite policy probabilities")
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        return np.count_nonzero(cdf <= np.asarray(u)[:, None], axis=1).astype(np.int64)

    def params(self) -> dict:
        return self.mlp.params()

    def state(self) -> dict:
        return self.mlp.state()

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.state().items()}

    def load_state(self, arrays: dict) -> None:
        self.mlp.load_state(arrays)


def mean_entropy(p: np.ndarray) -> float:
    """Mean entropy in nats of the rows of a probability matrix."""
    return float(np.mean(-np.sum(p * np.log(np.clip(p, 1e-300, None)), axis=1)))


def categorical_kl(p_old: np.ndarray, p_new: np.ndarray) -> float:
    p_old = np.clip(p_old, 1e-12, None)
    p_new = np.clip(p_new, 1e-12, None)
    return float(np.mean(np.sum(p_old * (np.log(p_old) - np.log(p_new)), axis=1)))


def policy_update(policy: StochasticPolicy, obs: np.ndarray, actions: np.ndarray,
                  advantages: np.ndarray, config: GailConfig, opt: Adam,
                  beta: float) -> tuple:
    """KL-penalized policy-gradient step with backtracking so the batch
    KL(pi_old || pi_new) never exceeds the trust-region target.

    ``opt`` is the optimizer built over the policy's parameters, so its flat
    ``value`` buffer is the whole policy. Each attempt takes
    ``inner_steps`` Adam steps; an attempt over the target is undone and the
    next one runs at half the step size. When all 9 attempts overshoot, the
    policy and optimizer are left as they were, with ``kl`` and ``lr_scale``
    reported as 0.0. Beta adapts to the last attempt's KL either way.

    Returns (stats dict, adapted beta).
    """
    if not np.all(np.isfinite(advantages)):
        raise TrainingDivergenceError("non-finite advantage")
    obs = np.atleast_2d(obs)
    actions = np.asarray(actions, dtype=np.int64)
    adv = np.asarray(advantages, dtype=np.float64)
    n = len(obs)
    lam = config.entropy_coef

    logits = policy.mlp.forward(obs, train=False)
    p_old = softmax(logits)
    param_snap = opt.value.copy()
    opt_snap = opt.state()
    onehot = np.eye(policy.n_actions)[actions]

    lr_scale = 1.0
    for attempt in range(9):
        for step in range(config.inner_steps):
            # the first step of the first attempt runs on the parameters of
            # p_old, whose forward the layer caches still hold
            if attempt or step:
                logits = policy.mlp.forward(obs, train=False)
            p = softmax(logits)
            logp = np.log(np.clip(p, 1e-300, None))
            ent_rows = -np.sum(p * logp, axis=1)
            # surrogate: -E[log pi(a|s) A] - lam H + beta KL(p_old || p)
            dz = (adv[:, None] * (p - onehot)
                  + lam * p * (logp + ent_rows[:, None])
                  + beta * (p - p_old)) / n
            policy.mlp.backward(dz)
            opt.step(lr=config.lr * lr_scale)
        p_new = policy.probs(obs)
        kl = categorical_kl(p_old, p_new)
        if kl <= config.kl_target:
            break
        opt.value[...] = param_snap
        opt.load_state(opt_snap)
        lr_scale *= 0.5
    else:  # every attempt overshot: the policy keeps its parameters
        lr_scale, p_new = 0.0, p_old

    if kl > config.kl_target * 1.5:
        beta = min(beta * 2.0, 1e3)
    elif kl < config.kl_target / 1.5:
        beta = max(beta / 2.0, 1e-3)
    # a rejected step moved the policy by nothing
    stats = {"kl": kl if lr_scale else 0.0, "entropy": mean_entropy(p_new),
             "lr_scale": lr_scale}
    return stats, beta


@dataclass
class GailResult:
    policy: StochasticPolicy
    disc: Discriminator
    config: GailConfig
    log: list = field(default_factory=list)  # one dict per iteration
    initial_policy_state: dict = field(default_factory=dict)


def train_gail(cohort: CohortDataset, dyn_model: TransitionModel,
               config: GailConfig = GailConfig(),
               subgroup: Optional[SubgroupKey] = None) -> GailResult:
    """Fit policy + discriminator against one cohort subgroup's expert
    state-action pairs, alternating on-policy rollouts against the
    environment model, discriminator steps and policy steps."""
    data = cohort if subgroup is None else filter_subgroup(cohort, subgroup)
    if len(data.split_of("train")) == 0:
        where = "the cohort" if subgroup is None else f"subgroup {subgroup}"
        raise EmptySubgroupError(f"{where} has no train-split trajectories")
    expert_obs, expert_actions = build_dataset(data, "train", "classification")
    sample_episodes = make_episode_sampler(data, dyn_model, config)
    rng = np.random.default_rng(config.seed)
    obs_dim = expert_obs.shape[1]
    policy = StochasticPolicy(obs_dim, rng, hidden=config.policy_hidden)
    disc = Discriminator(obs_dim + N_ACTIONS, rng, hidden=config.disc_hidden)
    policy_opt = Adam(policy.params().values(), lr=config.lr)
    disc_opt = Adam(disc.params().values(), lr=config.disc_lr)
    initial_state = policy.snapshot()
    beta = config.kl_penalty
    log = []

    def expert_pairs():
        eidx = rng.choice(len(expert_obs), min(config.batch, len(expert_obs)),
                          replace=False)
        return pairs(expert_obs[eidx], expert_actions[eidx])

    for it in range(config.iterations):
        ep_obs, ep_act = sample_episodes(policy, rng, config.episodes)
        gen_obs = ep_obs.reshape(-1, obs_dim)
        gen_act = ep_act.reshape(-1)
        gen_pairs = pairs(gen_obs, gen_act)

        rewards = policy_reward(disc, gen_pairs)
        returns = discounted_returns(rewards.reshape(ep_act.shape), config.gamma).reshape(-1)
        # ridge-regularized linear value baseline, refit each iteration;
        # the ridge term keeps it from interpolating small batches, which
        # would zero every advantage
        feats = np.concatenate([gen_obs, np.ones((len(gen_obs), 1))], axis=1)
        gram = feats.T @ feats + 1.0 * np.eye(feats.shape[1])
        w = np.linalg.solve(gram, feats.T @ returns)
        advantages = returns - feats @ w
        spread = advantages.std()
        advantages = (advantages - advantages.mean()) / spread if spread > 1e-8 \
            else np.zeros_like(advantages)

        disc_loss = 0.0
        for _ in range(config.disc_steps):
            expert = expert_pairs()  # drawn before the generated batch
            gidx = rng.choice(len(gen_pairs), min(config.batch, len(gen_pairs)),
                              replace=False)
            disc_loss = disc_update(disc, expert, gen_pairs[gidx], disc_opt,
                                    config.convention)

        if config.freeze_policy:
            stats = {"kl": 0.0, "entropy": mean_entropy(policy.probs(gen_obs))}
        else:
            stats, beta = policy_update(policy, gen_obs, gen_act, advantages,
                                        config, policy_opt, beta)
        expert = expert_pairs()
        gen_scores = disc.score(gen_pairs)
        log.append({
            "iteration": it,
            "disc_loss": disc_loss,
            "disc_accuracy": disc_accuracy(disc.score(expert), gen_scores,
                                           config.convention),
            "mean_reward": float(rewards.mean()),
            "mean_abs_gap": float(np.abs(gen_scores - 0.5).mean()),
            "entropy": stats["entropy"],
            "kl": stats["kl"],
            "beta": beta,
        })
    return GailResult(policy=policy, disc=disc, config=config, log=log,
                      initial_policy_state=initial_state)


def make_episode_sampler(cohort: CohortDataset, dyn_model: TransitionModel,
                         config: GailConfig):
    """Episode generator: expert train-split initial states, discrete policy
    actions mapped to representative doses, dynamics-model state steps.

    Start states come from the train split because the rollouts are part
    of training: drawing them from the test split would let training see
    the states that evaluation holds out.

    All n episodes of one call step together. The random stream is drawn
    up front, episode by episode: the start index, then one uniform per
    step, which is the order of sampling the episodes one at a time with
    ``rng.choice``.
    """
    stats = cohort.norm_stats
    binning = cohort.binning
    first = cohort.split_of("train").first
    starts = state_window(cohort.block, first, first)[..., :cohort.schema.n_features]
    horizon = config.horizon

    def sample_episodes(policy: StochasticPolicy, rng: np.random.Generator, n: int):
        picks = np.empty(n, dtype=np.int64)
        uniforms = np.empty((n, horizon))
        for e in range(n):
            picks[e] = rng.integers(len(starts))
            uniforms[e] = rng.random(horizon)
        obs_steps, act_steps = [], []

        def act(s_win: np.ndarray) -> np.ndarray:
            flat = s_win.reshape(n, -1)
            a = policy.sample(flat, uniforms[:, len(act_steps)])
            obs_steps.append(flat)
            act_steps.append(a)
            return normalize_actions(stats, action_index_to_doses(a, binning))

        rollout(dyn_model, act, starts[picks], horizon)
        return np.stack(obs_steps, axis=1), np.stack(act_steps, axis=1)

    return sample_episodes


# the metadata ``save_gail`` writes; each config field's spec follows its
# annotation, and the one string field is the convention
_META_SPEC = {
    "kind": ("gail_bundle",), "format_version": int,
    "config": {f.name: {"float": float, "int": int, "bool": bool, "str": CONVENTIONS,
                        "tuple": [int, ...]}[f.type] for f in fields(GailConfig)},
    "obs_dim": int, "n_actions": int,
    "log": [{"iteration": int, "disc_loss": float, "disc_accuracy": float,
             "mean_reward": float, "mean_abs_gap": float, "entropy": float, "kl": float,
             "beta": float}, ...],
}


def save_gail(result: GailResult, path) -> None:
    arrays = {f"policy.{k}": v for k, v in result.policy.state().items()}
    arrays.update({f"disc.{k}": v for k, v in result.disc.mlp.state().items()})
    meta = {
        "kind": "gail_bundle",
        "config": asdict(result.config),
        "obs_dim": result.policy.obs_dim,
        "n_actions": result.policy.n_actions,
        "log": result.log,
    }
    save_checkpoint(path, arrays, meta)


def load_gail(path) -> GailResult:
    arrays, meta = load_checkpoint(path)
    cfg_json = check(meta, _META_SPEC, str(path))["config"]
    config = GailConfig(**{**cfg_json, "policy_hidden": tuple(cfg_json["policy_hidden"]),
                           "disc_hidden": tuple(cfg_json["disc_hidden"])})
    rng = np.random.default_rng(0)
    policy = StochasticPolicy(meta["obs_dim"], rng, n_actions=meta["n_actions"],
                              hidden=config.policy_hidden)
    policy.load_state({k[7:]: v for k, v in arrays.items() if k.startswith("policy.")})
    disc = Discriminator(meta["obs_dim"] + meta["n_actions"], rng,
                         hidden=config.disc_hidden)
    disc.mlp.load_state({k[5:]: v for k, v in arrays.items() if k.startswith("disc.")})
    return GailResult(policy=policy, disc=disc, config=config, log=meta["log"])
