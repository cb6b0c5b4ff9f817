"""Behavioral cloning of expert actions plus its evaluation metrics.

The observation is a causal sliding window of the current and two
previous timesteps, flattened; regression targets are z-normalized dose
pairs, classification targets the 25-way binned action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cohort import CohortDataset, SubgroupKey, filter_subgroup
from .dynamics import WINDOW, Windows
from .errors import IntegrityError, SchemaMismatchError, UndefinedMetricError, check
from .numcore import (Adam, Mlp, MlpSpec, fit, infer, load_checkpoint, nll_loss,
                      rmse_loss, save_checkpoint, softmax)
from .preprocess import N_ACTIONS, ActionBinning, NormStats

# Reference evaluation constants from the original credentialed clinical
# cohorts; reported alongside every evaluation for context. They are not
# attainable on synthetic data.
REFERENCE_METRICS = {
    "binned_action_classification_auroc": {"mean": 0.83, "std": 0.01},
    "continuous_action_regression_rmse_fluid": {"mean": 0.68, "std": 0.05},
    "continuous_action_regression_rmse_vasopressor": {"mean": 0.41, "std": 0.06},
}
MODES = ("classification", "regression")


@dataclass
class BcHyperParams:
    epochs: int = 300
    batch: int = 64
    lr: float = 3e-4
    hidden: tuple = (64, 64)
    seed: int = 0
    patience: int = 30
    max_windows: Optional[int] = None


@dataclass
class BcPolicy:
    mode: str  # 'regression' | 'classification'
    mlp: Mlp
    n_features: int
    source_subgroup: Optional[SubgroupKey]
    norm_stats: NormStats
    binning: ActionBinning
    history: list = field(default_factory=list)

    @property
    def input_width(self) -> int:
        return WINDOW * self.n_features


def build_dataset(cohort: CohortDataset, split: str, mode: str, max_windows=None, rng=None):
    """Flattened observation windows and their targets (dose pairs or
    action bins) for one split, in (trajectory, t) order, or
    ``max_windows`` of them drawn by ``rng``, each a ``Windows`` gathered
    from the cohort's block on demand."""
    X = Windows.of(cohort, split).sample(max_windows, rng)
    if mode == "regression":
        return X, X.targets("dose")
    if not cohort.binned[cohort.split == split].all():
        raise IntegrityError(f"split {split!r} holds trajectories without action bins")
    return X, X.targets("bin")


def train_bc(cohort: CohortDataset, subgroup: Optional[SubgroupKey], mode: str,
             hp: BcHyperParams = BcHyperParams()) -> BcPolicy:
    """Minimize RMSE (regression) or NLL (classification) on the subgroup's
    train split; returns the best-validation checkpoint."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    data = cohort if subgroup is None else filter_subgroup(cohort, subgroup)
    rng = np.random.default_rng(hp.seed)
    X, Y = build_dataset(data, "train", mode, hp.max_windows, rng)
    Xv, Yv = build_dataset(data, "val", mode)

    n_out = N_ACTIONS if mode == "classification" else Y.shape[1]
    spec = MlpSpec(widths=(X.shape[1],) + tuple(hp.hidden) + (n_out,), batch_norm=True)
    mlp = Mlp(spec, rng)
    opt = Adam(mlp.params().values(), lr=hp.lr)
    loss_fn = nll_loss if mode == "classification" else rmse_loss

    losses = fit(mlp, opt, loss_fn, X, Y, Xv, Yv, epochs=hp.epochs, batch=hp.batch,
                 rng=rng, patience=hp.patience)
    history = [{"epoch": epoch, "train_loss": train, "val_loss": val}
               for epoch, (train, val) in enumerate(losses)]
    return BcPolicy(mode=mode, mlp=mlp, n_features=cohort.schema.n_features,
                    source_subgroup=subgroup, norm_stats=cohort.norm_stats,
                    binning=cohort.binning, history=history)


def predict(policy: BcPolicy, window: np.ndarray) -> np.ndarray:
    """(B, 3*M) flattened windows (an array or a ``Windows``) -> (B, 25)
    probability vectors or (B, 2) normalized dose pairs, through ``infer``:
    each row's output depends on that row alone, in memory bounded by one
    block."""
    x = window if isinstance(window, Windows) else np.asarray(window, dtype=np.float64)
    if len(x.shape) != 2 or x.shape[1] != policy.input_width:
        raise SchemaMismatchError(
            f"expected (B, {policy.input_width}) windows, got {x.shape}")
    out = infer(policy.mlp, x)
    if policy.mode == "classification":
        softmax(out, out=out)
    return out


def binary_auroc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUROC with average ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both positives and negatives")
    # tied scores share the mean of the 1-based ranks they span
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = (last - 0.5 * (counts - 1))[group]
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def eval_report(policy: BcPolicy, cohort: CohortDataset, split: str = "test",
                allow_undefined: bool = False) -> dict:
    """Metrics of ``policy`` on one split, from one prediction of it: the
    RMSE per drug in normalized units (regression), or the one-vs-rest
    AUROC of each action class the split holds but does not fill and
    their macro mean (classification; the other classes are skipped). An
    undefined AUROC (no class qualifies) raises UndefinedMetricError, or
    with ``allow_undefined`` is reported as ``macro_auroc: None`` plus the
    reason in ``macro_auroc_undefined``."""
    report = {
        "mode": policy.mode,
        "split": split,
        "source_subgroup": None if policy.source_subgroup is None
        else str(policy.source_subgroup),
        "history": policy.history,
        "reference_metrics": REFERENCE_METRICS,
    }
    X, Y = build_dataset(cohort, split, policy.mode)
    out, Y = predict(policy, X), np.asarray(Y)
    if policy.mode == "regression":
        err = out - Y
        rmse = np.sqrt(np.mean(err * err, axis=0))
        report["rmse_fluid"], report["rmse_vaso"] = float(rmse[0]), float(rmse[1])
        return report
    counts = np.bincount(Y, minlength=N_ACTIONS)  # np.unique imports numpy.ma
    scored = [c for c in range(N_ACTIONS) if 0 < counts[c] < Y.size]
    if not scored:
        reason = "split has fewer than 2 distinct labels"
        if not allow_undefined:
            raise UndefinedMetricError(reason)
        report["macro_auroc"], report["macro_auroc_undefined"] = None, reason
        return report
    per_class = {c: binary_auroc(out[:, c], Y == c) for c in scored}
    report["macro_auroc"] = float(np.mean(list(per_class.values())))
    report["per_class_auroc"] = {str(k): v for k, v in per_class.items()}
    report["skipped_classes"] = [c for c in range(N_ACTIONS) if c not in per_class]
    return report


def _meta_spec(M) -> dict:
    """What ``save_policy`` writes for M features (``n_features`` is checked first)."""
    return {"kind": ("bc_policy",), "format_version": int, "mode": MODES, "n_features": int,
            "widths": [int, ...], "source_subgroup": (None, [str, 2]),
            "norm_stats": NormStats.spec(M), "binning": ActionBinning.SPEC,
            "history": [{"epoch": int, "train_loss": float, "val_loss": float}, ...]}


def save_policy(policy: BcPolicy, path) -> None:
    meta = {
        "kind": "bc_policy",
        "mode": policy.mode,
        "n_features": policy.n_features,
        "widths": list(policy.mlp.spec.widths),
        "source_subgroup": None if policy.source_subgroup is None
        else [policy.source_subgroup.attribute, policy.source_subgroup.value],
        "norm_stats": policy.norm_stats.to_json(),
        "binning": policy.binning.to_json(),
        "history": policy.history,
    }
    save_checkpoint(path, policy.mlp.state(), meta)


def load_policy(path) -> BcPolicy:
    arrays, meta = load_checkpoint(path)
    check(meta, _meta_spec(meta.get("n_features")), str(path))
    n_out = N_ACTIONS if meta["mode"] == "classification" else 2
    if meta["widths"][-1] != n_out:
        raise SchemaMismatchError(f"{path}: widths: a {meta['mode']} policy has {n_out} "
                                  f"outputs, not {meta['widths'][-1]}")
    mlp = Mlp(MlpSpec(widths=tuple(meta["widths"]), batch_norm=True),
              np.random.default_rng(0))
    mlp.load_state(arrays)
    sg = meta["source_subgroup"]
    return BcPolicy(
        mode=meta["mode"], mlp=mlp, n_features=meta["n_features"],
        source_subgroup=None if sg is None else SubgroupKey(sg[0], sg[1]),
        norm_stats=NormStats.from_json(meta["norm_stats"]),
        binning=ActionBinning.from_json(meta["binning"]), history=meta["history"])
