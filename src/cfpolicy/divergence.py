"""Counterfactual policy evaluation: distribution discrepancy metrics and
the per-subgroup deviation report.

The headline KL direction is D_KL(realized || counterfactual); the reverse
direction is also recorded for diagnostics. The counterfactual discrete
distribution of a classification policy is its mean predicted probability
vector; that of a regression policy is the histogram of its predicted doses,
clipped at 0 and binned like the recorded doses.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bc import BcPolicy, predict
from .cohort import CohortDataset, SubgroupKey, filter_subgroup
from .dynamics import Windows
from .errors import read_json
from .kernels import median_pairwise_distance, rbf_mmd2_biased
from .preprocess import (N_ACTIONS, NormStats, action_index_to_doses, bin_actions_batch,
                         denormalize_actions, normalize_actions)

DEFAULT_EPS = 1e-6


# ---------------------------------------------------------------------------
# metric primitives


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = DEFAULT_EPS) -> float:
    """KL(p || q) in nats after additive smoothing on both arguments."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    k = p.size
    if eps > 0:
        p = (p + eps) / (1.0 + k * eps)
        q = (q + eps) / (1.0 + k * eps)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence; bounded by ln 2, no smoothing needed."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m, eps=0.0) + 0.5 * kl_divergence(q, m, eps=0.0)


def mmd_rbf(x, y, bandwidth: Optional[float] = None, *,
            info: Optional[dict] = None) -> float:
    """RBF-kernel MMD (biased V-statistic, square-rooted).

    Bandwidth defaults to the median pairwise distance of the pooled
    samples (``kernels.median_pairwise_distance``: every pair up to 512
    pooled rows, a fixed-seed sample of 2^17 pairs beyond), falling back to
    1.0 (with a warning) when that median is zero. Memory use does not grow
    with the sample sizes. A dict passed as ``info`` receives the bandwidth
    used and whether the fallback was taken.

    The points reach the median and the kernel sum as given: the median
    chains ``np.hypot`` over the coordinates, and the kernel divides each
    difference by the bandwidth before squaring it, so no distance
    underflows. Points that are not finite, a pooled coordinate span
    beyond the float range, or an explicit bandwidth that is not finite
    and > 0 raise ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if len(x) == 0 or len(y) == 0:
        raise ValueError("mmd_rbf needs at least 1 sample per side")
    pooled = np.concatenate([x, y], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = np.ptp(pooled, axis=0)
    if not np.isfinite(span).all():
        raise ValueError("mmd_rbf needs finite points whose pooled coordinate spans "
                         "are within the float range")
    fallback = False
    if bandwidth is None:
        bandwidth = median_pairwise_distance(pooled)
        if bandwidth == 0.0:
            warnings.warn("zero median pairwise distance; falling back to bandwidth 1.0",
                          stacklevel=2)
            bandwidth, fallback = 1.0, True
    elif not 0 < bandwidth < np.inf:  # also true for nan
        raise ValueError(f"mmd_rbf needs a finite bandwidth > 0, got {bandwidth}")
    if info is not None:
        info.update(bandwidth=float(bandwidth), fallback=fallback)
    mmd2 = rbf_mmd2_biased(x, y, float(bandwidth))
    return float(np.sqrt(max(mmd2, 0.0)))


def wasserstein1(x, y) -> float:
    """Empirical 1-D W1: mean absolute difference of order statistics,
    quantile-aligning the larger sample when sizes differ."""
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    y = np.sort(np.asarray(y, dtype=np.float64).ravel())
    if x.size == 0 or y.size == 0:
        raise ValueError("wasserstein1 needs non-empty samples")
    if x.size != y.size:
        n = min(x.size, y.size)
        grid = (np.arange(n) + 0.5) / n
        if x.size > n:
            x = np.quantile(x, grid, method="linear")
        else:
            y = np.quantile(y, grid, method="linear")
    return float(np.mean(np.abs(x - y)))


# ---------------------------------------------------------------------------
# empirical action distributions


@dataclass
class ActionDistribution:
    """Discrete 25-bin distribution plus pooled continuous dose samples."""

    probs: np.ndarray             # 25-vector (mean predicted / histogram)
    n: int
    fluid: Optional[np.ndarray] = None
    vaso: Optional[np.ndarray] = None


def _histogram(labels: np.ndarray) -> np.ndarray:
    h = np.bincount(labels, minlength=N_ACTIONS).astype(np.float64)
    return h / h.sum()


def empirical_action_dist(policy: Optional[BcPolicy], cohort: CohortDataset,
                          split: str = "test", per_timestep: bool = False):
    """The pooled action distribution, or with ``per_timestep`` the pair
    (pooled, per-timestep list).

    With ``policy=None`` the distributions are of the recorded expert
    actions; otherwise of the policy's predictions on the same states, from
    one ``predict`` call over the split. Doses are reported in raw units.
    Trajectories may differ in length: the pooled distribution takes every
    timestep of each, and entry t of the per-timestep list (t below the
    longest length) takes the trajectories that reach t.
    """
    X = Windows.of(cohort, split)
    stats = cohort.norm_stats
    t_rows = X.t - X.first
    if policy is None:
        labels = np.asarray(X.targets("bin"))
        doses = denormalize_actions(stats, np.asarray(X.targets("dose")))
    else:
        out = predict(policy, X)
        if policy.mode == "classification":
            doses = action_index_to_doses(np.argmax(out, axis=1), cohort.binning)
        else:
            doses = denormalize_actions(stats, out)
            labels = bin_actions_batch(np.maximum(doses, 0.0), cohort.binning)

    def dist(rows) -> ActionDistribution:
        if policy is not None and policy.mode == "classification":
            probs = out[rows].mean(axis=0)
        else:
            probs = _histogram(labels[rows])
        return ActionDistribution(probs=probs, n=rows.size,
                                  fluid=doses[rows, 0], vaso=doses[rows, 1])

    pooled = dist(np.arange(t_rows.size))
    if not per_timestep:
        return pooled
    by_t = np.argsort(t_rows, kind="stable")
    return pooled, [dist(rows) for rows in
                    np.split(by_t, np.cumsum(np.bincount(t_rows))[:-1])]


# ---------------------------------------------------------------------------
# report


METRICS = ("kl", "kl_reverse", "js", "mmd", "w1_fluid", "w1_vaso")
_METRIC_VALUES = {name: float for name in METRICS}
_SIZES = {"target": int, "counterfactual": int}
# what ``DiscrepancyReport.save`` writes for the reports ``counterfactual_report`` makes
_REPORT_SPEC = {
    "source_subgroup": str, "target_subgroup": str,
    "metrics": _METRIC_VALUES, "control": ({}, _METRIC_VALUES),
    "per_timestep": (None, {name: [float, ...] for name in METRICS}),
    "mean_actions": {str: [float, ...]}, "eps": float,
    "sample_sizes": (_SIZES, {**_SIZES, "per_timestep": [int, ...]}), "seed": int,
    "conventions": {"kl_direction": str, "counterfactual_probs": str,
                    "quantile_convention": str,
                    "mmd_bandwidth": {"method": str, "aggregate": float,
                                      "control": (None, float),
                                      "zero_distance_fallbacks": int}},
}


@dataclass
class DiscrepancyReport:
    source_subgroup: str
    target_subgroup: str
    metrics: dict                 # aggregate metric name -> value
    control: dict                 # same metrics, source-vs-own-policy
    per_timestep: Optional[dict] = None  # metric name -> list of T values
    mean_actions: dict = field(default_factory=dict)  # series per subgroup/drug
    eps: float = DEFAULT_EPS
    sample_sizes: dict = field(default_factory=dict)
    seed: int = 0
    conventions: dict = field(default_factory=lambda: {
        "kl_direction": "realized||counterfactual",
        "counterfactual_probs": "mean of predicted probability vectors",
        "quantile_convention": "linear",
    })

    def to_json(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DiscrepancyReport":
        """The report saved at ``path``; a file that is not one, down to a
        value of the wrong type, raises CfPolicyError naming it and the key."""
        return cls(**read_json(path, _REPORT_SPEC))

    def to_csv(self, path) -> None:
        """Flat CSV of every metric cell (aggregate, control, per-timestep)."""
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scope", "timestep", "metric", "value"])
            for name, v in self.metrics.items():
                writer.writerow(["aggregate", "", name, repr(v)])
            for name, v in self.control.items():
                writer.writerow(["control", "", name, repr(v)])
            if self.per_timestep:
                for name, series in self.per_timestep.items():
                    for t, v in enumerate(series):
                        writer.writerow(["per_timestep", t, name, repr(v)])


def _pair_metrics(realized: ActionDistribution, counterfactual: ActionDistribution,
                  eps: float, stats: NormStats):
    """Every discrepancy metric of one pair of distributions, plus the MMD
    bandwidth record. The MMD takes the (fluid, vaso) doses in the units BC
    regression trains in, ``normalize_actions``, so that both drugs move
    it; W1 stays in raw units."""
    out = {
        "kl": kl_divergence(realized.probs, counterfactual.probs, eps),
        "kl_reverse": kl_divergence(counterfactual.probs, realized.probs, eps),
        "js": js_divergence(realized.probs, counterfactual.probs),
        "w1_fluid": wasserstein1(realized.fluid, counterfactual.fluid),
        "w1_vaso": wasserstein1(realized.vaso, counterfactual.vaso),
    }
    xa = normalize_actions(stats, np.stack([realized.fluid, realized.vaso], axis=1))
    ya = normalize_actions(stats, np.stack([counterfactual.fluid, counterfactual.vaso], axis=1))
    mmd_info = {}
    out["mmd"] = mmd_rbf(xa, ya, info=mmd_info)
    return out, mmd_info


def counterfactual_report(policy: BcPolicy, cohort: CohortDataset,
                          target: SubgroupKey, eps: float = DEFAULT_EPS,
                          seed: int = 0, per_timestep: bool = False) -> DiscrepancyReport:
    """All discrepancy metrics between the realized actions of the target
    subgroup and the source-trained policy's counterfactual predictions,
    with a same-subgroup control baseline."""
    target_cohort = filter_subgroup(cohort, target)
    realized = empirical_action_dist(None, target_cohort, "test", per_timestep)
    counterfactual = empirical_action_dist(policy, target_cohort, "test", per_timestep)
    if per_timestep:
        (realized, real_t), (counterfactual, cf_t) = realized, counterfactual
    stats = cohort.norm_stats
    metrics, mmd_info = _pair_metrics(realized, counterfactual, eps, stats)
    infos = [mmd_info]

    control, ctrl_info = {}, {}
    if policy.source_subgroup is not None:
        source_cohort = filter_subgroup(cohort, policy.source_subgroup)
        ctrl_real = empirical_action_dist(None, source_cohort, "test")
        ctrl_cf = empirical_action_dist(policy, source_cohort, "test")
        control, ctrl_info = _pair_metrics(ctrl_real, ctrl_cf, eps, stats)
        infos.append(ctrl_info)

    per_t = None
    mean_actions = {}
    sample_sizes = {"target": realized.n, "counterfactual": counterfactual.n}
    if per_timestep:
        pairs = [_pair_metrics(r, c, eps, stats) for r, c in zip(real_t, cf_t)]
        per_t = {name: [m[name] for m, _ in pairs] for name in METRICS}
        infos.extend(info for _, info in pairs)
        sample_sizes["per_timestep"] = [d.n for d in real_t]
        mean_actions[f"{target}:realized_fluid"] = [float(d.fluid.mean()) for d in real_t]
        mean_actions[f"{target}:realized_vaso"] = [float(d.vaso.mean()) for d in real_t]
        mean_actions[f"{target}:counterfactual_fluid"] = [float(d.fluid.mean()) for d in cf_t]
        mean_actions[f"{target}:counterfactual_vaso"] = [float(d.vaso.mean()) for d in cf_t]

    report = DiscrepancyReport(
        source_subgroup="all" if policy.source_subgroup is None
        else str(policy.source_subgroup),
        target_subgroup=str(target),
        metrics=metrics, control=control, per_timestep=per_t,
        mean_actions=mean_actions, eps=eps, sample_sizes=sample_sizes, seed=seed)
    if policy.mode == "regression":
        report.conventions["counterfactual_probs"] = (
            "histogram of binned predicted doses; a predicted dose <= 0 counts as no drug")
    report.conventions["mmd_bandwidth"] = {
        "method": ("median of pooled pairwise distances between doses in train-split "
                   "z-units, (dose - action_mean) / action_std "
                   "(every pair up to 512 rows, else 2^17 pairs drawn with seed 0)"),
        "aggregate": mmd_info.get("bandwidth"),
        "control": ctrl_info.get("bandwidth"),
        "zero_distance_fallbacks": sum(info.get("fallback", False) for info in infos),
    }
    return report
