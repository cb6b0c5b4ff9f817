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
from .dynamics import state_window
from .errors import CfPolicyError, EmptySubgroupError
from .kernels import median_pairwise_distance, rbf_mmd2_biased
from .preprocess import (N_ACTIONS, action_index_to_doses, bin_actions_batch,
                         denormalize_actions)

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

    Bandwidth defaults to the exact median pairwise distance of the pooled
    samples, falling back to 1.0 (with a warning) when that median is zero.
    Memory use does not grow with the sample sizes. A dict passed as
    ``info`` receives the bandwidth used and whether the fallback was taken.

    Points and bandwidth are first scaled by the power of two that brings
    the largest coordinate span into [0.5, 1), so no coordinate difference
    overflows; outside the subnormal range the scaling is exact and changes
    no result. Distances far below the span do not underflow either: the
    kernels scale each difference before squaring it.
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
    _, e = np.frexp(np.max(pooled.max(axis=0) - pooled.min(axis=0)))
    e = int(e)  # frexp gives 0 for a zero or non-finite span: no scaling
    pooled = np.ldexp(pooled, -e)
    x, y = pooled[:len(x)], pooled[len(x):]
    fallback = False
    if bandwidth is None:
        bandwidth = float(np.ldexp(median_pairwise_distance(pooled), e))
        if bandwidth == 0.0:
            warnings.warn("zero median pairwise distance; falling back to bandwidth 1.0",
                          stacklevel=2)
            bandwidth, fallback = 1.0, True
    if info is not None:
        info.update(bandwidth=float(bandwidth), fallback=fallback)
    mmd2 = rbf_mmd2_biased(x, y, float(np.ldexp(bandwidth, -e)))
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
    trajs = cohort.by_split(split)
    if not trajs:
        raise EmptySubgroupError(f"split {split!r} has no trajectories")
    stats = cohort.norm_stats
    t_rows = np.concatenate([np.arange(tr.T) for tr in trajs])
    if policy is None:
        labels = np.concatenate([tr.action_bins for tr in trajs])
        doses = denormalize_actions(stats, np.concatenate([tr.actions for tr in trajs]))
    else:
        out = predict(policy, np.concatenate(
            [state_window(tr.states, np.arange(tr.T)).reshape(tr.T, -1) for tr in trajs]))
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
        field of the wrong type, raises CfPolicyError naming it."""
        try:
            report = cls(**json.loads(Path(path).read_text(encoding="utf-8")))
            report._check_types()
        except (TypeError, ValueError) as exc:
            raise CfPolicyError(f"{path} is not a discrepancy report: {exc}") from exc
        return report

    def _check_types(self) -> None:
        """TypeError unless each field has the type ``save`` writes, metric
        values are numbers and every series is a non-empty list of them."""
        for name, kind in _REPORT_TYPES.items():
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} is a {type(getattr(self, name)).__name__}")
        series = [*(self.per_timestep or {}).values(), *self.mean_actions.values()]
        if not all(isinstance(v, list) and v for v in series):
            raise TypeError("a per-timestep series is not a non-empty list")
        values = [*self.metrics.values(), *self.control.values(),
                  *(v for values in series for v in values)]
        if not all(isinstance(v, (int, float)) for v in values):
            raise TypeError("a metric value is not a number")

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


_REPORT_TYPES = {
    "source_subgroup": str, "target_subgroup": str, "metrics": dict, "control": dict,
    "per_timestep": (dict, type(None)), "mean_actions": dict, "eps": (int, float),
    "sample_sizes": dict, "seed": int, "conventions": dict,
}


def _pair_metrics(realized: ActionDistribution, counterfactual: ActionDistribution,
                  eps: float):
    """Every discrepancy metric of one pair of distributions, plus the MMD
    bandwidth record."""
    out = {
        "kl": kl_divergence(realized.probs, counterfactual.probs, eps),
        "kl_reverse": kl_divergence(counterfactual.probs, realized.probs, eps),
        "js": js_divergence(realized.probs, counterfactual.probs),
        "w1_fluid": wasserstein1(realized.fluid, counterfactual.fluid),
        "w1_vaso": wasserstein1(realized.vaso, counterfactual.vaso),
    }
    xa = np.stack([realized.fluid, realized.vaso], axis=1)
    ya = np.stack([counterfactual.fluid, counterfactual.vaso], axis=1)
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
    metrics, mmd_info = _pair_metrics(realized, counterfactual, eps)
    infos = [mmd_info]

    control, ctrl_info = {}, {}
    if policy.source_subgroup is not None:
        source_cohort = filter_subgroup(cohort, policy.source_subgroup)
        ctrl_real = empirical_action_dist(None, source_cohort, "test")
        ctrl_cf = empirical_action_dist(policy, source_cohort, "test")
        control, ctrl_info = _pair_metrics(ctrl_real, ctrl_cf, eps)
        infos.append(ctrl_info)

    per_t = None
    mean_actions = {}
    sample_sizes = {"target": realized.n, "counterfactual": counterfactual.n}
    if per_timestep:
        pairs = [_pair_metrics(r, c, eps) for r, c in zip(real_t, cf_t)]
        per_t = {name: [m[name] for m, _ in pairs]
                 for name in ("kl", "kl_reverse", "js", "mmd", "w1_fluid", "w1_vaso")}
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
        "method": "exact median of pooled pairwise distances",
        "aggregate": mmd_info.get("bandwidth"),
        "control": ctrl_info.get("bandwidth"),
        "zero_distance_fallbacks": sum(info.get("fallback", False) for info in infos),
    }
    return report
