"""Command-line orchestration for the full pipeline.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
Every command writes its fully-resolved configuration next to its outputs
so a run can be reproduced bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bc, divergence, dynamics, gail, synth
from .cohort import COHORT_DIR_FILES, SubgroupKey, assign_splits, load_cohort_dir, save_cohort_dir
from .errors import CfPolicyError, RolloutBlowupError, TrainingDivergenceError
from .plots import line_chart_svg
from .preprocess import preprocess_cohort

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3
# the paths each command writes, made from its --out; a trailing "/" marks a
# directory. A cohort directory's list includes the sidecars save_cohort_dir
# deletes when the cohort has none, and a report directory's every chart.
_COHORT_DIR = ("{}/", *("{}/" + name for name in COHORT_DIR_FILES), "{}/run_config.json")
_REPORT_DIR = ("{}/", "{}/report.csv", "{}/mean_vaso.svg", "{}/mean_fluid.svg",
               "{}/metrics_per_timestep.svg")
OUTPUTS = {
    "synth": _COHORT_DIR + ("{}/ground_truth.json",), "preprocess": _COHORT_DIR,
    "counterfactual": _REPORT_DIR + ("{}/report.json", "{}/run_config.json"),
    "report": _REPORT_DIR,
    "eval": ("{}",),
    "train-bc": ("{}", "{}.metrics.json", "{}.config.json"),
    "train-dyn": ("{}", "{}.metrics.json", "{}.config.json"),
    "train-gail": ("{}", "{}.log.jsonl", "{}.config.json"),
}


def _seed(text: str) -> int:
    """A seed option: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def _default_seed() -> int:
    """The seed of a command run without --seed: CFPOLICY_SEED, else 0."""
    text = os.environ.get("CFPOLICY_SEED", "0")
    if not text.isdecimal():  # the digits that int() reads; no sign
        raise CfPolicyError(f"CFPOLICY_SEED must be an integer >= 0, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """An integer option that must be at least 1 (sizes, counts, lengths)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _positive_finite(text: str) -> float:
    """A float option that must be finite and greater than 0."""
    value = float(text)
    if not 0 < value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _nonnegative_finite(text: str) -> float:
    """A float option that must be finite and at least 0."""
    value = float(text)
    if not 0 <= value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _not_a_directory(path: Path) -> bool:
    """Whether ``path`` is an existing entry (a dangling link too) that is
    not a directory."""
    return (path.exists() or path.is_symlink()) and not path.is_dir()


def _outputs(args) -> list:
    """The paths of OUTPUTS for this command and --out."""
    return [Path(template.format(Path(args.out))) for template in OUTPUTS[args.command]]


def _check_out(args) -> None:
    """Reject an --out the command could not write, before it does any work."""
    for parent in Path(args.out).parents:
        if _not_a_directory(parent):
            raise CfPolicyError(f"--out {args.out}: {parent} is not a directory")
    for template, path in zip(OUTPUTS[args.command], _outputs(args)):
        if template.endswith("/") and _not_a_directory(path):
            raise CfPolicyError(f"--out {args.out}: {path} exists and is not a directory")
        if not template.endswith("/") and path.is_dir():
            raise CfPolicyError(f"--out {args.out}: {path} is a directory")


def _write_config(args: argparse.Namespace, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    resolved = {k: (str(v) if isinstance(v, Path) else v)
                for k, v in vars(args).items() if k != "func"}
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True), encoding="utf-8")


def cmd_synth(args) -> int:
    if not 0 <= args.missing_rate < 1:
        raise CfPolicyError("--missing-rate must be in [0, 1)")
    config = synth.SynthConfig(
        n_patients=args.n, T=args.t, n_features=args.features, seed=args.seed,
        disparity_delta=args.delta)
    cohort, truth = synth.generate(config)
    if args.missing_rate > 0:
        cohort = synth.inject_missingness(cohort, args.missing_rate, args.seed)
    out = Path(args.out)
    save_cohort_dir(cohort, out)
    synth.save_ground_truth(truth, out / "ground_truth.json")
    _write_config(args, out / "run_config.json")
    print(f"wrote {len(cohort)} trajectories to {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    cohort = load_cohort_dir(args.cohort)
    if cohort.split is None:
        cohort = assign_splits(cohort, args.seed)
    processed = preprocess_cohort(cohort)
    out = Path(args.out)
    save_cohort_dir(processed, out)
    _write_config(args, out / "run_config.json")
    print(f"preprocessed cohort written to {out}")
    return EXIT_OK


def _load_preprocessed(path: str):
    cohort = load_cohort_dir(path)
    if (cohort.split is None or cohort.norm_stats is None or cohort.binning is None
            or not cohort.binned.all()):
        raise CfPolicyError(
            f"{path} is not a preprocessed cohort directory (run `preprocess` first)")
    return cohort


def _load_for(load, path: str, args, cohort):
    """``load(path)``: a model that must have been trained on a cohort
    preprocessed as --cohort was: same normalization and action binning."""
    model = load(path)
    for name in ("norm_stats", "binning"):
        if (json.dumps(getattr(model, name).to_json())
                != json.dumps(getattr(cohort, name).to_json())):
            raise CfPolicyError(
                f"{path} was trained on a cohort preprocessed differently "
                f"from {args.cohort} ({name} differ)")
    return model


def cmd_train_bc(args) -> int:
    cohort = _load_preprocessed(args.cohort)
    subgroup = SubgroupKey.parse(args.subgroup) if args.subgroup else None
    hp = bc.BcHyperParams(epochs=args.epochs, batch=args.batch, lr=args.lr,
                          seed=args.seed, patience=args.patience,
                          hidden=tuple(args.hidden),
                          max_windows=args.max_windows)
    policy = bc.train_bc(cohort, subgroup, args.mode, hp)
    out, metrics_path, config_path = _outputs(args)
    out.parent.mkdir(parents=True, exist_ok=True)
    bc.save_policy(policy, out)
    # a val split of one action class leaves the AUROC undefined; the
    # trained checkpoint is still valid, so this is reported, not an error
    report = bc.eval_report(policy, cohort if subgroup is None
                            else bc.filter_subgroup(cohort, subgroup), "val",
                            allow_undefined=True)
    metrics_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    _write_config(args, config_path)
    print(f"checkpoint: {out}\nmetrics: {metrics_path}")
    return EXIT_OK


def cmd_train_dyn(args) -> int:
    cohort = _load_preprocessed(args.cohort)
    hp = dynamics.DynHyperParams(epochs=args.epochs, batch=args.batch, lr=args.lr,
                                 hidden=args.hidden, seed=args.seed,
                                 max_windows=args.max_windows)
    model = dynamics.train_dynamics(cohort, hp)
    mse_model, mse_zero = dynamics.eval_dynamics_mse(model, cohort, "test")
    out, metrics_path, config_path = _outputs(args)
    out.parent.mkdir(parents=True, exist_ok=True)
    dynamics.save_dynamics(model, out)
    metrics_path.write_text(json.dumps(
        {"test_mse": mse_model, "zero_delta_baseline_mse": mse_zero,
         "history": model.history}, indent=2), encoding="utf-8")
    _write_config(args, config_path)
    print(f"checkpoint: {out}\ntest MSE {mse_model:.5f} vs zero-delta {mse_zero:.5f}")
    return EXIT_OK


def cmd_train_gail(args) -> int:
    cohort = _load_preprocessed(args.cohort)
    dyn = _load_for(dynamics.load_dynamics, args.dynamics, args, cohort)
    subgroup = SubgroupKey.parse(args.subgroup) if args.subgroup else None
    config = gail.GailConfig(
        lr=args.lr, batch=args.batch, iterations=args.iterations,
        horizon=args.horizon, episodes=args.episodes, seed=args.seed,
        convention=args.convention, entropy_coef=args.entropy_coef)
    result = gail.train_gail(cohort, dyn, config, subgroup)
    out, log_path, config_path = _outputs(args)
    out.parent.mkdir(parents=True, exist_ok=True)
    gail.save_gail(result, out)
    with log_path.open("w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry) + "\n")
    _write_config(args, config_path)
    last = result.log[-1]
    print(f"checkpoint: {out}\nfinal disc accuracy {last['disc_accuracy']:.3f}, "
          f"entropy {last['entropy']:.3f}, kl {last['kl']:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cohort = _load_preprocessed(args.cohort)
    policy = _load_for(bc.load_policy, args.model, args, cohort)
    data = cohort if policy.source_subgroup is None else bc.filter_subgroup(
        cohort, policy.source_subgroup)
    report = bc.eval_report(policy, data, args.split)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_counterfactual(args) -> int:
    cohort = _load_preprocessed(args.cohort)
    policy = _load_for(bc.load_policy, args.model, args, cohort)
    target = SubgroupKey.parse(args.target)
    if policy.source_subgroup is not None and policy.source_subgroup == target \
            and not args.allow_self:
        raise CfPolicyError(
            "target equals the policy's source subgroup; self-comparison is "
            "only meaningful as a control (pass --allow-self)")
    report = divergence.counterfactual_report(
        policy, cohort, target, eps=args.eps, seed=args.seed,
        per_timestep=args.per_timestep)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.save(out / "report.json")
    report.to_csv(out / "report.csv")
    _write_config(args, out / "run_config.json")
    _render_report(report, out)
    print(f"{'metric':<12}{'value':>12}{'control':>12}")
    for name, v in report.metrics.items():
        ctrl = report.control.get(name)
        print(f"{name:<12}{v:>12.5f}{'' if ctrl is None else format(ctrl, '>12.5f')}")
    return EXIT_OK


def _render_report(report: divergence.DiscrepancyReport, out: Path) -> None:
    """Draw the report's charts into ``out``, and delete each chart it does
    not draw, so that a reused directory keeps no chart of an earlier report."""
    charts = (
        ("mean_vaso.svg", "mean vasopressor dose per timestep",
         {k: v for k, v in report.mean_actions.items() if k.endswith("_vaso")}),
        ("mean_fluid.svg", "mean fluid dose per timestep",
         {k: v for k, v in report.mean_actions.items() if k.endswith("_fluid")}),
        ("metrics_per_timestep.svg", "discrepancy metrics per timestep", report.per_timestep))
    for name, title, series in charts:
        if series:
            line_chart_svg(series, title, out / name)
        else:
            (out / name).unlink(missing_ok=True)


def cmd_report(args) -> int:
    report = divergence.DiscrepancyReport.load(args.report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_csv(out / "report.csv")
    _render_report(report, out)
    print(f"report artifacts written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfpolicy",
        description="Counterfactual treatment-policy estimation for septic cohorts")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and otherwise ignored; "
                             "every command runs single-process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--t", type=int, default=72)
    p.add_argument("--features", type=int, default=40)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--missing-rate", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="split, impute, normalize, bin actions")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-bc", help="behavioral cloning")
    p.add_argument("--cohort", required=True)
    p.add_argument("--mode", choices=bc.MODES,
                   default="classification")
    p.add_argument("--subgroup", default=None, help="attr=value, e.g. gender=M")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_count, default=300)
    p.add_argument("--batch", type=_count, default=64)
    p.add_argument("--lr", type=_positive_finite, default=3e-4)
    p.add_argument("--patience", type=_count, default=30)
    p.add_argument("--hidden", type=_count, nargs="+", default=[64, 64])
    p.add_argument("--max-windows", type=_count, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_train_bc)

    p = sub.add_parser("train-dyn", help="state-transition environment model")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_count, default=15)
    p.add_argument("--batch", type=_count, default=64)
    p.add_argument("--lr", type=_positive_finite, default=3e-4)
    p.add_argument("--hidden", type=_count, default=64)
    p.add_argument("--max-windows", type=_count, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_train_dyn)

    p = sub.add_parser("train-gail", help="adversarial imitation learning")
    p.add_argument("--cohort", required=True)
    p.add_argument("--dynamics", required=True, help="transition-model checkpoint")
    p.add_argument("--subgroup", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=_count, default=200)
    p.add_argument("--horizon", type=_count, default=16)
    p.add_argument("--episodes", type=_count, default=16)
    p.add_argument("--batch", type=_count, default=64)
    p.add_argument("--lr", type=_positive_finite, default=3e-4)
    p.add_argument("--entropy-coef", type=_nonnegative_finite, default=0.03)
    p.add_argument("--convention", choices=gail.CONVENTIONS, default="paper-eq")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_train_gail)

    p = sub.add_parser("eval", help="evaluate a BC policy")
    p.add_argument("--model", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("counterfactual", help="cross-subgroup discrepancy report")
    p.add_argument("--model", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--target", required=True, help="attr=value, e.g. gender=F")
    p.add_argument("--out", required=True)
    p.add_argument("--per-timestep", action="store_true")
    p.add_argument("--allow-self", action="store_true")
    p.add_argument("--eps", type=_positive_finite, default=divergence.DEFAULT_EPS)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("report", help="re-render CSV/SVG from a report JSON")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:  # read only by commands with --seed
            args.seed = _default_seed()
        if args.out is not None:  # eval's --out is optional
            _check_out(args)
        return args.func(args)
    except (TrainingDivergenceError, RolloutBlowupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CfPolicyError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:  # an input path that is missing or of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
