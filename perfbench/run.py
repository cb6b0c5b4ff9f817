#!/usr/bin/env python3
"""Benchmark of the cfpolicy command-line pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--scale full|smoke]

One closed-loop client runs ``cfpolicy`` commands one at a time, each in a
fresh process (``perfbench/launch.py``, which is ``python -m cfpolicy.cli``
plus a start-up stamp) with ``src`` on ``PYTHONPATH``, ``--threads 1`` and
every BLAS pool pinned to one thread. Each command must exit 0, write its
expected files and pass its output check, and its outputs must be
byte-identical on every run of the same seed (npz members are compared
without their zip timestamps).

Workloads (why each was chosen):

* ``readme_pipeline``: the README's eight commands at n=400, T=72, 12
  features, delta 0.5, with trimmed training. The user's path end to end;
  cohort CSV write/read and the quadratic-memory MMD of ``counterfactual``
  dominate, ``numcore`` and GAIL do little. ``synth`` masks 10% of the
  vital and lab cells so that ``preprocess`` imputes, as it must on
  recorded ICU data.
* ``bc_train``: ``train-bc`` for 30 epochs on a whole preprocessed n=400
  cohort (64x64 MLP, batch 64), then ``eval``. Batched ``numcore``
  training (about 64 rows per call) dominates; no MMD, no rollouts.
* ``gail_rollout``: ``train-dyn`` for 5 epochs and ``train-gail`` for 100
  iterations on a preprocessed n=120 cohort. 25,600 single-row policy and
  LSTM forwards make per-call overhead dominate; cohort I/O is small.

The cohort is always generated with ``COHORT_SEED``; ``--seed`` seeds every
training, sampling and evaluation command. With the cohort seed varying,
the per-subgroup test-split sizes move the quadratic MMD cost and memory
of ``counterfactual`` by about a third from seed to seed, which no run
length can average out. The inputs of ``bc_train`` and ``gail_rollout`` are
built by the CLI before timing (``SETUP_REPEATS`` times, digests compared);
the timed commands receive only the generated directories. Output digests
are also kept under ``.perfbench_work/digests`` and compared with later runs
of the same workload, seed and scale, keyed by a digest of every file under
``src``, so runs of different program sources are never compared.

The benchmark pins itself and every command it starts to one CPU. While a
command runs, a probe thread on that CPU times a fixed pure-Python loop
(``PROBE_ITERATIONS``) every ``PROBE_INTERVAL_S``; the median probe time
over ``PROBE_REF_S`` is the host's slowdown during that command. The speed
of a shared host drifts by up to 1.7x in phases of tens of seconds, longer
than a run, so raw wall times of runs made minutes apart differ by more
than any bound a regression check can use. Times are therefore reported in
reference seconds: measured seconds divided by the command's slowdown. The
probe takes about 3% of the CPU from the command, on every commit alike.

End-to-end metrics come from untraced runs (``--trace 0``):

* ``wall_s``: sum of the timed commands' wall times (spawn to exit) in
  reference seconds, median over the passes made in about ``--seconds``.
  Measured seconds and slowdowns are printed in ``#`` lines.
* ``setup_s``: the timed commands' start-up summed over a pass: the median
  start-up (spawn until ``cfpolicy.cli.main`` is entered, in reference
  seconds) of every command started in the run and of ``STARTUP_SAMPLES``
  launches of ``--help``, times the commands in a pass. Work moved into
  import time shows here. The input-build time is printed in a ``#`` line,
  not counted.
* ``peak_rss_mb``: largest peak RSS of any timed command, median over passes.
* ``ok_frac``: commands that exited 0 and passed their checks, divided by
  the commands attempted (the run's ``failed``/``attempted`` give the
  failure fraction).

``--trace 1`` makes one untraced and one traced pass and reports per-layer
metrics (``PER_LAYER``); ``cli.<command>.wall_s`` is in reference seconds,
span times are as measured. Nothing waits on a queue in this single-process
program, so wait time is not applicable and not reported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COHORT_SEED = 7
SETUP_REPEATS = 2
STARTUP_SAMPLES = 8  # extra ``--help`` launches that only sample start-up
RUN_BUDGET_S = 150  # no pass starts that would end after this; commands are killed then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = ("synth", "preprocess", "train_bc", "eval", "train_dyn", "train_gail",
            "counterfactual", "report")
LAYERS = ("cli", "synth", "cohort", "preprocess", "kernels", "numcore", "bc",
          "dynamics", "gail", "divergence", "plots")
GAIL_KL_BOUND = 0.05 + 1e-12  # the trust-region target of GailConfig
PROBE_ITERATIONS = 20_000
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0015  # a probe's time on the reference machine; sets the scale only

SCALES = {
    "full": {"n": 400, "t": 72, "features": 12, "readme_bc_epochs": 2,
             "readme_dyn_epochs": 1, "readme_dyn_windows": 4000,
             "readme_gail_iterations": 10, "bc_epochs": 30, "gail_n": 120,
             "dyn_epochs": 5, "gail_iterations": 100},
    "smoke": {"n": 100, "t": 24, "features": 12, "readme_bc_epochs": 5,
              "readme_dyn_epochs": 2, "readme_dyn_windows": 400,
              "readme_gail_iterations": 2, "bc_epochs": 3, "gail_n": 40,
              "dyn_epochs": 2, "gail_iterations": 3},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    name: str  # one of COMMANDS
    argv: list  # cfpolicy arguments after ``--threads 1``
    outputs: tuple  # files or directories it must write, relative to its cwd
    check: Optional[Callable] = None  # (cwd, stdout text) -> list of problems


@dataclass
class Workload:
    build: list  # commands that make the input, untimed
    timed: list


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_eval(cwd: Path, stdout: str) -> list:
    auroc = json.loads(stdout)["macro_auroc"]
    return [] if auroc > 0.5 else [f"eval: macro_auroc {auroc} is not above 0.5"]


def check_train_dyn(out: str):
    def check(cwd: Path, stdout: str) -> list:
        m = _read_json(cwd / f"{out}.metrics.json")
        if m["test_mse"] < m["zero_delta_baseline_mse"]:
            return []
        return [f"train-dyn: test_mse {m['test_mse']} is not below the zero-delta "
                f"baseline {m['zero_delta_baseline_mse']}"]
    return check


def check_train_gail(out: str):
    def check(cwd: Path, stdout: str) -> list:
        lines = (cwd / f"{out}.log.jsonl").read_text(encoding="utf-8").splitlines()
        kls = [json.loads(line)["kl"] for line in lines]
        if not kls:
            return ["train-gail: empty log"]
        return [] if max(kls) <= GAIL_KL_BOUND else [
            f"train-gail: logged kl {max(kls)} exceeds {GAIL_KL_BOUND}"]
    return check


def check_counterfactual(out: str):
    def check(cwd: Path, stdout: str) -> list:
        report = _read_json(cwd / out / "report.json")
        metrics, control = report["metrics"], report["control"]
        per_t = report["per_timestep"] or {}
        values = [*metrics.values(), *control.values(),
                  *(v for series in per_t.values() for v in series)]
        kls = [metrics["kl"], control["kl"], *per_t.get("kl", [])]
        jss = [metrics["js"], control["js"], *per_t.get("js", [])]
        problems = []
        if not all(math.isfinite(v) for v in values):
            problems.append("counterfactual: non-finite metric")
        if min(kls) < 0:
            problems.append(f"counterfactual: negative kl {min(kls)}")
        if max(jss) > math.log(2) + 1e-12:  # ln 2 up to float rounding
            problems.append(f"counterfactual: js {max(jss)} exceeds ln 2")
        if not metrics["kl"] > control["kl"]:
            problems.append(f"counterfactual: planted-disparity kl {metrics['kl']} does "
                            f"not exceed its control {control['kl']}")
        return problems
    return check


def _synth(n: int, s: dict) -> Command:
    return Command("synth", ["synth", "--n", str(n), "--t", str(s["t"]),
                             "--features", str(s["features"]), "--delta", "0.5",
                             "--missing-rate", "0.1", "--seed", str(COHORT_SEED),
                             "--out", "raw"],
                   ("raw/cohort.csv", "raw/schema.json", "raw/ground_truth.json",
                    "raw/run_config.json"))


def _preprocess() -> Command:
    return Command("preprocess", ["preprocess", "--cohort", "raw", "--seed",
                                  str(COHORT_SEED), "--out", "proc"],
                   ("proc/cohort.csv", "proc/schema.json", "proc/splits.json",
                    "proc/norm_stats.json", "proc/binning.json", "proc/run_config.json"))


def _model_outputs(out: str, *suffixes) -> tuple:
    return (out,) + tuple(f"{out}{x}" for x in suffixes)


def readme_pipeline(s: dict, seed: int) -> Workload:
    seed = str(seed)
    return Workload(build=[], timed=[
        _synth(s["n"], s),
        _preprocess(),
        Command("train_bc", ["train-bc", "--cohort", "proc", "--subgroup", "gender=M",
                             "--mode", "classification", "--epochs",
                             str(s["readme_bc_epochs"]), "--seed", seed, "--out", "bc_m.npz"],
                _model_outputs("bc_m.npz", ".metrics.json", ".config.json")),
        Command("eval", ["eval", "--model", "bc_m.npz", "--cohort", "proc",
                         "--split", "test"], (), check_eval),
        Command("train_dyn", ["train-dyn", "--cohort", "proc", "--epochs",
                              str(s["readme_dyn_epochs"]), "--max-windows",
                              str(s["readme_dyn_windows"]), "--seed", seed,
                              "--out", "dyn.npz"],
                _model_outputs("dyn.npz", ".metrics.json", ".config.json"),
                check_train_dyn("dyn.npz")),
        Command("train_gail", ["train-gail", "--cohort", "proc", "--dynamics", "dyn.npz",
                               "--iterations", str(s["readme_gail_iterations"]),
                               "--seed", seed, "--out", "gail.npz"],
                _model_outputs("gail.npz", ".log.jsonl", ".config.json"),
                check_train_gail("gail.npz")),
        Command("counterfactual", ["counterfactual", "--model", "bc_m.npz", "--cohort",
                                   "proc", "--target", "gender=F", "--per-timestep",
                                   "--seed", seed, "--out", "cf"],
                ("cf",), check_counterfactual("cf")),
        Command("report", ["report", "--report", "cf/report.json", "--out", "cf_render"],
                ("cf_render/report.csv", "cf_render/metrics_per_timestep.svg")),
    ])


def bc_train(s: dict, seed: int) -> Workload:
    seed = str(seed)
    return Workload(build=[_synth(s["n"], s), _preprocess()], timed=[
        Command("train_bc", ["train-bc", "--cohort", "../build/proc", "--mode",
                             "classification", "--epochs", str(s["bc_epochs"]),
                             "--seed", seed, "--out", "bc.npz"],
                _model_outputs("bc.npz", ".metrics.json", ".config.json")),
        Command("eval", ["eval", "--model", "bc.npz", "--cohort", "../build/proc",
                         "--split", "test"], (), check_eval),
    ])


def gail_rollout(s: dict, seed: int) -> Workload:
    seed = str(seed)
    return Workload(build=[_synth(s["gail_n"], s), _preprocess()], timed=[
        Command("train_dyn", ["train-dyn", "--cohort", "../build/proc", "--epochs",
                              str(s["dyn_epochs"]), "--seed", seed, "--out", "dyn.npz"],
                _model_outputs("dyn.npz", ".metrics.json", ".config.json"),
                check_train_dyn("dyn.npz")),
        Command("train_gail", ["train-gail", "--cohort", "../build/proc", "--dynamics",
                               "dyn.npz", "--iterations", str(s["gail_iterations"]),
                               "--seed", seed, "--out", "gail.npz"],
                _model_outputs("gail.npz", ".log.jsonl", ".config.json"),
                check_train_gail("gail.npz")),
    ])


WORKLOADS = {"readme_pipeline": readme_pipeline, "bc_train": bc_train,
             "gail_rollout": gail_rollout}


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("CFPOLICY_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _probe_loop() -> int:
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i
    return s


class SpeedProbe:
    """Times ``_probe_loop`` every ``PROBE_INTERVAL_S`` while a command runs,
    on the CPU the command is pinned to (the threads of this process share
    it), and once more when the command ends."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.perf_counter()
        _probe_loop()
        self.times.append(time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    def slowdown(self) -> float:
        return statistics.median(self.times) / PROBE_REF_S


@dataclass
class Outcome:
    name: str
    wall_s: float  # measured
    startup_s: Optional[float]  # measured
    rss_mb: float
    digest: Optional[str] = None
    problems: list = field(default_factory=list)
    trace: Optional[dict] = None
    slowdown: float = 1.0  # the host's, while the command ran

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowdown

    @property
    def ref_startup_s(self) -> Optional[float]:
        return None if self.startup_s is None else self.startup_s / self.slowdown


def _file_digest(path: Path) -> bytes:
    if path.suffix == ".npz":
        h = hashlib.sha256()
        with zipfile.ZipFile(path) as zf:
            for info in sorted(zf.infolist(), key=lambda i: i.filename):
                h.update(info.filename.encode())
                h.update(hashlib.sha256(zf.read(info)).digest())
        return h.digest()
    return hashlib.sha256(path.read_bytes()).digest()


def outputs_digest(cwd: Path, outputs, stdout: bytes) -> str:
    h = hashlib.sha256(hashlib.sha256(stdout).digest())
    for rel in outputs:
        p = cwd / rel
        files = sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(cwd)).encode())
            h.update(_file_digest(f))
    return h.hexdigest()


class Runner:
    """Starts commands one at a time and records their outcomes."""

    def __init__(self, run_dir: Path, deadline: float):
        self.deadline = deadline
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True)
        self.env = child_env()
        self.count = 0

    def launch(self, argv: list, cwd: Path, trace: bool = False):
        """Run one CLI invocation; returns (wall s, startup s, rss MB, exit code,
        stdout bytes, trace record, slowdown)."""
        self.count += 1
        base = self.logs / f"{self.count:03d}"
        stamp = base.with_suffix(".stamp")
        trace_path = base.with_suffix(".trace.json")
        cmd = [sys.executable, str(BENCH / "launch.py"), "--stamp", str(stamp)]
        if trace:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", "--threads", "1", *argv]
        cwd.mkdir(parents=True, exist_ok=True)
        with open(base.with_suffix(".out"), "wb") as out, \
                open(base.with_suffix(".err"), "wb") as err, SpeedProbe() as probe:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if status is None:  # interrupted: stop the child before leaving
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t0
        startup = float(stamp.read_text()) - t0 if stamp.exists() else None
        record = None
        if trace and trace_path.exists():
            record = json.loads(trace_path.read_text(encoding="utf-8"))
        return (wall, startup, usage.ru_maxrss / 1024, proc.returncode,
                base.with_suffix(".out").read_bytes(), record, probe.slowdown())

    def run(self, command: Command, cwd: Path, trace: bool = False) -> Outcome:
        wall, startup, rss, code, stdout, record, slowdown = self.launch(
            command.argv, cwd, trace)
        outcome = Outcome(command.name, wall, startup, rss, trace=record, slowdown=slowdown)
        if code != 0:
            outcome.problems.append(f"{command.name}: exit code {code}")
            return outcome
        missing = [o for o in command.outputs if not (cwd / o).exists()]
        if missing:
            outcome.problems.append(f"{command.name}: missing outputs {missing}")
            return outcome
        if trace and record is None:
            outcome.problems.append(f"{command.name}: no trace written")
        try:
            if command.check is not None:
                outcome.problems += command.check(cwd, stdout.decode("utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.problems.append(f"{command.name}: unreadable output ({exc!r})")
        outcome.digest = outputs_digest(cwd, command.outputs, stdout)
        return outcome

    def run_all(self, commands: list, cwd: Path, trace: bool = False) -> list:
        return [self.run(c, cwd, trace) for c in commands]


def check_digests(groups: list, store: Path, key_obj) -> list:
    """Every run of a command must give the same digest, in this process and
    in every earlier run of the same program sources, workload, seed and
    scale here."""
    problems = []
    seen = {}
    for outcomes in groups:
        for i, o in enumerate(outcomes):
            if o.digest is None:
                continue
            first = seen.setdefault(i, o.digest)
            if o.digest != first:
                problems.append(f"{o.name}: outputs differ between runs of this seed")
    key = hashlib.sha256(json.dumps(key_obj, sort_keys=True).encode()).hexdigest()[:24]
    path = store / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        for i, digest in seen.items():
            if earlier.get(str(i), digest) != digest:
                problems.append(f"command {i}: outputs differ from an earlier run "
                                f"of this seed")
    else:
        store.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({str(i): d for i, d in seen.items()}), encoding="utf-8")
        os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass


PER_LAYER_NAMES = (
    # cohort CSV I/O
    "cohort.load_cohort.s", "cohort.load_cohort.calls", "cohort.rows_read",
    "cohort.bytes_read", "cohort.write_cohort.s", "cohort.rows_written",
    "cohort.bytes_written",
    # generation and preprocessing
    "synth.generate.s", "preprocess.preprocess_cohort.self_s",
    "kernels.fill_series.calls", "kernels.fill_series.s",
    # window building
    "bc.build_dataset.s", "bc.build_dataset.rows", "dynamics.state_window.calls",
    "dynamics.state_window.s", "dynamics.window_arrays.calls", "dynamics.window_arrays.s",
    "divergence.empirical_action_dist.s",
    # batched numcore
    *(f"numcore.{cls}.{d}.{stat}" for cls in ("Dense", "BatchNorm", "Relu")
      for d in ("forward", "backward") for stat in ("calls", "self_s")),
    "numcore.Adam.step.calls", "numcore.Adam.step.self_s",
    "numcore.Dense.forward.rows_per_call", "numcore.Dense.forward.flops",
    # per-call numcore, dynamics and gail
    *(f"numcore.RecurrentRegressor.{d}.{stat}" for d in ("forward", "backward")
      for stat in ("calls", "self_s", "rows_per_call")),
    "dynamics.TransitionModel.step.calls", "dynamics.TransitionModel.step.s",
    "dynamics.rollout.calls", "dynamics.rollout.self_s",
    "gail.StochasticPolicy.sample.calls", "gail.StochasticPolicy.sample.s",
    "gail.disc_update.calls", "gail.disc_update.s", "gail.policy_update.calls",
    "gail.policy_update.s", "gail.policy_update.retries", "gail.rollout_share",
    "dynamics.train_dynamics.s",
    # divergence
    "divergence.counterfactual_report.s", "divergence.mmd_rbf.calls",
    "divergence.mmd_rbf.self_s", "divergence.mmd_rbf.max_pooled_n",
    "divergence.mmd_rbf.pairwise_bytes", "divergence.mmd_rbf.useful_ratio",
    "kernels.rbf_mmd2_biased.calls", "kernels.rbf_mmd2_biased.s",
    "kernels.rbf_mmd2_biased.gram_entries", "divergence.wasserstein1.calls",
    "divergence.wasserstein1.s", "divergence.mmd_bandwidth_fallbacks",
    # training, evaluation, checkpoints, plots
    "bc.train_bc.s", "bc.train_bc.epochs_run", "bc.predict.calls", "bc.predict.rows",
    "bc.eval_report.s", "numcore.save_checkpoint.s", "numcore.load_checkpoint.s",
    "plots.line_chart_svg.s",
    # per command (untraced pass), per layer, and the trace itself
    *(f"cli.{c}.{stat}" for stat in ("wall_s", "rss_mb") for c in COMMANDS),
    *(f"layer.{layer}.self_s" for layer in LAYERS),
    "trace.overhead_frac", "share.cohort_mmd_of_wall", "share.numcore_of_train_bc",
)

# unit by the metric name's last component; "computed" marks work counted
# from sizes (FLOPs, Gram entries, matrix and file bytes, CSV rows)
UNITS = {"s": "s", "self_s": "s", "wall_s": "s", "rss_mb": "MB", "rows_per_call": "rows/call",
         "rows": "rows", "rows_read": "row_computed", "rows_written": "row_computed",
         "bytes_read": "B_computed", "bytes_written": "B_computed",
         "pairwise_bytes": "B_computed", "flops": "flop_computed",
         "gram_entries": "entry_computed", "useful_ratio": "frac", "rollout_share": "frac",
         "overhead_frac": "frac", "cohort_mmd_of_wall": "frac",
         "numcore_of_train_bc": "frac"}
HIGHER_IS_BETTER = ("rows_per_call", "useful_ratio")

PER_LAYER = {name: UNITS.get(name.rsplit(".", 1)[1], "count") for name in PER_LAYER_NAMES}


class TraceTotals:
    """Per-span-name totals summed over the traced commands."""

    def __init__(self, records):
        self.calls, self.s, self.self_s = {}, {}, {}
        self.counts = {}
        for rec in records:
            for i, name in enumerate(rec["names"]):
                self.calls[name] = self.calls.get(name, 0) + rec["calls"][i]
                self.s[name] = self.s.get(name, 0.0) + rec["s"][i]
                self.self_s[name] = self.self_s.get(name, 0.0) + rec["self_s"][i]
            for k, v in rec["counts"].items():
                if k.endswith(("max_pooled_n", "pairwise_bytes")):
                    self.counts[k] = max(self.counts.get(k, 0), v)
                else:
                    self.counts[k] = self.counts.get(k, 0) + v

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def get(self, metric: str) -> float:
        if metric in self.counts:
            return self.counts[metric]
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            return self.calls.get(base, 0)
        if stat == "s":
            return self.s.get(base, 0.0)
        if stat == "self_s":
            return self.self_s.get(base, 0.0)
        if stat == "rows_per_call":
            calls = self.calls.get(base, 0)
            return self.counts.get(f"{base}.rows", 0) / calls if calls else 0.0
        return 0.0


def per_layer_metrics(untraced: list, traced: list) -> dict:
    records = [o.trace for o in traced if o.trace is not None]
    totals = TraceTotals(records)
    by_cmd = {o.name: o for o in traced}
    out = {}
    for name in PER_LAYER:
        if name.startswith(("cli.", "layer.", "trace.", "share.")):
            continue
        out[name] = totals.get(name)
    calls = totals.calls.get("divergence.mmd_rbf", 0)
    out["divergence.mmd_rbf.useful_ratio"] = (
        totals.counts.get("divergence.mmd_rbf.distinct_inputs", 0) / calls if calls else 0.0)
    gail = by_cmd.get("train_gail")
    if gail is not None and gail.trace is not None:
        g = TraceTotals([gail.trace])
        train = g.s.get("gail.train_gail", 0.0)
        out["gail.rollout_share"] = g.s.get("dynamics.rollout", 0.0) / train if train else 0.0
    else:
        out["gail.rollout_share"] = 0.0
    for c in COMMANDS:
        runs = [o for o in untraced if o.name == c]
        out[f"cli.{c}.rss_mb"] = max((o.rss_mb for o in runs), default=0.0)
        out[f"cli.{c}.wall_s"] = sum(o.ref_wall_s for o in runs)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = totals.layer_self(layer)
    traced_wall = sum(o.wall_s for o in traced)
    out["trace.overhead_frac"] = (sum(o.ref_wall_s for o in traced)
                                  / sum(o.ref_wall_s for o in untraced) - 1.0)
    out["share.cohort_mmd_of_wall"] = (
        totals.layer_self("cohort") + totals.s.get("divergence.mmd_rbf", 0.0)) / traced_wall
    bc = by_cmd.get("train_bc")
    if bc is not None and bc.trace is not None:
        out["share.numcore_of_train_bc"] = (
            TraceTotals([bc.trace]).layer_self("numcore") / bc.wall_s)
    else:
        out["share.numcore_of_train_bc"] = 0.0
    return out


# ---------------------------------------------------------------------------
# environment record


def _git_revision() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of every file under ``src`` (committed or not), bytecode aside."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*")):
        if f.is_file() and f.suffix != ".pyc":
            h.update(str(f.relative_to(SRC)).encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
                              / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: child_env()[v] for v in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_revision": _git_revision(),
        "src_digest": source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# main


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args, workload: Workload, run_dir: Path) -> tuple:
    """Returns (metrics, attempted, failed, problems, notes)."""
    start = time.monotonic()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # commands inherit it
    runner = Runner(run_dir, start + RUN_BUDGET_S)
    # warm-up: byte-code cache and page cache, which users do not pay per command
    runner.launch(["--help"], run_dir / "warmup")
    # start-up does not depend on the command (cli imports every module first)
    helps = [runner.launch(["--help"], run_dir / "warmup") for _ in range(STARTUP_SAMPLES)]

    builds = []
    for k in range(1 if args.trace or not workload.build else SETUP_REPEATS):
        builds.append(runner.run_all(workload.build, run_dir / ("build" if k == 0
                                                                else f"build{k}")))
    key = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
           "src": source_digest(),
           "build": [c.argv for c in workload.build],
           "timed": [c.argv for c in workload.timed]}
    # the inputs are verified before timing starts
    problems = check_digests(builds, WORK / "digests", dict(key, part="build"))

    passes, traced = [], []
    timed_start = time.monotonic()
    pass_time = 0.0
    # passes repeat while that brings the timed total nearer to --seconds
    while not passes or (not args.trace
                         and time.monotonic() - timed_start + pass_time / 2 < args.seconds
                         and time.monotonic() - start + pass_time < RUN_BUDGET_S):
        t0 = time.monotonic()
        passes.append(runner.run_all(workload.timed, run_dir / f"pass{len(passes)}"))
        pass_time = time.monotonic() - t0
    if args.trace:
        traced = runner.run_all(workload.timed, run_dir / "traced", trace=True)
    problems += check_digests(passes + ([traced] if traced else []),
                              WORK / "digests", dict(key, part="timed"))

    everything = [o for group in builds + passes + ([traced] if traced else [])
                  for o in group]
    problems = [p for o in everything for p in o.problems] + problems
    attempted = len(everything)
    failed = sum(not o.ok for o in everything)
    if failed == 0 and problems:
        failed = 1  # a digest mismatch fails the run's commands as a whole

    notes = []
    for i, c in enumerate(workload.timed):
        walls = [round(p[i].wall_s, 3) for p in passes]
        slowdowns = [round(p[i].slowdown, 3) for p in passes]
        notes.append(f"# {c.name:<15} rss {max(p[i].rss_mb for p in passes):7.1f} MB  "
                     f"measured wall per pass {walls} s, host slowdown {slowdowns}")
    startups = [o.ref_startup_s for o in everything if o.startup_s is not None]
    startups += [up / slowdown for _, up, *_, slowdown in helps if up is not None]
    build_walls = [sum(o.wall_s for o in b) for b in builds]
    metrics = {
        "wall_s": _median([sum(o.ref_wall_s for o in p) for p in passes]),
        "setup_s": len(workload.timed) * _median(startups),
        "peak_rss_mb": _median([max(o.rss_mb for o in p) for p in passes]),
        "ok_frac": (attempted - failed) / attempted,
    }
    notes.append(f"# build {_median(build_walls):.3f} s (measured) x{len(builds)}  start-up "
                 f"median {_median(startups):.4f} reference s over {len(startups)} commands")
    if args.trace:
        metrics = per_layer_metrics(passes[0], traced)
        spans = {}
        for o in traced:
            if o.trace is not None:
                for i, name in enumerate(o.trace["names"]):
                    spans[name] = spans.get(name, 0) + o.trace["calls"][i]
        notes.append("# trace-spans " + json.dumps(spans, sort_keys=True))
        notes.append("# wait time: not applicable (one process, no queues)")
    return metrics, attempted, failed, problems, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()

    if not (SRC / "cfpolicy" / "cli.py").is_file():
        print(f"error: no cfpolicy sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](SCALES[args.scale], args.seed)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        metrics, attempted, failed, problems, notes = measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print("# env " + json.dumps(environment(), sort_keys=True))
    for line in notes:
        print(line)
    for p in problems:
        print(f"# FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
