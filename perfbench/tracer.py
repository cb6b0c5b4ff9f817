"""Span tracing of the cfpolicy package from outside the program.

``Tracer.install`` replaces each public function in ``TARGETS`` with a
wrapper that records a span: its name, start, end and the id of the span
that was open when it was called. A function is replaced at every module
that bound it (``from .kernels import rbf_mmd2_biased`` makes a second
binding in ``divergence``), and a method is replaced on its class; a call
through a binding left unpatched would bypass the span without notice.

Counts are taken at the same boundaries (rows, bytes, FLOPs, retries).
Spans stay in memory and are written when the command ends: the span
table as int64 quintuples ``(id, name index, parent id, start ns, end ns)``
in ``<trace>.spans``, and per-name totals plus counts as JSON in
``<trace>``. Self time is a span's duration minus the part its child spans
cover. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
import warnings
from array import array
from collections import defaultdict
from importlib import import_module

import numpy as np

# (layer, attribute path) of every wrapped function; the span is named
# "<layer>.<attribute path>" and the layer is the module under cfpolicy.
TARGETS = (
    ("cli", "main"),
    ("synth", "generate"),
    ("synth", "inject_missingness"),
    ("synth", "save_ground_truth"),
    ("cohort", "load_cohort"),
    ("cohort", "write_cohort"),
    ("cohort", "load_cohort_dir"),
    ("cohort", "save_cohort_dir"),
    ("cohort", "assign_splits"),
    ("cohort", "filter_subgroup"),
    ("preprocess", "preprocess_cohort"),
    ("kernels", "fill_series"),
    ("kernels", "rbf_mmd2_biased"),
    ("kernels", "discounted_returns"),
    ("numcore", "Dense.forward"),
    ("numcore", "Dense.backward"),
    ("numcore", "BatchNorm.forward"),
    ("numcore", "BatchNorm.backward"),
    ("numcore", "Relu.forward"),
    ("numcore", "Relu.backward"),
    ("numcore", "Mlp.forward"),
    ("numcore", "Mlp.backward"),
    ("numcore", "RecurrentRegressor.forward"),
    ("numcore", "RecurrentRegressor.backward"),
    ("numcore", "Adam.step"),
    ("numcore", "softmax"),
    ("numcore", "nll_loss"),
    ("numcore", "mse_loss"),
    ("numcore", "save_checkpoint"),
    ("numcore", "load_checkpoint"),
    ("bc", "build_dataset"),
    ("bc", "train_bc"),
    ("bc", "predict"),
    ("bc", "eval_report"),
    ("bc", "save_policy"),
    ("bc", "load_policy"),
    ("dynamics", "state_window"),
    ("dynamics", "window_arrays"),
    ("dynamics", "TransitionModel.step"),
    ("dynamics", "rollout"),
    ("dynamics", "train_dynamics"),
    ("dynamics", "eval_dynamics_mse"),
    ("dynamics", "save_dynamics"),
    ("dynamics", "load_dynamics"),
    ("gail", "train_gail"),
    ("gail", "StochasticPolicy.sample"),
    ("gail", "disc_update"),
    ("gail", "policy_update"),
    ("gail", "save_gail"),
    ("divergence", "counterfactual_report"),
    ("divergence", "empirical_action_dist"),
    ("divergence", "mmd_rbf"),
    ("divergence", "wasserstein1"),
    ("divergence", "DiscrepancyReport.save"),
    ("divergence", "DiscrepancyReport.load"),
    ("divergence", "DiscrepancyReport.to_csv"),
    ("plots", "line_chart_svg"),
)

MMD_FALLBACK_WARNING = "zero median pairwise distance"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(x) -> int:
    return 1 if np.ndim(x) <= 1 else int(np.shape(x)[0])


def _count_load_cohort(t, args, kwargs, result):
    t.counts["cohort.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    t.counts["cohort.rows_read"] += sum(tr.T for tr in result.trajectories)


def _count_write_cohort(t, args, kwargs, result):
    cohort = _arg(args, kwargs, 0, "cohort")
    t.counts["cohort.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    t.counts["cohort.rows_written"] += sum(tr.T for tr in cohort.trajectories)


def _count_build_dataset(t, args, kwargs, result):
    t.counts["bc.build_dataset.rows"] += len(result[0])


def _count_dense_forward(t, args, kwargs, result):
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    n_in, n_out = layer.W.value.shape
    t.counts["numcore.Dense.forward.rows"] += x.shape[0]
    t.counts["numcore.Dense.forward.flops"] += 2 * x.shape[0] * n_in * n_out


def _count_lstm_forward(t, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    t.counts["numcore.RecurrentRegressor.forward.rows"] += 1 if np.ndim(x) == 2 else _rows(x)


def _count_lstm_backward(t, args, kwargs, result):
    t.counts["numcore.RecurrentRegressor.backward.rows"] += _rows(_arg(args, kwargs, 1, "dy"))


def _count_predict(t, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "window"))
    t.counts["bc.predict.rows"] += 1 if x.ndim == 1 else x.shape[0]


def _count_train_bc(t, args, kwargs, result):
    t.counts["bc.train_bc.epochs_run"] += len(result.history)


def _count_policy_update(t, args, kwargs, result):
    stats, _beta = result
    t.counts["gail.policy_update.retries"] += round(-math.log2(stats["lr_scale"]))


def _count_mmd_rbf(t, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 0, "x"), dtype=np.float64)
    y = np.asarray(_arg(args, kwargs, 1, "y"), dtype=np.float64)
    digest = hashlib.blake2b(digest_size=16)
    for a in (x, y):
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    t.mmd_inputs.add(digest.digest())
    bandwidth = kwargs.get("bandwidth", args[2] if len(args) > 2 else None)
    if bandwidth is None:
        pooled = len(x) + len(y)
        counts = t.counts
        counts["divergence.mmd_rbf.max_pooled_n"] = max(
            counts["divergence.mmd_rbf.max_pooled_n"], pooled)
        counts["divergence.mmd_rbf.pairwise_bytes"] = max(
            counts["divergence.mmd_rbf.pairwise_bytes"], 8 * pooled * pooled)


def _count_rbf_mmd2(t, args, kwargs, result):
    n = _rows(_arg(args, kwargs, 0, "x"))
    m = _rows(_arg(args, kwargs, 1, "y"))
    t.counts["kernels.rbf_mmd2_biased.gram_entries"] += n * n + m * m + n * m


COUNTERS = {
    "cohort.load_cohort": _count_load_cohort,
    "cohort.write_cohort": _count_write_cohort,
    "bc.build_dataset": _count_build_dataset,
    "numcore.Dense.forward": _count_dense_forward,
    "numcore.RecurrentRegressor.forward": _count_lstm_forward,
    "numcore.RecurrentRegressor.backward": _count_lstm_backward,
    "bc.predict": _count_predict,
    "bc.train_bc": _count_train_bc,
    "gail.policy_update": _count_policy_update,
    "divergence.mmd_rbf": _count_mmd_rbf,
    "kernels.rbf_mmd2_biased": _count_rbf_mmd2,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.stack = []  # [span id, ns covered by child spans] per open span
        self.calls = []
        self.incl_ns = []
        self.self_ns = []
        self.depth = []
        self.counts = defaultdict(int)
        self.mmd_inputs = set()
        self.sites = {}  # span name -> patched bindings
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        for table in (self.calls, self.incl_ns, self.self_ns, self.depth):
            table.append(0)
        counter = COUNTERS.get(name)
        stack, spans, ids, clock = self.stack, self.spans, self._ids, time.perf_counter_ns
        calls, incl_ns, self_ns, depth = self.calls, self.incl_ns, self.self_ns, self.depth

        def span(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            depth[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                dur = end - start
                spans.extend((sid, idx, parent, start, end))
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if depth[idx] == 0:
                    incl_ns[idx] += dur
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                # counting is tracing overhead: keep it out of the caller's self time
                c0 = clock()
                counter(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - c0
            return result

        return functools.update_wrapper(span, fn)

    def install(self) -> None:
        """Wrap every target at each binding in the loaded cfpolicy modules."""
        import cfpolicy  # noqa: F401  (loads every module the CLI reaches)
        import cfpolicy.cli  # noqa: F401

        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "cfpolicy" or key.startswith("cfpolicy.")) and m is not None]
        for layer, path in TARGETS:
            name = f"{layer}.{path}"
            owner = import_module(f"cfpolicy.{layer}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                self.sites[name] = [f"{cls.__module__}.{cls_name}"]
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name, orig)
            sites = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        sites.append(f"{module.__name__}.{attr}")
            self.sites[name] = sites

    def run(self, argv, out_path) -> int:
        """Call the (wrapped) ``cli.main`` and write the trace afterwards."""
        from cfpolicy import cli

        rc = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            finally:
                messages = [str(w.message) for w in caught]
                self.dump(out_path, messages)
        return rc

    def dump(self, out_path, messages) -> None:
        counts = dict(self.counts)
        counts["divergence.mmd_rbf.distinct_inputs"] = len(self.mmd_inputs)
        counts["divergence.mmd_bandwidth_fallbacks"] = sum(
            MMD_FALLBACK_WARNING in m for m in messages)
        record = {
            "names": self.names,
            "calls": self.calls,
            "s": [ns / 1e9 for ns in self.incl_ns],
            "self_s": [ns / 1e9 for ns in self.self_ns],
            "counts": counts,
            "warnings": messages,
            "sites": self.sites,
            "n_spans": len(self.spans) // 5,
        }
        with open(f"{out_path}.spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
