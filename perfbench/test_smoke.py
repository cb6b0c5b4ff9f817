"""Tests of the benchmark itself, at its smoke scale.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in run.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[w, trace] = (lines, json.loads(lines[-1]))
    return out


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    for m in SPEC["per_layer"]:
        higher = m["name"].rsplit(".", 1)[1] in run.HIGHER_IS_BETTER
        assert m["better"] == ("higher" if higher else "lower"), m["name"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, trace, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for w in run.WORKLOADS:
        _, result = results[w, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want, w


def test_no_command_fails(results):
    for (w, trace), (lines, result) in results.items():
        assert result["correct"], [line for line in lines if "FAILED" in line]
        assert result["failed"] == 0 and result["attempted"] >= 1, (w, trace)
        if trace == 0:
            assert result["metrics"]["ok_frac"]["value"] == 1.0
            assert result["metrics"]["wall_s"]["value"] > 0
            assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_covers_every_wrapped_function(results):
    called = set()
    for w in run.WORKLOADS:
        lines, _ = results[w, 1]
        line = next(x for x in lines if x.startswith("# trace-spans "))
        spans = json.loads(line[len("# trace-spans "):])
        called |= {name for name, calls in spans.items() if calls > 0}
    assert {f"{layer}.{path}" for layer, path in tracer.TARGETS} <= called


def test_spans_nest_and_every_import_site_is_patched(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), "--stamp", str(tmp_path / "stamp"),
         "--trace", str(trace), "--", "--threads", "1", "synth", "--n", "6", "--t", "5",
         "--features", "10", "--missing-rate", "0.2", "--seed", "1", "--out", "raw"],
        cwd=tmp_path, env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(trace.read_text())
    table = array("q")
    table.frombytes((tmp_path / "trace.json.spans").read_bytes())
    spans = {table[i]: table[i + 1:i + 5] for i in range(0, len(table), 5)}
    assert len(spans) == record["n_spans"] > 0
    roots = [s for s in spans.values() if s[1] == -1]
    assert [record["names"][s[0]] for s in roots] == ["cli.main"]
    for name_idx, parent, start, end in spans.values():
        assert start <= end and 0 <= name_idx < len(record["names"])
        if parent != -1:
            p_start, p_end = spans[parent][2], spans[parent][3]
            assert p_start <= start and end <= p_end
    sites = record["sites"]
    assert "cfpolicy.divergence.rbf_mmd2_biased" in sites["kernels.rbf_mmd2_biased"]
    assert "cfpolicy.gail.rollout" in sites["dynamics.rollout"]
    assert "cfpolicy.gail.state_window" in sites["dynamics.state_window"]
    assert "cfpolicy.divergence.predict" in sites["bc.predict"]
    assert "cfpolicy.cli.load_cohort_dir" in sites["cohort.load_cohort_dir"]
    assert "cfpolicy.cli.save_cohort_dir" in sites["cohort.save_cohort_dir"]
    assert record["counts"]["cohort.rows_written"] == 6 * 5


def test_digest_store_is_keyed_by_the_program_sources(tmp_path, monkeypatch):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "SRC", src)
    before = run.source_digest()
    (src / "pkg" / "mod.py").write_text("x = 2\n")
    after = run.source_digest()
    assert before != after

    def outcomes(digest):
        return [[run.Outcome("eval", 1.0, 0.1, 10.0, digest=digest)]]

    store = tmp_path / "store"
    assert run.check_digests(outcomes("a"), store, {"src": before}) == []
    assert run.check_digests(outcomes("b"), store, {"src": after}) == []
    assert run.check_digests(outcomes("b"), store, {"src": before})


def test_times_are_scaled_by_the_probed_host_slowdown():
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.PROBE_INTERVAL_S)
    assert len(probe.times) >= 2 and probe.slowdown() > 0
    o = run.Outcome("eval", 3.0, 0.3, 10.0, slowdown=1.5)
    assert o.ref_wall_s == pytest.approx(2.0) and o.ref_startup_s == pytest.approx(0.2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("bc_train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
