"""End-to-end command-line pipeline and exit-code contract."""

import copy
import json
import re
import shutil
import subprocess
import sys
import tempfile
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cfpolicy
from cfpolicy import cli, gail
from cfpolicy.cohort import assign_splits, load_cohort_dir, save_cohort_dir
from cfpolicy.errors import CfPolicyError, SchemaMismatchError, TrainingDivergenceError
from cfpolicy.numcore import load_checkpoint, save_checkpoint
from cfpolicy.synth import SynthConfig, generate, inject_missingness


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """Run synth -> preprocess -> train-bc -> counterfactual once."""
    root = tmp_path_factory.mktemp("pipeline")
    raw, proc = root / "raw", root / "proc"
    model = root / "bc.npz"
    cf = root / "cf"
    assert cli.main(["synth", "--n", "40", "--t", "20", "--features", "10",
                     "--delta", "0.5", "--seed", "5", "--out", str(raw)]) == 0
    assert cli.main(["preprocess", "--cohort", str(raw), "--seed", "5",
                     "--out", str(proc)]) == 0
    assert cli.main(["train-bc", "--cohort", str(proc), "--subgroup", "gender=M",
                     "--epochs", "3", "--max-windows", "400", "--seed", "0",
                     "--out", str(model)]) == 0
    assert cli.main(["counterfactual", "--model", str(model), "--cohort",
                     str(proc), "--target", "gender=F", "--per-timestep",
                     "--out", str(cf)]) == 0
    return {"raw": raw, "proc": proc, "model": model, "cf": cf}


def _assert_outputs_declared(command, out):
    """Every path under ``out`` is one ``cli.OUTPUTS[command]`` names."""
    declared = {Path(template.format(out)) for template in cli.OUTPUTS[command]}
    assert set(out.rglob("*")) <= declared


def test_synth_artifacts(pipeline_dirs):
    raw = pipeline_dirs["raw"]
    for name in ("cohort.csv", "schema.json", "ground_truth.json",
                 "run_config.json"):
        assert (raw / name).exists(), name
    _assert_outputs_declared("synth", raw)


def test_preprocess_artifacts(pipeline_dirs):
    proc = pipeline_dirs["proc"]
    for name in ("cohort.csv", "schema.json", "splits.json", "norm_stats.json",
                 "binning.json"):
        assert (proc / name).exists(), name
    _assert_outputs_declared("preprocess", proc)
    splits = json.loads((proc / "splits.json").read_text())
    assert set(splits.values()) == {"train", "val", "test"}


def test_train_bc_artifacts(pipeline_dirs):
    model = pipeline_dirs["model"]
    assert model.exists()
    metrics = json.loads(
        model.with_suffix(".npz.metrics.json").read_text())
    assert "macro_auroc" in metrics


def test_counterfactual_artifacts(pipeline_dirs):
    cf = pipeline_dirs["cf"]
    report = json.loads((cf / "report.json").read_text())
    assert report["target_subgroup"] == "gender=F"
    assert "kl" in report["metrics"] and "kl" in report["control"]
    assert (cf / "report.csv").exists()
    assert (cf / "mean_vaso.svg").exists()
    assert (cf / "metrics_per_timestep.svg").exists()


def test_eval_command(pipeline_dirs, capsys):
    code = cli.main(["eval", "--model", str(pipeline_dirs["model"]),
                     "--cohort", str(pipeline_dirs["proc"]), "--split", "val"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "classification"


def test_report_rerender(pipeline_dirs, tmp_path):
    out = tmp_path / "rerender"
    code = cli.main(["report", "--report",
                     str(pipeline_dirs["cf"] / "report.json"), "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()


def _svg_text(path) -> list:
    """The text of every ``text`` element of an SVG file, which must parse."""
    dom = xml.dom.minidom.parse(str(path))
    return [node.firstChild.data for node in dom.getElementsByTagName("text")]


def test_every_written_svg_parses_and_labels_are_escaped(pipeline_dirs, tmp_path):
    svgs = sorted(pipeline_dirs["cf"].glob("*.svg"))
    assert [p.name for p in svgs] == ["mean_fluid.svg", "mean_vaso.svg",
                                      "metrics_per_timestep.svg"]
    for path in svgs:
        _svg_text(path)
    # a subgroup label of a foreign attribute vocabulary may hold & < >
    report = json.loads((pipeline_dirs["cf"] / "report.json").read_text())
    report["mean_actions"] = {"A&B<C>" + k: v for k, v in report["mean_actions"].items()}
    (tmp_path / "report.json").write_text(json.dumps(report))
    out = tmp_path / "rendered"
    assert cli.main(["report", "--report", str(tmp_path / "report.json"),
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.svg")) == [p.name for p in svgs]
    for path in out.glob("*.svg"):
        _svg_text(path)
    labels = _svg_text(out / "mean_vaso.svg")
    assert [k for k in report["mean_actions"] if "vaso" in k] == \
        [t for t in labels if t.startswith("A&B<C>")]


def _run_twice(tmp_path, argv, side):
    """Run a training command twice with the same seed; both runs must write
    equal checkpoint arrays and metadata and the same ``side`` file bytes.
    Returns the first run's side file bytes."""
    runs = []
    for name in ("first.npz", "second.npz"):
        path = tmp_path / name
        assert cli.main(argv + ["--out", str(path)]) == 0
        runs.append((path.with_suffix(".npz" + side).read_bytes(),
                     load_checkpoint(path)))
    (side_a, (arrays_a, meta_a)), (side_b, (arrays_b, meta_b)) = runs
    assert side_a == side_b
    assert arrays_a.keys() == arrays_b.keys()
    assert all(arrays_a[k].tobytes() == arrays_b[k].tobytes() for k in arrays_a)
    assert meta_a == meta_b
    return side_a


def test_train_dyn_and_gail(pipeline_dirs, tmp_path):
    dyn = tmp_path / "dyn.npz"
    assert cli.main(["train-dyn", "--cohort", str(pipeline_dirs["proc"]),
                     "--epochs", "2", "--max-windows", "300", "--seed", "0",
                     "--out", str(dyn)]) == 0
    log = _run_twice(tmp_path, [
        "train-gail", "--cohort", str(pipeline_dirs["proc"]), "--dynamics", str(dyn),
        "--iterations", "3", "--episodes", "2", "--horizon", "5", "--seed", "0",
        "--convention", "gail-orig"], ".log.jsonl")
    assert len(log.splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["train-bc", "--mode", "classification", "--subgroup", "gender=M", "--epochs", "3",
     "--max-windows", "400"],
    ["train-bc", "--mode", "regression", "--epochs", "3", "--max-windows", "400"],
    ["train-dyn", "--epochs", "2", "--max-windows", "300"],
    ["synth", "--n", "30", "--t", "30", "--features", "12", "--delta", "0.5",
     "--missing-rate", "0.1"],
    ["counterfactual", "--target", "gender=F", "--per-timestep"]],
    ids=["bc-classification", "bc-regression", "dyn", "synth", "counterfactual"])
def test_same_seed_gives_same_bytes(pipeline_dirs, tmp_path, argv):
    if argv[0] == "synth":
        files = _out_dir_twice(tmp_path, argv + ["--seed", "3"])
        assert {"cohort.csv", "cohort.csv.npz", "ground_truth.json"} <= files.keys()
        assert b",," in files["cohort.csv"]  # the missing-rate mask took effect
    elif argv[0] == "counterfactual":
        files = _out_dir_twice(tmp_path, argv + [
            "--model", str(pipeline_dirs["model"]), "--cohort", str(pipeline_dirs["proc"]),
            "--seed", "3"])
        assert {"report.json", "report.csv", "metrics_per_timestep.svg"} <= files.keys()
    else:
        _run_twice(tmp_path, argv + ["--cohort", str(pipeline_dirs["proc"]),
                                     "--seed", "3"], ".metrics.json")


def _out_dir_twice(tmp_path, argv):
    """Run a command twice with the same seed into the same (emptied)
    directory; both runs must write the same files with the same bytes (npz
    members compared, since the zip headers carry write times). Returns the
    first run's files by name."""
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        shutil.rmtree(out, ignore_errors=True)
        assert cli.main(argv + ["--out", str(out)]) == 0
        files = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".npz":
                with np.load(path) as z:
                    files[path.name] = {k: z[k].tobytes() for k in z.files}
            else:
                files[path.name] = path.read_bytes()
        runs.append(files)
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("flag,value,message", [
    ("--delta", "nan", "disparity_delta must be finite"),
    ("--delta", "inf", "disparity_delta must be finite"),
    ("--missing-rate", "-0.5", "--missing-rate must be in [0, 1)"),
    ("--missing-rate", "nan", "--missing-rate must be in [0, 1)")])
def test_bad_synth_input_is_config_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "raw"
    assert cli.main(["synth", "--n", "5", "--t", "6", "--features", "8",
                     flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written


def _exit_code(argv) -> int:
    """``cli.main(argv)``'s exit code, also when argument parsing exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def dyn_model(pipeline_dirs, tmp_path_factory):
    path = tmp_path_factory.mktemp("dyn") / "dyn.npz"
    assert cli.main(["train-dyn", "--cohort", str(pipeline_dirs["proc"]), "--epochs", "1",
                     "--max-windows", "100", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command,option,value", [
    ("counterfactual", "--eps", "nan"),
    ("counterfactual", "--eps", "-0.5"),
    ("counterfactual", "--eps", "0"),
    ("counterfactual", "--eps", "inf"),
    ("train-bc", "--batch", "0"),
    ("train-bc", "--hidden", "64,0"),
    ("train-bc", "--max-windows", "0"),
    ("train-dyn", "--batch", "0"),
    ("train-dyn", "--hidden", "0"),
    ("train-dyn", "--max-windows", "-3"),
    ("train-gail", "--iterations", "0"),
    ("train-gail", "--horizon", "0"),
    ("train-gail", "--episodes", "0"),
    ("train-gail", "--batch", "0"),
    ("train-bc", "--lr", "nan"),
    ("train-dyn", "--lr", "0"),
    ("train-gail", "--lr", "inf"),
    ("train-gail", "--entropy-coef", "nan"),
    ("train-gail", "--entropy-coef", "inf"),
    ("train-gail", "--entropy-coef", "-1"),
    ("train-bc", "--epochs", "0"),
    ("train-bc", "--epochs", "-3"),
    ("train-bc", "--patience", "0"),
    ("train-bc", "--patience", "-5"),
    ("train-dyn", "--epochs", "0"),
    ("train-dyn", "--seed", "-1"),
    ("counterfactual", "--seed", "-1")])
def test_out_of_range_option_is_config_error(pipeline_dirs, dyn_model, tmp_path, capsys,
                                             command, option, value):
    out = tmp_path / "out"
    inputs = {"counterfactual": ["--model", str(pipeline_dirs["model"]), "--target", "gender=F"],
              "train-bc": ["--epochs", "1"], "train-dyn": ["--epochs", "1"],
              "train-gail": ["--dynamics", str(dyn_model), "--iterations", "1"]}[command]
    capsys.readouterr()
    # the option under test comes last, so it overrides any default above
    assert _exit_code([command] + inputs + [option] + value.split(",") + [
        "--cohort", str(pipeline_dirs["proc"]), "--out", str(out)]) == 2
    assert f"argument {option}: must be" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize("kind", ["no-meta", "truncated", "zip-magic", "text", "missing"])
def test_file_that_is_not_a_checkpoint_is_config_error(pipeline_dirs, tmp_path, capsys, kind):
    bad, proc = tmp_path / "bad.npz", str(pipeline_dirs["proc"])
    if kind == "no-meta":
        np.savez(bad, **{"arr.W": np.zeros(3)})
    elif kind == "truncated":
        bad.write_bytes(pipeline_dirs["model"].read_bytes()[:300])
    elif kind != "missing":
        bad.write_bytes(b"PK\x03\x04 not a zip" if kind == "zip-magic" else b"not a model")
    named = str(bad) if kind == "missing" else f"{bad} is not a checkpoint"
    for argv in (["eval", "--model", str(bad), "--cohort", proc],
                 ["counterfactual", "--model", str(bad), "--cohort", proc,
                  "--target", "gender=F", "--out", str(tmp_path / "cf")],
                 ["train-gail", "--cohort", proc, "--dynamics", str(bad),
                  "--out", str(tmp_path / "gail.npz")]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        assert named in capsys.readouterr().err, argv[0]
    assert not (tmp_path / "cf").exists() and not (tmp_path / "gail.npz").exists()


@pytest.mark.parametrize("kind", ["{}", "[]", "bc-metrics", "not-json", "metrics-list",
                                  "missing", "kl-nan", "kl-bool", "sample-sizes"])
def test_file_that_is_not_a_report_is_config_error(pipeline_dirs, tmp_path, capsys, kind):
    path, out = tmp_path / "report.json", tmp_path / "out"
    report = json.loads((pipeline_dirs["cf"] / "report.json").read_text())
    edits = {"metrics-list": {"metrics": []},  # every report key, one of the wrong type
             "kl-nan": {"metrics": {**report["metrics"], "kl": float("nan")}},
             "kl-bool": {"metrics": {**report["metrics"], "kl": True}},
             "sample-sizes": {"sample_sizes": {"a": "b"}}}
    if kind == "bc-metrics":
        shutil.copy(str(pipeline_dirs["model"]) + ".metrics.json", path)
    elif kind in edits:
        path.write_text(json.dumps({**report, **edits[kind]}), encoding="utf-8")
    elif kind != "missing":
        path.write_text("{" if kind == "not-json" else kind, encoding="utf-8")
    named = {"{}": f"{path}: source_subgroup: missing",
             "[]": f"{path}: expected an object, got a list",
             "bc-metrics": f"{path}: target_subgroup: missing",
             "not-json": f"{path}: not JSON",
             "metrics-list": f"{path}: metrics: expected an object, got a list",
             "missing": str(path),
             "kl-nan": f"{path}: metrics.kl: expected a finite number, got nan",
             "kl-bool": f"{path}: metrics.kl: expected a finite number, got True",
             "sample-sizes": f"{path}: sample_sizes.target: missing"}[kind]
    capsys.readouterr()
    assert cli.main(["report", "--report", str(path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()  # so no report.csv either


def test_package_import_loads_no_submodule():
    code = ("import sys, cfpolicy; "
            "print([m for m in sys.modules if m.startswith('cfpolicy.')])")
    src = str(Path(cfpolicy.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_eval_leaves_numpy_ma_unimported(pipeline_dirs):
    # numpy imports its numpy.ma submodule lazily, e.g. for np.unique; eval
    # needs none of it, and importing it costs each launch about 13 ms
    argv = ["eval", "--model", str(pipeline_dirs["model"]), "--cohort",
            str(pipeline_dirs["proc"]), "--split", "test"]
    code = (f"import sys; from cfpolicy import cli; code = cli.main({argv!r}); "
            "print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(cfpolicy.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _corrupt(src, dst, key, cut):
    """Copy a checkpoint, dropping array ``key`` (adding it if absent) or
    (``cut``) keeping only its first element."""
    arrays, meta = load_checkpoint(src)
    if cut:
        arrays[key] = arrays[key].reshape(-1)[:1]
    elif key in arrays:
        del arrays[key]
    else:
        arrays[key] = np.zeros(1)
    save_checkpoint(dst, arrays, meta)
    return dst


@pytest.mark.parametrize("key,cut", [("layer0.b", True), ("layer4.beta", False),
                                     ("layer9.W", False)])
def test_malformed_bc_checkpoint_is_config_error(pipeline_dirs, tmp_path, capsys,
                                                 key, cut):
    bad = _corrupt(pipeline_dirs["model"], tmp_path / "bad.npz", key, cut)
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(bad), "--cohort", str(pipeline_dirs["proc"]),
                     "--split", "val"]) == 2
    assert repr(key) in capsys.readouterr().err


def test_malformed_dynamics_and_gail_bundles_are_rejected(pipeline_dirs, tmp_path, capsys):
    proc = str(pipeline_dirs["proc"])
    dyn, bundle = tmp_path / "dyn.npz", tmp_path / "gail.npz"
    assert cli.main(["train-dyn", "--cohort", proc, "--epochs", "1",
                     "--max-windows", "100", "--out", str(dyn)]) == 0
    assert cli.main(["train-gail", "--cohort", proc, "--dynamics", str(dyn),
                     "--iterations", "1", "--episodes", "2", "--horizon", "3",
                     "--out", str(bundle)]) == 0
    bad_dyn = _corrupt(dyn, tmp_path / "bad_dyn.npz", "Wh", True)
    capsys.readouterr()
    assert cli.main(["train-gail", "--cohort", proc, "--dynamics", str(bad_dyn),
                     "--iterations", "1", "--out", str(tmp_path / "g.npz")]) == 2
    assert "'Wh'" in capsys.readouterr().err
    for key, cut in (("policy.layer0.W", True), ("disc.layer2.b", False)):
        with pytest.raises(SchemaMismatchError, match=key.split(".", 1)[1]):
            gail.load_gail(_corrupt(bundle, tmp_path / "bad_gail.npz", key, cut))
    arrays, meta = load_checkpoint(bundle)
    bad = tmp_path / "bad_meta.npz"
    for edit, named in (
            (_with(config={**meta["config"], "extra": 1}), "config.extra: unexpected key"),
            (_with(config={**meta["config"], "policy_hidden": "x"}),
             "config.policy_hidden: expected a list, got 'x'"),
            (_without("log"), "log: missing")):
        save_checkpoint(bad, arrays, edit(meta))
        with pytest.raises(CfPolicyError, match=re.escape(f"{bad}: {named}")):
            gail.load_gail(bad)


def test_subgroup_without_train_split_is_config_error(pipeline_dirs, tmp_path, capsys):
    proc = tmp_path / "proc"
    shutil.copytree(pipeline_dirs["proc"], proc)
    cohort = load_cohort_dir(proc)
    tags = np.where(cohort.attributes["gender"] == "F", "test", cohort.split)
    split = dict(zip(cohort.ids.tolist(), tags.tolist()))
    (proc / "splits.json").write_text(json.dumps(split), encoding="utf-8")
    dyn = tmp_path / "dyn.npz"
    assert cli.main(["train-dyn", "--cohort", str(proc), "--epochs", "1",
                     "--max-windows", "100", "--out", str(dyn)]) == 0
    capsys.readouterr()
    assert cli.main(["train-gail", "--cohort", str(proc), "--dynamics", str(dyn),
                     "--subgroup", "gender=F", "--iterations", "1",
                     "--out", str(tmp_path / "gail.npz")]) == 2
    assert "subgroup gender=F has no train-split trajectories" in capsys.readouterr().err


def test_empty_split_is_config_error(pipeline_dirs, tmp_path, capsys):
    # no val encounters at all, and no gender=M test encounters
    proc = tmp_path / "proc"
    shutil.copytree(pipeline_dirs["proc"], proc)
    cohort = load_cohort_dir(proc)
    tags = cohort.split.copy()
    tags[(tags == "val") | ((cohort.attributes["gender"] == "M") & (tags == "test"))] = "train"
    split = dict(zip(cohort.ids.tolist(), tags.tolist()))
    (proc / "splits.json").write_text(json.dumps(split), encoding="utf-8")
    capsys.readouterr()
    for argv, named in (
            (["train-bc", "--cohort", str(proc), "--subgroup", "gender=M", "--epochs", "1",
              "--out", str(tmp_path / "bc.npz")], "'val'"),
            (["eval", "--model", str(pipeline_dirs["model"]), "--cohort", str(proc),
              "--split", "test"], "'test'"),
            (["train-dyn", "--cohort", str(proc), "--epochs", "1",
              "--out", str(tmp_path / "dyn.npz")], "'val'")):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"split {named} has no" in err
        assert "need at least one array" not in err


def _drop_first(obj):
    return dict(list(obj.items())[1:])


def _retag_first(obj):
    return {**obj, next(iter(obj)): "foo"}


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _shorten(key):
    return lambda obj: {**obj, key: obj[key][:-1]}


def _with(**values):
    return lambda obj: {**obj, **values}


@pytest.mark.parametrize("name,edit,named", [
    pytest.param("splits.json", _drop_first, "{first}: missing",
                 id="splits.json-_drop_first-has no split"),
    pytest.param("splits.json", _retag_first,
                 "{first}: expected one of 'train', 'val', 'test', got 'foo'",
                 id="splits.json-_retag_first-has split 'foo'"),
    pytest.param("splits.json", lambda obj: list(obj.items()), "expected an object, got a list",
                 id="splits.json-<lambda>-expected an object"),
    pytest.param("splits.json", lambda obj: {**obj, "enc-extra": "train"},
                 "enc-extra: unexpected key",
                 id="splits.json-<lambda>-'enc-extra' is not an encounter"),
    pytest.param("norm_stats.json", _without("means"), "means: missing",
                 id="norm_stats.json-<lambda>-KeyError('means')"),
    pytest.param("norm_stats.json", _shorten("raw_means"), "raw_means: expected 10 items, got 9",
                 id="norm_stats.json-<lambda>-raw_means must hold 10 numbers"),
    pytest.param("norm_stats.json", _shorten("action_std"), "action_std: expected 2 items, got 1",
                 id="norm_stats.json-<lambda>-action_std must hold 2 numbers"),
    pytest.param("binning.json", _without("vaso_cutoffs"), "vaso_cutoffs: missing",
                 id="binning.json-<lambda>-KeyError('vaso_cutoffs')"),
    pytest.param("binning.json", _without("fluid_levels"), "fluid_levels: missing",
                 id="binning.json-<lambda>-fluid_levels must hold 5 numbers"),
    pytest.param("binning.json", _shorten("vaso_cutoffs"), "vaso_cutoffs: expected 3 items, got 2",
                 id="binning.json-<lambda>-vaso_cutoffs must hold 3 numbers"),
    pytest.param("schema.json", _without("attributes"), "attributes: missing",
                 id="schema.json-<lambda>-KeyError('attributes')"),
    pytest.param("schema.json", lambda obj: [obj], "expected an object, got a list",
                 id="schema.json-<lambda>-TypeError"),
    pytest.param("schema.json", lambda obj: {**obj, "features": obj["features"] * 2},
                 "feature names must be unique", id="schema.json-duplicate-feature")])
def test_malformed_sidecar_is_config_error(pipeline_dirs, tmp_path, capsys, name, edit, named):
    proc = tmp_path / "proc"
    shutil.copytree(pipeline_dirs["proc"], proc)
    obj = json.loads((proc / name).read_text(encoding="utf-8"))
    (proc / name).write_text(json.dumps(edit(obj)), encoding="utf-8")
    out = tmp_path / "bc.npz"
    capsys.readouterr()
    assert cli.main(["train-bc", "--cohort", str(proc), "--epochs", "1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{proc / name}: {named.format(first=next(iter(obj)))}" in err, err
    assert not out.exists()


def test_model_on_differently_preprocessed_cohort_is_config_error(pipeline_dirs, dyn_model,
                                                                   tmp_path, capsys):
    # the same raw cohort split with another seed: other train-split statistics
    proc = tmp_path / "proc"
    assert cli.main(["preprocess", "--cohort", str(pipeline_dirs["raw"]), "--seed", "6",
                     "--out", str(proc)]) == 0
    bc_model, out = str(pipeline_dirs["model"]), tmp_path / "out"
    for model, argv in ((bc_model, ["eval", "--model", bc_model, "--out", str(out / "eval.json")]),
                        (bc_model, ["counterfactual", "--model", bc_model, "--target", "gender=F",
                                    "--out", str(out)]),
                        (str(dyn_model), ["train-gail", "--dynamics", str(dyn_model),
                                          "--iterations", "1", "--out", str(out / "gail.npz")])):
        capsys.readouterr()
        assert cli.main(argv + ["--cohort", str(proc)]) == 2
        err = capsys.readouterr().err
        assert f"{model} was trained on a cohort preprocessed differently from {proc}" in err
        assert not out.exists()  # rejected before anything is written


def test_dynamics_checkpoint_without_preprocessing_is_config_error(pipeline_dirs, dyn_model,
                                                                   tmp_path, capsys):
    arrays, meta = load_checkpoint(dyn_model)
    old = tmp_path / "old_dyn.npz"
    save_checkpoint(old, arrays, {k: v for k, v in meta.items()
                                  if k not in ("norm_stats", "binning")})
    out = tmp_path / "gail.npz"
    capsys.readouterr()
    assert cli.main(["train-gail", "--cohort", str(pipeline_dirs["proc"]), "--dynamics",
                     str(old), "--iterations", "1", "--out", str(out)]) == 2
    assert f"{old}: norm_stats: missing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model,edit,command,named", [
    ("bc", _with(norm_stats={"means": []}), "counterfactual",
     "norm_stats.means: expected 10 items, got 0"),
    ("bc", _with(binning={"fluid_cutoffs": [1, 2, 3]}), "counterfactual",
     "binning.quantile_convention: missing"),
    ("bc", lambda m: {**m, "binning": _without("fluid_cutoffs")(m["binning"])}, "eval",
     "binning.fluid_cutoffs: missing"),
    ("bc", _with(norm_stats=None), "counterfactual", "norm_stats: expected an object, got None"),
    ("bc", _with(binning="x"), "counterfactual", "binning: expected an object, got 'x'"),
    ("bc", _with(source_subgroup=5), "eval", "source_subgroup: expected a list, got 5"),
    ("bc", _without("history"), "eval", "history: missing"),
    ("bc", _with(history=5), "counterfactual", "history: expected a list, got 5"),
    ("bc", _with(mode="bogus"), "eval",
     "mode: expected one of 'classification', 'regression', got 'bogus'"),
    ("bc", _with(mode="regression"), "counterfactual",
     "widths: a regression policy has 2 outputs, not 25"),
    ("bc", _with(n_features="x"), "eval", "n_features: expected an integer, got 'x'"),
    ("dyn", _with(norm_stats={"means": []}), "train-gail",
     "norm_stats.means: expected 10 items, got 0"),
    ("dyn", _without("history"), "train-gail", "history: missing"),
    ("dyn", _with(hidden="x"), "train-gail", "hidden: expected an integer, got 'x'")])
def test_malformed_checkpoint_metadata_is_config_error(pipeline_dirs, dyn_model, tmp_path, capsys,
                                                       model, edit, command, named):
    arrays, meta = load_checkpoint(pipeline_dirs["model"] if model == "bc" else dyn_model)
    bad, out = tmp_path / "bad.npz", tmp_path / "out"
    save_checkpoint(bad, arrays, edit(meta))
    argv = {"eval": ["eval", "--model", str(bad), "--out", str(out)],
            "counterfactual": ["counterfactual", "--model", str(bad), "--target", "gender=F",
                               "--out", str(out)],
            "train-gail": ["train-gail", "--dynamics", str(bad), "--iterations", "1",
                           "--out", str(out)]}[command]
    capsys.readouterr()
    assert cli.main(argv + ["--cohort", str(pipeline_dirs["proc"])]) == 2
    assert f"{bad}: {named}" in capsys.readouterr().err
    assert not out.exists()


def test_cohort_edited_after_preprocess_is_parsed_again(pipeline_dirs, tmp_path, capsys):
    # the edited CSV no longer matches the digest in its column companion
    proc = tmp_path / "proc"
    shutil.copytree(pipeline_dirs["proc"], proc)
    assert (proc / "cohort.csv.npz").exists()
    lines = (proc / "cohort.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[2].split(",")
    row[lines[0].split(",").index("gender")] = "X"
    lines[2] = ",".join(row)
    (proc / "cohort.csv").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["train-bc", "--cohort", str(proc), "--subgroup", "gender=M",
                     "--epochs", "1", "--out", str(tmp_path / "bc.npz")]) == 2
    assert "line 3: unknown value 'X' for attribute 'gender'" in capsys.readouterr().err


def test_overflowing_dose_column_is_config_error_at_preprocess(tmp_path, capsys):
    # finite doses whose std overflows: rejected before norm_stats.json is written
    raw, out = tmp_path / "raw", tmp_path / "proc"
    assert cli.main(["synth", "--n", "60", "--t", "12", "--features", "8", "--seed", "3",
                     "--out", str(raw)]) == 0
    cohort = load_cohort_dir(raw)
    block = cohort.block.copy()
    block[:, -2] *= 1e300  # action_fluid
    save_cohort_dir(replace(cohort, block=block), raw)
    capsys.readouterr()
    assert cli.main(["preprocess", "--cohort", str(raw), "--seed", "3", "--out", str(out)]) == 2
    assert ("column 'action_fluid': train-split mean or std is not finite"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("column,split,value,message", [
    ("mech_vent", None, 3.5, "binary column 'mech_vent' holds 3.5, not 0 or 1"),
    # log1p of a cell at or below -1 is -inf or NaN, in any split
    ("lactate", "test", -1.0, "log-normalized column 'lactate' holds -1.0, not above -1"),
    ("lactate", "test", -5.0, "log-normalized column 'lactate' holds -5.0, not above -1"),
    ("lactate", "train", -5.0, "column 'lactate': train-split mean or std is not finite"),
    # finite cells whose normalized value overflows
    ("temperature", "test", 1.7e308,
     "column 'temperature' holds 1.7e+308, not finite once normalized"),
    ("action_vaso", "val", 1.7e308,
     "column 'action_vaso' holds 1.7e+308, not finite once normalized"),
], ids=["binary", "log-minus-one", "log-below-minus-one", "log-train", "feature-overflow",
        "dose-overflow"])
def test_bad_cell_is_config_error_at_preprocess(tmp_path, capsys, column, split, value,
                                                message):
    raw, out = tmp_path / "raw", tmp_path / "proc"
    assert cli.main(["synth", "--n", "60", "--t", "12", "--features", "8", "--seed", "3",
                     "--out", str(raw)]) == 0
    cohort = load_cohort_dir(raw)
    j = [*cohort.schema.names, "action_fluid", "action_vaso"].index(column)
    # the last encounter, or the last of a split as ``preprocess --seed 3`` draws it
    e = -1 if split is None else np.flatnonzero(assign_splits(cohort, 3).split == split)[-1]
    block = cohort.block.copy()
    block[cohort.first[e], j] = value  # the encounter's first row
    save_cohort_dir(replace(cohort, block=block), raw)
    capsys.readouterr()
    assert cli.main(["preprocess", "--cohort", str(raw), "--seed", "3", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["eval", "--model", "{proc}", "--cohort", "{proc}"], "{proc}"),
    (["counterfactual", "--model", "{proc}", "--cohort", "{proc}", "--target", "gender=F",
      "--out", "{tmp}/cf"], "{proc}"),
    (["report", "--report", "{proc}", "--out", "{tmp}/report"], "{proc}"),
    (["train-gail", "--cohort", "{proc}", "--dynamics", "{proc}", "--out", "{tmp}/g.npz"],
     "{proc}"),
    (["train-dyn", "--cohort", "{model}", "--out", "{tmp}/d.npz"], "{model}"),
    (["preprocess", "--cohort", "{raw}/cohort.csv", "--out", "{tmp}/proc"],
     "{raw}/cohort.csv"),
], ids=["eval", "counterfactual", "report", "train-gail", "train-dyn", "preprocess"])
def test_input_path_of_the_wrong_kind_is_config_error(pipeline_dirs, tmp_path, capsys,
                                                      argv, named):
    # a directory where a file is expected, or a file given as a cohort directory
    paths = {name: str(pipeline_dirs[name]) for name in ("proc", "model", "raw")}
    assert cli.main([a.format(tmp=tmp_path, **paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named.format(**paths) in err
    assert list(tmp_path.iterdir()) == []


def test_missing_cohort_is_config_error(tmp_path):
    assert cli.main(["preprocess", "--cohort", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")]) == 2


def test_unpreprocessed_cohort_is_config_error(pipeline_dirs, tmp_path):
    assert cli.main(["train-bc", "--cohort", str(pipeline_dirs["raw"]),
                     "--out", str(tmp_path / "m.npz")]) == 2


def test_raw_cohort_written_over_a_preprocessed_one_is_not_preprocessed(tmp_path, capsys):
    # the raw cohort must not inherit the sidecars of the one it replaces
    d = tmp_path / "d"
    synth = ["synth", "--n", "40", "--t", "8", "--features", "8", "--out", str(d)]
    assert cli.main(synth + ["--seed", "1"]) == 0
    assert cli.main(["preprocess", "--cohort", str(d), "--seed", "1", "--out", str(d)]) == 0
    assert (d / "norm_stats.json").exists()
    assert cli.main(synth + ["--seed", "2"]) == 0
    for name in ("splits.json", "norm_stats.json", "binning.json"):
        assert not (d / name).exists(), name
    out = tmp_path / "m.npz"
    for argv in (["train-bc", "--mode", "classification"], ["train-bc", "--mode", "regression"],
                 ["train-dyn"]):
        capsys.readouterr()
        assert cli.main(argv + ["--cohort", str(d), "--epochs", "1", "--out", str(out)]) == 2
        assert "run `preprocess` first" in capsys.readouterr().err
        assert not out.exists()


def test_cohort_without_action_bins_is_not_preprocessed(pipeline_dirs, tmp_path, capsys):
    # every sidecar present, but the CSV has no action_bin column
    cohort = load_cohort_dir(pipeline_dirs["proc"])
    d = tmp_path / "proc"
    save_cohort_dir(replace(cohort, binned=np.zeros(len(cohort), bool)), d)
    assert (d / "binning.json").exists()
    assert "action_bin" not in (d / "cohort.csv").read_text(encoding="utf-8").splitlines()[0]
    out = tmp_path / "m.npz"
    capsys.readouterr()
    assert cli.main(["train-bc", "--cohort", str(d), "--epochs", "1", "--out", str(out)]) == 2
    assert "run `preprocess` first" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,case", [
    (command, case) for command in cli.OUTPUTS for case in ("taken", "under-a-file")] + [
    (command, "beside") for command in ("train-bc", "train-dyn", "train-gail")] + [
    (command, "inside") for command in ("synth", "preprocess", "counterfactual", "report")])
def test_unwritable_out_is_config_error(pipeline_dirs, dyn_model, tmp_path, capsys,
                                        command, case):
    proc = str(pipeline_dirs["proc"])
    inputs = {"synth": ["--n", "10", "--t", "5"],
              "preprocess": ["--cohort", str(pipeline_dirs["raw"])],
              "train-bc": ["--cohort", proc, "--epochs", "1"],
              "train-dyn": ["--cohort", proc, "--epochs", "1"],
              "train-gail": ["--cohort", proc, "--dynamics", str(dyn_model),
                             "--iterations", "1"],
              "eval": ["--cohort", proc, "--model", str(pipeline_dirs["model"])],
              "counterfactual": ["--cohort", proc, "--model", str(pipeline_dirs["model"]),
                                 "--target", "gender=F"],
              "report": ["--report", str(pipeline_dirs["cf"] / "report.json")]}[command]
    blocker = tmp_path / "blocker"
    out = {"taken": blocker, "under-a-file": blocker / "sub" / "out",
           "beside": tmp_path / "m.npz", "inside": tmp_path / "out"}[case]
    if case == "beside":  # a directory where the command writes a file beside --out
        Path(cli.OUTPUTS[command][1].format(out)).mkdir()
    elif case == "inside":  # a directory at a file written inside --out after others
        inside = {"synth": "schema.json", "preprocess": "binning.json",
                  "counterfactual": "report.csv", "report": "metrics_per_timestep.svg"}
        (out / inside[command]).mkdir(parents=True)
    elif case == "taken" and not cli.OUTPUTS[command][0].endswith("/"):
        blocker.mkdir()  # a directory where the command writes a file
    else:
        blocker.write_text("x", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main([command] + inputs + ["--out", str(out)]) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no output, config or metrics file


def test_bad_subgroup_is_config_error(pipeline_dirs, tmp_path):
    assert cli.main(["train-bc", "--cohort", str(pipeline_dirs["proc"]),
                     "--subgroup", "nonsense", "--out",
                     str(tmp_path / "m.npz")]) == 2


def test_self_target_requires_allow_self(pipeline_dirs, tmp_path):
    args = ["counterfactual", "--model", str(pipeline_dirs["model"]),
            "--cohort", str(pipeline_dirs["proc"]), "--target", "gender=M",
            "--out", str(tmp_path / "cf_self")]
    assert cli.main(args) == 2
    assert cli.main(args + ["--allow-self"]) == 0


def test_numeric_failure_maps_to_exit_3(pipeline_dirs, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise TrainingDivergenceError("synthetic divergence")

    monkeypatch.setattr(cli.dynamics, "train_dynamics", boom)
    assert cli.main(["train-dyn", "--cohort", str(pipeline_dirs["proc"]),
                     "--out", str(tmp_path / "d.npz")]) == 3


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("CFPOLICY_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["preprocess", "--cohort", "x", "--out", "y"])
    # parser defaults are bound at build time, so rebuild after setting the env
    assert args.seed == 123 or cli._default_seed() == 123


def test_default_seed_reads_environment(monkeypatch):
    monkeypatch.delenv("CFPOLICY_SEED", raising=False)
    assert cli._default_seed() == 0
    monkeypatch.setenv("CFPOLICY_SEED", "77")
    assert cli._default_seed() == 77


@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
@pytest.mark.parametrize("command", ["synth", "preprocess", "train-bc", "train-dyn",
                                     "train-gail", "counterfactual"])
def test_bad_seed_environment_is_config_error(pipeline_dirs, dyn_model, tmp_path, capsys,
                                              monkeypatch, command, value):
    out = tmp_path / "out"
    proc = str(pipeline_dirs["proc"])
    inputs = {"synth": ["--n", "10", "--t", "5"],
              "preprocess": ["--cohort", str(pipeline_dirs["raw"])],
              "train-bc": ["--cohort", proc, "--epochs", "1"],
              "train-dyn": ["--cohort", proc, "--epochs", "1"],
              "train-gail": ["--cohort", proc, "--dynamics", str(dyn_model),
                             "--iterations", "1"],
              "counterfactual": ["--cohort", proc, "--model", str(pipeline_dirs["model"]),
                                 "--target", "gender=F"]}[command]
    monkeypatch.setenv("CFPOLICY_SEED", value)
    capsys.readouterr()
    assert _exit_code([command] + inputs + ["--out", str(out)]) == 2
    assert "CFPOLICY_SEED must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()  # rejected before anything is written
    # an explicit --seed is used instead of the variable
    assert _exit_code([command] + inputs + ["--out", str(out), "--seed", "3"]) == 0


def test_commands_without_seed_ignore_seed_environment(pipeline_dirs, tmp_path, monkeypatch):
    monkeypatch.setenv("CFPOLICY_SEED", "abc")
    assert cli.main(["eval", "--model", str(pipeline_dirs["model"]), "--cohort",
                     str(pipeline_dirs["proc"]), "--out", str(tmp_path / "eval.json")]) == 0
    assert cli.main(["report", "--report", str(pipeline_dirs["cf"] / "report.json"),
                     "--out", str(tmp_path / "report")]) == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(1, 8), min_size=40, max_size=40), st.integers(0, 999))
@example([1] * 40, 0)
@example([1, 2] * 20, 1)
@example([1] * 40, 253)  # the gender=M val split holds one action class
@example([1] * 40, 105)  # no gender=F encounter is in the test split
def test_ragged_cohort_runs_through_every_command(tmp_path, capsys, lengths, seed):
    # encounters of 1..8 steps with missing cells, written as a raw cohort
    cohort, _ = generate(SynthConfig(n_patients=40, T=8, n_features=8, seed=seed,
                                     disparity_delta=0.5, onset_t=2))
    lengths = np.array(lengths, dtype=np.int64)  # rows left out between encounters
    ragged = replace(cohort, lengths=lengths, mortality_step=np.where(
        cohort.mortality_step < lengths, cohort.mortality_step, -1))
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    save_cohort_dir(inject_missingness(ragged, 0.2, seed), root / "raw")
    proc, bc_model = root / "proc", root / "bc.npz"
    commands = (
        ["preprocess", "--cohort", str(root / "raw"), "--seed", str(seed), "--out", str(proc)],
        ["train-bc", "--cohort", str(proc), "--subgroup", "gender=M", "--epochs", "1",
         "--out", str(bc_model)],
        ["train-dyn", "--cohort", str(proc), "--epochs", "1", "--out", str(root / "dyn.npz")],
        ["counterfactual", "--model", str(bc_model), "--cohort", str(proc),
         "--target", "gender=F", "--per-timestep", "--out", str(root / "cf")])
    capsys.readouterr()
    for argv in commands:
        if argv[0] == "counterfactual" and not bc_model.exists():
            continue
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and "has no" in err), (argv[0], code, err)
        if argv[0] == "train-bc" and code == 0:
            metrics = json.loads(Path(str(bc_model) + ".metrics.json").read_text())
            if metrics["macro_auroc"] is None:
                # a val split of one action class: reported by train-bc, an
                # error for eval
                assert metrics["macro_auroc_undefined"] == \
                    "split has fewer than 2 distinct labels"
                assert cli.main(["eval", "--model", str(bc_model), "--cohort", str(proc),
                                 "--split", "val"]) == 2
                assert "2 distinct labels" in capsys.readouterr().err


def _edit_json(obj, edit, path, choice):
    """A copy of the JSON object ``obj`` with one ``edit`` at the key path
    that the indices ``path`` pick, one container level per index."""
    obj = copy.deepcopy(obj)
    if edit == "identity":
        return obj

    def pick(container, i):
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        return keys[i % len(keys)]

    container, key = obj, pick(obj, path[0])
    for i in path[1:]:
        if not isinstance(container[key], (dict, list)) or not container[key]:
            break
        container, key = container[key], pick(container[key], i)
    value = container[key]
    if edit == "drop":  # a missing key, or a list one item shorter
        del container[key]
    elif edit == "grow" and isinstance(value, list) and value:
        value.append(value[-1])
    elif edit == "grow" and isinstance(container, list):
        container.append(value)
    elif edit == "retype":
        others = [v for v in (None, True, 5, 2.5, "x", [], {}) if type(v) is not type(value)]
        container[key] = others[choice % len(others)]
    elif edit == "nonfinite":
        container[key] = (float("nan"), float("inf"), float("-inf"))[choice % 3]
    elif edit == "outside":  # no allowed value
        container[key] = "bogus"
    return obj


@pytest.mark.parametrize("target", ["schema.json", "splits.json", "norm_stats.json",
                                    "binning.json", "bc.npz", "dyn.npz", "report.json"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edit=st.sampled_from(["identity", "drop", "grow", "retype", "nonfinite", "outside",
                             "truncate"]),
       path=st.lists(st.integers(0, 99), min_size=1, max_size=4), choice=st.integers(0, 99))
@example(edit="identity", path=[0], choice=0)
def test_edited_input_file_runs_or_is_config_error(pipeline_dirs, dyn_model, tmp_path, capsys,
                                                   target, edit, path, choice):
    # one edit of one file a command reads; it runs, or exits 2 writing nothing
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    proc, out, edited = pipeline_dirs["proc"], root / "out", root / target
    if target.endswith(".npz"):
        src = pipeline_dirs["model"] if target == "bc.npz" else dyn_model
        arrays, meta = load_checkpoint(src)
        if edit == "truncate":
            _corrupt(src, edited, sorted(arrays)[choice % len(arrays)], True)
        else:
            save_checkpoint(edited, arrays, _edit_json(meta, edit, path, choice))
    else:
        src = pipeline_dirs["cf"] / target
        if target != "report.json":  # a sidecar: edit it in a copy of the cohort directory
            proc = root / "proc"
            shutil.copytree(pipeline_dirs["proc"], proc)
            src = edited = proc / target
        text = src.read_text(encoding="utf-8")
        edited.write_text(text[:len(text) // 2] if edit == "truncate" else
                          json.dumps(_edit_json(json.loads(text), edit, path, choice)),
                          encoding="utf-8")
    commands = {
        "bc.npz": [["eval", "--model", str(edited), "--cohort", str(proc),
                    "--out", str(out / "e.json")],
                   ["counterfactual", "--model", str(edited), "--cohort", str(proc),
                    "--target", "gender=F", "--out", str(out / "cf")]],
        "dyn.npz": [["train-gail", "--dynamics", str(edited), "--cohort", str(proc),
                     "--iterations", "1", "--episodes", "2", "--horizon", "3",
                     "--out", str(out / "g.npz")]],
        "report.json": [["report", "--report", str(edited), "--out", str(out / "report")]],
    }.get(target, [["train-bc", "--cohort", str(proc), "--epochs", "1", "--max-windows", "100",
                    "--out", str(out / "bc.npz")]])
    for argv in commands:
        before = sorted(root.rglob("*"))
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in ((0,) if edit == "identity" else (0, 2)), (argv[0], code, err)
        if code == 2:
            assert sorted(root.rglob("*")) == before, (argv[0], err)
