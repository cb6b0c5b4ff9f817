"""Cohort data model, CSV round-trip, splitting, and subgroup filtering."""

import csv
import json
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfpolicy import cli
from cfpolicy import cohort as cohort_module
from cfpolicy.cohort import (SPLIT_TAGS, CohortDataset, FeatureSchema, PatientTrajectory,
                             SubgroupKey, assign_splits, filter_subgroup,
                             load_cohort, load_cohort_dir, save_cohort_dir,
                             write_cohort)
from cfpolicy.errors import (CfPolicyError, EmptySubgroupError, IntegrityError, ParseError,
                             check)
from cfpolicy.preprocess import preprocess_cohort
from cfpolicy.synth import SynthConfig, generate, inject_missingness

SCHEMA = FeatureSchema(
    names=("hr", "lact"), kinds=("vital", "lab"), log_normalized=(False, True),
    attributes={"gender": ("M", "F")})
HEADER = "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"


# Reference: the row-by-row parser and writer that load_cohort and
# write_cohort replaced. The columnar versions must give the same
# trajectories, bytes and first error on every input these accept.

def _reference_parse_float(cell: str, line_no: int, col: str) -> float:
    if cell == "":
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        raise ParseError(line_no, f"column {col!r}: not a number: {cell!r}") from None


def reference_load_cohort(path, schema: FeatureSchema,
                          allow_negative_actions: bool = False) -> CohortDataset:
    """Parse a cohort CSV into grouped, timestep-sorted trajectories.

    Each encounter's timesteps must run 0..T-1 without gaps, in any row
    order. Raw doses must be nonnegative; pass
    ``allow_negative_actions=True`` for cohorts whose actions were already
    z-normalized.
    """
    path = Path(path)
    attrs = list(schema.attributes)
    feat_cols = list(schema.names)
    expected = ["id", "timestep"] + attrs + feat_cols + [
        "action_fluid", "action_vaso", "mortality_step", "outcome_alive"]

    rows = {}  # id -> {t: (attr dict, state vec, action pair, mort, alive, bin, line)}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "empty file")
        header = [h.strip() for h in header]
        has_bin = "action_bin" in header
        want = expected + (["action_bin"] if has_bin else [])
        if header != want:
            raise ParseError(1, f"header mismatch: expected {want}, got {header}")
        col = {name: i for i, name in enumerate(header)}

        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, got {len(row)}")
            tid = row[col["id"]]
            try:
                t = int(row[col["timestep"]])
            except ValueError:
                raise ParseError(line_no, f"bad timestep {row[col['timestep']]!r}") from None
            attr_vals = {}
            for a in attrs:
                v = row[col[a]]
                if v not in schema.attributes[a]:
                    raise IntegrityError(
                        f"line {line_no}: unknown value {v!r} for attribute {a!r}")
                attr_vals[a] = v
            state = np.array(
                [_reference_parse_float(row[col[f]], line_no, f) for f in feat_cols])
            action = np.array([
                _reference_parse_float(row[col["action_fluid"]], line_no, "action_fluid"),
                _reference_parse_float(row[col["action_vaso"]], line_no, "action_vaso"),
            ])
            if np.any(np.isnan(action)):
                raise ParseError(line_no, "actions may not be missing")
            if not allow_negative_actions and np.any(action < 0):
                raise IntegrityError(f"line {line_no}: negative dose")
            ms_cell = row[col["mortality_step"]]
            mort = None if ms_cell == "" else int(ms_cell)
            alive = row[col["outcome_alive"]] in ("1", "true", "True")
            abin = int(row[col["action_bin"]]) if has_bin and row[col["action_bin"]] != "" else None
            per = rows.setdefault(tid, {})
            if t in per:
                raise IntegrityError(f"duplicate (id={tid}, timestep={t})")
            per[t] = (attr_vals, state, action, mort, alive, abin, line_no)

    trajectories = []
    for tid, per in rows.items():
        ts = sorted(per)
        gap = next((k for k, t in enumerate(ts) if t != k), None)
        if gap is not None:
            raise ParseError(per[ts[gap]][6],
                             f"trajectory {tid}: expected timestep {gap}, got {ts[gap]}")
        attrs0 = per[ts[0]][0]
        states = np.stack([per[t][1] for t in ts])
        actions = np.stack([per[t][2] for t in ts])
        morts = {per[t][3] for t in ts}
        alives = {per[t][4] for t in ts}
        if len(alives) != 1 or len(morts) != 1:
            raise IntegrityError(f"trajectory {tid}: inconsistent outcome columns")
        bins = [per[t][5] for t in ts]
        action_bins = np.array(bins, dtype=np.int64) if all(b is not None for b in bins) else None
        trajectories.append(PatientTrajectory(
            id=tid, attributes=attrs0, states=states, actions=actions,
            mortality_step=morts.pop(), outcome_alive=alives.pop(),
            action_bins=action_bins))
    return CohortDataset.from_trajectories(schema, trajectories)


def reference_write_cohort(cohort: CohortDataset, path) -> None:
    """Emit the cohort CSV; inverse of ``load_cohort`` (bit-exact round trip)."""
    path = Path(path)
    attrs = list(cohort.schema.attributes)
    has_bins = all(tr.action_bins is not None for tr in cohort.trajectories)
    header = (["id", "timestep"] + attrs + list(cohort.schema.names)
              + ["action_fluid", "action_vaso", "mortality_step", "outcome_alive"]
              + (["action_bin"] if has_bins else []))

    def fmt(x: float) -> str:
        return "" if np.isnan(x) else repr(float(x))

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tr in cohort.trajectories:
            for t in range(tr.T):
                row = [tr.id, str(t)]
                row += [tr.attributes[a] for a in attrs]
                row += [fmt(v) for v in tr.states[t]]
                row += [fmt(tr.actions[t, 0]), fmt(tr.actions[t, 1])]
                row.append("" if tr.mortality_step is None else str(tr.mortality_step))
                row.append("1" if tr.outcome_alive else "0")
                if has_bins:
                    row.append(str(int(tr.action_bins[t])))
                writer.writerow(row)



def _traj(tid="a", gender="M", T=3):
    rng = np.random.default_rng(hash(tid) % 2**32)
    return PatientTrajectory(
        id=tid, attributes={"gender": gender},
        states=rng.normal(size=(T, 2)), actions=np.abs(rng.normal(size=(T, 2))))


def test_schema_json_round_trip():
    assert FeatureSchema.from_json(SCHEMA.to_json()) == SCHEMA


def test_schema_rejects_duplicates_and_bad_kinds():
    with pytest.raises(IntegrityError):
        FeatureSchema(names=("a", "a"), kinds=("vital", "vital"),
                      log_normalized=(False, False), attributes={})
    with pytest.raises(IntegrityError):
        FeatureSchema(names=("a",), kinds=("nonsense",),
                      log_normalized=(False,), attributes={})


def test_csv_round_trip_bit_exact(tmp_path):
    t1 = _traj("a")
    t1.states[1, 0] = np.nan  # missing cell survives the trip
    t2 = _traj("b", gender="F", T=4)
    t2.outcome_alive = False
    t2.mortality_step = 2
    cohort = CohortDataset.from_trajectories(SCHEMA, [t1, t2])
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    back = load_cohort(path, SCHEMA)
    orig = {tr.id: tr for tr in cohort.trajectories}
    for tr in back.trajectories:
        ref = orig[tr.id]
        assert np.array_equal(tr.states, ref.states, equal_nan=True)
        assert np.array_equal(tr.actions, ref.actions)
        assert tr.attributes == ref.attributes
        assert tr.mortality_step == ref.mortality_step
        assert tr.outcome_alive == ref.outcome_alive


def test_cohort_dir_round_trip(tmp_path, proc_cohort):
    save_cohort_dir(proc_cohort, tmp_path)
    # preprocessed artifacts are separate files written by the CLI; here we
    # only require csv + schema + splits to reload
    back = load_cohort_dir(tmp_path)
    assert back.split.dtype == object and back.split.tolist() == proc_cohort.split.tolist()
    assert len(back) == len(proc_cohort)
    # splits.json goes through save -> load -> save with the same bytes
    save_cohort_dir(back, tmp_path / "again")
    assert ((tmp_path / "again" / "splits.json").read_bytes()
            == (tmp_path / "splits.json").read_bytes())


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
        "a,0,M,70,1.0,10,0.1,,1\n"
        "a,1,M,not_a_number,1.0,10,0.1,,1\n")
    with pytest.raises(ParseError) as exc:
        load_cohort(path, SCHEMA)
    assert exc.value.line_no == 3


def test_missing_action_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
        "a,0,M,70,1.0,,0.1,,1\n")
    with pytest.raises(ParseError):
        load_cohort(path, SCHEMA)


def test_duplicate_timestep_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
        "a,0,M,70,1.0,10,0.1,,1\n"
        "a,0,M,71,1.0,10,0.1,,1\n")
    with pytest.raises(IntegrityError, match="duplicate"):
        load_cohort(path, SCHEMA)


def test_timestep_gap_is_parse_error(tmp_path):
    header = "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
    path = tmp_path / "gap.csv"
    path.write_text(header + "".join(
        f"a,{t},M,70,1.0,10,0.1,,1\n" for t in (0, 1, 3, 4)))
    with pytest.raises(ParseError, match="expected timestep 2, got 3") as exc:
        load_cohort(path, SCHEMA)
    assert exc.value.line_no == 4  # the first row after the gap
    # an encounter that does not start at timestep 0 has a gap at its first row
    path.write_text(header + "a,1,M,70,1.0,10,0.1,,1\na,0,M,70,1.0,10,0.1,,1\n"
                    "b,2,F,70,1.0,10,0.1,,1\n")
    with pytest.raises(ParseError, match="expected timestep 0, got 2") as exc:
        load_cohort(path, SCHEMA)
    assert exc.value.line_no == 4


def test_unknown_attribute_value_rejected(tmp_path):
    path = tmp_path / "attr.csv"
    path.write_text(
        "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
        "a,0,X,70,1.0,10,0.1,,1\n")
    with pytest.raises(IntegrityError, match="unknown value"):
        load_cohort(path, SCHEMA)


def test_negative_dose_rejected(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "id,timestep,gender,hr,lact,action_fluid,action_vaso,mortality_step,outcome_alive\n"
        "a,0,M,70,1.0,-5,0.1,,1\n")
    with pytest.raises(IntegrityError, match="negative"):
        load_cohort(path, SCHEMA)


def test_mortality_step_requires_death():
    with pytest.raises(IntegrityError):
        PatientTrajectory(id="x", attributes={}, states=np.zeros((3, 2)),
                          actions=np.zeros((3, 2)), mortality_step=1,
                          outcome_alive=True)


def test_assign_splits_proportions_and_determinism():
    cohort = CohortDataset.from_trajectories(SCHEMA, [_traj(f"t{i}") for i in range(100)])
    a = assign_splits(cohort, seed=5)
    b = assign_splits(cohort, seed=5)
    assert a.split.tolist() == b.split.tolist()
    counts = {tag: len(a.split_of(tag)) for tag in ("train", "val", "test")}
    assert counts == {"train": 60, "val": 20, "test": 20}
    c = assign_splits(cohort, seed=6)
    assert c.split.tolist() != a.split.tolist()  # different seed shuffles differently
    with pytest.raises(ValueError, match="unknown split tag 'Train'"):
        a.split_of("Train")
    with pytest.raises(IntegrityError, match="cohort has no split assignment"):
        cohort.split_of("train")


def test_filter_subgroup(small_cohort):
    men = filter_subgroup(small_cohort, SubgroupKey("gender", "M"))
    assert all(tr.attributes["gender"] == "M" for tr in men.trajectories)
    is_man = small_cohort.attributes["gender"] == "M"
    assert men.split.tolist() == small_cohort.split[is_man].tolist()
    with pytest.raises(EmptySubgroupError):
        filter_subgroup(small_cohort, SubgroupKey("gender", "nobody"))
    with pytest.raises(IntegrityError):
        filter_subgroup(small_cohort, SubgroupKey("species", "M"))


def test_subgroup_key_parse():
    key = SubgroupKey.parse(" gender = F ")
    assert key == SubgroupKey("gender", "F")
    assert str(key) == "gender=F"
    with pytest.raises(ValueError):
        SubgroupKey.parse("genderF")


def test_infinite_cells_rejected(tmp_path):
    raw = tmp_path / "raw"
    assert cli.main(["synth", "--n", "40", "--t", "8", "--features", "8",
                     "--seed", "1", "--out", str(raw)]) == 0
    lines = (raw / "cohort.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].strip().split(",")
    for column in ("action_fluid", "heart_rate"):
        bad = tmp_path / column
        bad.mkdir()
        (bad / "schema.json").write_text((raw / "schema.json").read_text())
        row = lines[3].split(",")
        row[header.index(column)] = "-inf" if column == "heart_rate" else "inf"
        (bad / "cohort.csv").write_text("".join(lines[:3] + [",".join(row)] + lines[4:]),
                                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"column '{column}': not finite") as exc:
            load_cohort_dir(bad)
        assert exc.value.line_no == 4
        assert cli.main(["preprocess", "--cohort", str(bad),
                         "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("column, cell", [
    ("timestep", "1.0"), ("mortality_step", "x"), ("mortality_step", "1.5"),
    ("outcome_alive", "yes"), ("outcome_alive", ""), ("action_bin", "b"),
    ("action_bin", "25"), ("action_bin", "-3")])
def test_malformed_int_and_flag_cells_are_parse_errors(tmp_path, column, cell):
    path = tmp_path / "bad.csv"
    header = HEADER.strip().split(",") + ["action_bin"]
    row = ["a", "1", "M", "70", "1.0", "10", "0.1", "", "1", "3"]
    row[header.index(column)] = cell
    path.write_text(",".join(header) + "\n" + "a,0,M,70,1.0,10,0.1,,1,3\n"
                    + ",".join(row) + "\n")
    with pytest.raises(ParseError, match=f"bad {column} '{cell}'") as exc:
        load_cohort(path, SCHEMA)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("bad_bin", [25, -3])
def test_out_of_range_bin_in_companion_is_parse_error(tmp_path, monkeypatch, bad_bin):
    traj = PatientTrajectory(
        id="a", attributes={"gender": "M"}, states=np.ones((2, 2)), actions=np.ones((2, 2)),
        mortality_step=None, outcome_alive=True, action_bins=np.array([3, bad_bin]))
    path = tmp_path / "c.csv"
    write_cohort(CohortDataset.from_trajectories(SCHEMA, [traj]), path)
    monkeypatch.setattr(cohort_module, "_parse_csv", _no_text_parse)
    with pytest.raises(ParseError, match=f"bad action_bin '{bad_bin}'") as exc:
        load_cohort(path, SCHEMA)
    assert exc.value.line_no == 3


def test_outcome_flags_and_missing_bins(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(HEADER.strip() + ",action_bin\n"
                    "a,0,M,70,1.0,10,0.1,,true,3\nb,1,F,70,1.0,10,0.1,1,False,\n"
                    "b,0,F,70,1.0,10,0.1,1,False,4\na,1,M,70,1.0,10,0.1,,true,5\n")
    a, b = load_cohort(path, SCHEMA).trajectories
    assert (a.id, a.outcome_alive, a.mortality_step) == ("a", True, None)
    assert a.action_bins.tolist() == [3, 5] and a.action_bins.dtype == np.int64
    assert (b.id, b.outcome_alive, b.mortality_step) == ("b", False, 1)
    assert b.action_bins is None  # one encounter row has no bin


def test_inconsistent_attribute_rejected(tmp_path):
    path = tmp_path / "attr.csv"
    path.write_text(HEADER + "a,0,M,70,1.0,10,0.1,,1\nb,0,F,70,1.0,10,0.1,,1\n"
                    "a,1,F,70,1.0,10,0.1,,1\n")
    with pytest.raises(IntegrityError, match="trajectory a: inconsistent attribute 'gender'"):
        load_cohort(path, SCHEMA)


@pytest.mark.parametrize("rows", [
    # trajectory a: inconsistent outcome; trajectory b: a gap
    ["a,0,M,70,1.0,10,0.1,,1", "b,0,F,70,1.0,10,0.1,,1", "a,1,M,70,1.0,10,0.1,,0",
     "b,2,F,70,1.0,10,0.1,,1"],
    # trajectory a: a gap; trajectory b: inconsistent outcome
    ["a,0,M,70,1.0,10,0.1,,1", "b,0,F,70,1.0,10,0.1,,1", "b,1,F,70,1.0,10,0.1,,0",
     "a,2,M,70,1.0,10,0.1,,1"],
    # trajectory a: mortality_step out of range; trajectory b: a gap
    ["a,0,M,70,1.0,10,0.1,3,0", "b,1,F,70,1.0,10,0.1,,1"],
    # a bad number above a short row; a negative dose above a bad number
    ["a,0,M,70,1.0,10,0.1,,1", "a,1,M,x,1.0,10,0.1,,1", "a,2,M,70,1.0,10,,1"],
    ["a,0,M,70,1.0,10,0.1,,1", "a,1,M,70,1.0,-10,0.1,,1", "a,2,M,x,1.0,10,0.1,,1"],
    # a negative dose above a duplicate
    ["a,0,M,70,1.0,10,0.1,,1", "a,1,M,70,1.0,-10,0.1,,1", "a,0,M,70,1.0,10,0.1,,1"],
    # trajectory a: a gap; trajectory b: mortality_step out of range (negative)
    ["a,0,M,70,1.0,10,0.1,,1", "b,0,F,70,1.0,10,0.1,-1,0", "a,2,M,70,1.0,10,0.1,,1"],
    # trajectory a: mortality_step set but alive; trajectory b: inconsistent outcome
    ["b,0,F,70,1.0,10,0.1,,1", "a,0,M,70,1.0,10,0.1,0,1", "b,1,F,70,1.0,10,0.1,,0"],
    # trajectory a: mortality_step out of range and a gap
    ["a,0,M,70,1.0,10,0.1,5,0", "a,2,M,70,1.0,10,0.1,5,0"],
])
def test_first_of_several_faults_matches_reference(tmp_path, rows):
    path = tmp_path / "faults.csv"
    path.write_text(HEADER + "".join(row + "\n" for row in rows))
    with pytest.raises(CfPolicyError) as want:
        reference_load_cohort(path, SCHEMA)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        load_cohort(path, SCHEMA)


REF_SCHEMA = FeatureSchema(
    names=("hr", "lact", "age"), kinds=("vital", "lab", "demographic"),
    log_normalized=(False, True, False),
    attributes={"gender": ("M", "F"), "site": ("a,b", 'say "hi"', "c")})
ID_TEXT = st.text(st.sampled_from('ab ,"#é\r\n'), max_size=5)
# missing cells: NaN, and NaNs with another sign or payload, which load back as NaN
NANS = (float("nan"), -float("nan"), float(np.uint64(0x7FF8_0000_0BAD_0000).view(np.float64)))
CELL = st.one_of(st.sampled_from(NANS), st.floats(allow_nan=False, allow_infinity=False))
DOSE = st.floats(0, 1e6, allow_nan=False)
CORRUPTIONS = ("fields", "number", "gap", "duplicate", "negative", "attribute", "outcome",
               "blank")


@st.composite
def ragged_trajectories(draw):
    """Encounters of 1..8 steps with missing cells, quoted ids and
    attributes, and with action bins for all, none or some of them."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=5, unique=True))
    with_bins = draw(st.sampled_from((True, False, None)))  # None: drawn per encounter
    trajs = []
    for tid in ids:
        T = draw(st.integers(1, 8))
        died = draw(st.booleans())
        binned = draw(st.booleans()) if with_bins is None else with_bins
        trajs.append(PatientTrajectory(
            id=tid, attributes={a: draw(st.sampled_from(v))
                                for a, v in REF_SCHEMA.attributes.items()},
            states=np.array(draw(st.lists(CELL, min_size=3 * T, max_size=3 * T))).reshape(T, 3),
            actions=np.array(draw(st.lists(DOSE, min_size=2 * T, max_size=2 * T))).reshape(T, 2),
            mortality_step=draw(st.one_of(st.none(), st.integers(0, T - 1))) if died else None,
            outcome_alive=not died,
            action_bins=np.array(draw(st.lists(st.integers(0, 24), min_size=T, max_size=T)))
            if binned else None))
    return trajs


def ragged_cohorts():
    return ragged_trajectories().map(lambda trajs: CohortDataset.from_trajectories(REF_SCHEMA,
                                                                                  trajs))


def _corrupt(data, rows, header):
    """Shuffle the data rows and apply up to two corruptions."""
    rows = [list(rows[i]) for i in data.draw(st.permutations(range(len(rows))))]
    col = header.index
    for kind in data.draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2)):
        r = data.draw(st.integers(0, len(rows) - 1))
        if len(rows[r]) != len(header):  # leave a row cut short or blank as it is
            continue
        if kind == "fields":
            rows[r] = rows[r][:-1] if data.draw(st.booleans()) else rows[r] + ["x"]
        elif kind == "number":
            rows[r][col(data.draw(st.sampled_from(("hr", "age", "action_vaso"))))] = "1.2.3"
        elif kind == "gap":
            rows[r][col("timestep")] = str(int(rows[r][col("timestep")]) + 100)
        elif kind == "duplicate":
            rows.insert(data.draw(st.integers(0, len(rows))), list(rows[r]))
        elif kind == "negative":
            rows[r][col("action_fluid")] = "-1.5"
        elif kind == "attribute":
            rows[r][col("site")] = "a"
        elif kind == "outcome":
            rows[r][col("outcome_alive")] = "1" if rows[r][col("outcome_alive")] == "0" else "0"
        elif kind == "blank":
            rows.insert(r, [])
    return rows


def _load_or_error(load, path, allow, schema=REF_SCHEMA):
    try:
        return load(path, schema, allow_negative_actions=allow)
    except CfPolicyError as exc:
        return exc


def _assert_same_load(got, want):
    """Equal error type and message, or equal trajectories, bit for bit."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert [tr.id for tr in got.trajectories] == [tr.id for tr in want.trajectories]
    for g, w in zip(got.trajectories, want.trajectories):
        _assert_same_trajectory(g, w)


def _assert_same_trajectory(g, w):
    """Equal encounters, bit for bit."""
    assert g.states.tobytes() == w.states.tobytes()
    assert g.actions.tobytes() == w.actions.tobytes()
    assert (g.id, g.attributes, g.mortality_step, g.outcome_alive) == \
        (w.id, w.attributes, w.mortality_step, w.outcome_alive)
    assert (g.action_bins is None) == (w.action_bins is None)
    if w.action_bins is not None:
        assert g.action_bins.dtype == w.action_bins.dtype
        assert g.action_bins.tobytes() == w.action_bins.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ragged_cohorts(), st.booleans(), st.data())
def test_columnar_io_matches_row_reference(tmp_path, cohort, allow_negative, data):
    # fresh files per example: rewriting a just-written file can wait on writeback
    tmp = Path(tempfile.mkdtemp(dir=tmp_path))
    ours, theirs = tmp / "ours.csv", tmp / "ref.csv"
    write_cohort(cohort, ours)
    reference_write_cohort(cohort, theirs)
    assert ours.read_bytes() == theirs.read_bytes()

    with theirs.open(newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    path = tmp / "in.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=data.draw(st.sampled_from(("\r\n", "\n", "\r")))).writerows(
            [header] + _corrupt(data, rows, header))
    got = _load_or_error(load_cohort, path, allow_negative)
    want = _load_or_error(reference_load_cohort, path, allow_negative)
    _assert_same_load(got, want)
    if isinstance(want, Exception):
        return
    write_cohort(got, tmp / "ours2.csv")
    reference_write_cohort(want, tmp / "ref2.csv")
    assert (tmp / "ours2.csv").read_bytes() == (tmp / "ref2.csv").read_bytes()


@pytest.mark.parametrize("with_bins", [False, True])
def test_writer_quotes_text_cells_as_the_row_reference(tmp_path, with_bins):
    # ids a whole-row split on commas or line breaks would cut, an attribute
    # label with a comma, and a survivor whose mortality_step cell is empty
    rng = np.random.default_rng(0)
    trajs = [PatientTrajectory(
        id=tid, attributes={"gender": gender, "site": site},
        states=rng.normal(size=(T, 3)), actions=np.abs(rng.normal(size=(T, 2))),
        mortality_step=mort, outcome_alive=mort is None,
        action_bins=np.arange(T, dtype=np.int64) if with_bins else None)
        for tid, gender, site, T, mort in ((",\r\n", "M", "a,b", 3, 1),
                                           ('a"b', "F", 'say "hi"', 2, None),
                                           (" x ", "M", "c", 4, 0))]
    trajs[0].states[1, 2] = np.nan
    cohort = CohortDataset.from_trajectories(REF_SCHEMA, trajs)
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    reference_write_cohort(cohort, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _assert_same_load(load_cohort(path, REF_SCHEMA), cohort)  # from the companion
    (tmp_path / "c.csv.npz").unlink()
    _assert_same_load(load_cohort(path, REF_SCHEMA), cohort)  # from the text


# Schemas the written cohorts are loaded with: the one they were written
# with, one whose vocabulary rejects an attribute value, one whose header
# differs in a feature name.
LOAD_SCHEMAS = (REF_SCHEMA,
                replace(REF_SCHEMA, attributes={"gender": ("M", "F"), "site": ("c",)}),
                replace(REF_SCHEMA, names=("hr", "lactate", "age")))


def _no_text_parse(*args):
    raise AssertionError("the CSV text was parsed although its companion is current")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ragged_cohorts(), st.sampled_from(LOAD_SCHEMAS), st.booleans(), st.data())
def test_companion_load_matches_text_parse(tmp_path, monkeypatch, cohort, schema, edited, data):
    tmp = Path(tempfile.mkdtemp(dir=tmp_path))
    path = tmp / "cohort.csv"
    write_cohort(cohort, path)
    companion = tmp / "cohort.csv.npz"
    assert companion.exists()
    stale = False
    if edited:  # the CSV changes after writing; its companion stays beside it
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        edited_path = tmp / "edited.csv"
        with edited_path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + _corrupt(data, rows, header))
        stale = edited_path.read_bytes() != path.read_bytes()
        path, companion = edited_path, companion.rename(tmp / "edited.csv.npz")
    with monkeypatch.context() as patch:
        if not stale:
            patch.setattr(cohort_module, "_parse_csv", _no_text_parse)
        got = _load_or_error(load_cohort, path, False, schema)
    companion.unlink()
    _assert_same_load(got, _load_or_error(load_cohort, path, False, schema))


def _damage(companion, how):
    if how == "truncated":
        companion.write_bytes(companion.read_bytes()[:-100])
        return
    with np.load(companion) as z:
        members = dict(z)
    if how == "object array":
        members["cells"] = members["cells"].astype(object)
    elif how == "misshapen values":
        members["values"] = members["values"][:, :-1]
    elif how == "misshapen bins":
        members["bins"] = members["bins"][:-1]
    elif how == "short lengths":
        members["lengths"] = members["lengths"][:-1]
    elif how == "missing member":
        del members["bins"]
    np.savez(companion, **members)


@pytest.mark.parametrize("how", ["truncated", "object array", "misshapen values",
                                 "misshapen bins", "short lengths", "missing member"])
def test_damaged_companion_falls_back_to_text_parse(tmp_path, monkeypatch, how):
    t1, t2 = _traj("a"), _traj("b", gender="F", T=4)
    t2.states[2, 1] = np.nan
    t1.action_bins, t2.action_bins = np.array([0, 3, 24]), np.array([7, 7, 1, 0])
    cohort = CohortDataset.from_trajectories(SCHEMA, [t1, t2])
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    _damage(tmp_path / "c.csv.npz", how)
    calls = []
    parse = cohort_module._parse_csv
    monkeypatch.setattr(cohort_module, "_parse_csv",
                        lambda *args: calls.append(args) or parse(*args))
    back = load_cohort(path, SCHEMA)
    assert len(calls) == 1
    _assert_same_load(back, cohort)


def test_companion_holds_nan_as_the_text_parse_does(tmp_path, monkeypatch):
    tr = _traj("a")
    tr.states[0, 0] = np.uint64(0x7FF8_0000_0BAD_0000).view(np.float64)  # a NaN payload
    tr.states[1, 1] = -np.nan
    path = tmp_path / "c.csv"
    write_cohort(CohortDataset.from_trajectories(SCHEMA, [tr]), path)
    with monkeypatch.context() as patch:
        patch.setattr(cohort_module, "_parse_csv", _no_text_parse)
        got = load_cohort(path, SCHEMA)
    (tmp_path / "c.csv.npz").unlink()
    _assert_same_load(got, load_cohort(path, SCHEMA))


def test_cell_longer_than_the_csv_field_limit_loads(tmp_path):
    # csv.reader rejects a field over 131,072 characters by default; the
    # parse raises its limit for the pass only
    limit = csv.field_size_limit()
    cohort = CohortDataset.from_trajectories(SCHEMA, [_traj("x" * 200_000), _traj("b")])
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    (tmp_path / "c.csv.npz").unlink()
    _assert_same_load(load_cohort(path, SCHEMA), cohort)
    assert csv.field_size_limit() == limit


def _shares_one_block(cohort) -> bool:
    """Whether every trajectory's states and actions view one array."""
    block = cohort.trajectories[0].states.base
    return block is not None and all(np.shares_memory(a, block) for tr in cohort.trajectories
                                     for a in (tr.states, tr.actions))


def test_rows_and_trajectories_share_the_cohort_block(proc_cohort):
    cohort = replace(proc_cohort, split=proc_cohort.split.copy())
    assert cohort.block is proc_cohort.block  # the rows were kept, not copied
    lengths = np.array([tr.T for tr in cohort.trajectories])
    assert np.array_equal(cohort.lengths, lengths)
    assert np.array_equal(cohort.first, np.cumsum(lengths) - lengths)
    assert _shares_one_block(cohort) and cohort.trajectories[0].states.base is cohort.block


def _as_written(cohort):
    """The cohort as ``write_cohort`` writes it: every NaN as
    ``float("nan")``, and action bins only if every encounter has them."""
    return CohortDataset.from_trajectories(cohort.schema, [
        replace(tr, states=np.where(np.isnan(tr.states), np.nan, tr.states),
                action_bins=tr.action_bins if cohort.binned.all() else None)
        for tr in cohort.trajectories])


def _assert_selects(part, cohort, picked, tags):
    """``part`` holds the encounters ``picked`` (views of ``cohort``), in
    order, with split tags ``tags``, and reads their rows from the cohort's
    block and bins."""
    assert part.block is cohort.block and part.bins is cohort.bins
    assert part.split.tolist() == tags
    assert part.lengths.tolist() == [v.T for v in picked]
    for s, v in zip(part.first.tolist(), picked):
        assert cohort.block[s:s + v.T].tobytes() == np.hstack([v.states, v.actions]).tobytes()
    assert part.row_index().tolist() == [
        r for s, v in zip(part.first.tolist(), picked) for r in range(s, s + v.T)]
    for got, w in zip(part.trajectories, picked, strict=True):
        _assert_same_trajectory(got, w)
        assert np.shares_memory(got.states, cohort.block)


@settings(max_examples=100, deadline=None)
@given(ragged_trajectories(), st.integers(0, 2**32 - 1), st.data())
def test_split_and_subgroup_select_what_the_views_hold(trajs, seed, data):
    cohort = assign_splits(CohortDataset.from_trajectories(REF_SCHEMA, trajs), seed)
    # the draw as a dict keyed by id: the r-th encounter of the permutation gets the r-th tag
    n = len(trajs)
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val = round(0.6 * n), round(0.2 * n)
    tag_of = {trajs[i].id: SPLIT_TAGS[(r >= n_train) + (r >= n_train + n_val)]
              for r, i in enumerate(order.tolist())}
    assert dict(zip(cohort.ids.tolist(), cohort.split.tolist())) == tag_of
    views = cohort.trajectories
    for view, tr in zip(views, trajs, strict=True):
        _assert_same_trajectory(view, tr)
    # ``select`` with an index array in any order, and with a mask
    index = np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))], int)
    mask = np.isin(np.arange(n), index)
    for keep, picked in ((index, [views[i] for i in index]),
                         (mask, [v for v, m in zip(views, mask) if m])):
        _assert_selects(cohort.select(keep), cohort, picked, [tag_of[v.id] for v in picked])
    subgroups = [(None, cohort)]
    for a, labels in REF_SCHEMA.attributes.items():
        for label in labels:
            key = SubgroupKey(a, label)
            if not any(v.attributes[a] == label for v in views):
                with pytest.raises(EmptySubgroupError):
                    filter_subgroup(cohort, key)
                continue
            subgroups.append((key, filter_subgroup(cohort, key)))
    for key, sub in subgroups:
        members = [v for v in views if key is None or v.attributes[key.attribute] == key.value]
        for tag in (None, "train", "val", "test"):
            picked = [v for v in members if tag is None or tag_of[v.id] == tag]
            _assert_selects(sub if tag is None else sub.split_of(tag), cohort, picked,
                            [tag_of[v.id] for v in picked])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ragged_cohorts(), st.sampled_from((None, "M", "F")))
def test_written_cohort_loads_back_bit_for_bit(tmp_path, monkeypatch, cohort, gender):
    # a subgroup leaves rows of no encounter between its encounters' rows
    if gender is not None:
        try:
            cohort = filter_subgroup(cohort, SubgroupKey("gender", gender))
        except EmptySubgroupError:
            return
    path = Path(tempfile.mkdtemp(dir=tmp_path)) / "c.csv"
    block = cohort.block.tobytes()
    write_cohort(cohort, path)
    assert cohort.block.tobytes() == block
    with monkeypatch.context() as patch:
        patch.setattr(cohort_module, "_parse_csv", _no_text_parse)
        from_companion = load_cohort(path, REF_SCHEMA)
    _assert_same_load(from_companion, _as_written(cohort))
    path.with_name("c.csv.npz").unlink()
    _assert_same_load(load_cohort(path, REF_SCHEMA), _as_written(cohort))


@pytest.mark.parametrize("companion", [True, False])
def test_written_cohort_loads_in_place_and_a_shuffled_one_loads_the_same(
        tmp_path, companion):
    cohort = CohortDataset.from_trajectories(SCHEMA, [
        _traj(tid, gender, T) for tid, gender, T in
        (("a", "M", 3), ("b", "F", 1), ("c", "F", 5), ("d", "M", 4))])
    # back to back, and a subgroup whose rows have gaps between them
    for written in (cohort, filter_subgroup(cohort, SubgroupKey("gender", "F"))):
        path = tmp_path / "c.csv"
        write_cohort(written, path)
        if not companion:
            (tmp_path / "c.csv.npz").unlink()
        ordered = load_cohort(path, SCHEMA)
        _assert_same_load(ordered, written)
        assert _shares_one_block(ordered)  # rows already in order: no copy
        # a foreign file with the same rows in another order: grouped and sorted
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows[i] for i in order), encoding="utf-8")
        got = load_cohort(shuffled, SCHEMA)  # encounters in order of first appearance
        _assert_same_load(CohortDataset.from_trajectories(
            SCHEMA, sorted(got.trajectories, key=lambda tr: tr.id)), ordered)


def test_csv_with_a_byte_order_mark_loads(tmp_path):
    # spreadsheet and database exports often start with a UTF-8 BOM
    cohort = CohortDataset.from_trajectories(SCHEMA, [_traj("a"), _traj("b", "F", 4)])
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    _assert_same_load(load_cohort(marked, SCHEMA), load_cohort(path, SCHEMA))


def test_cell_ending_in_nul_gets_no_companion(tmp_path):
    path = tmp_path / "c.csv"
    write_cohort(CohortDataset.from_trajectories(SCHEMA, [_traj("b")]), path)
    assert (tmp_path / "c.csv.npz").exists()
    write_cohort(CohortDataset.from_trajectories(SCHEMA, [_traj("a\0")]), path)
    assert not (tmp_path / "c.csv.npz").exists()  # a <U array would drop the NUL
    assert load_cohort(path, SCHEMA).trajectories[0].id == "a\0"


def test_bad_split_tag_names_its_encounter(tmp_path, small_cohort):
    save_cohort_dir(small_cohort, tmp_path)
    split = json.loads((tmp_path / "splits.json").read_text(encoding="utf-8"))
    tid = small_cohort.trajectories[-1].id  # every tag before it is checked first
    split[tid] = "Train"
    (tmp_path / "splits.json").write_text(json.dumps(split), encoding="utf-8")
    with pytest.raises(CfPolicyError) as exc:
        load_cohort_dir(tmp_path)
    assert str(exc.value) == (f"{tmp_path / 'splits.json'}: {tid}: "
                              "expected one of 'train', 'val', 'test', got 'Train'")



def _traced_peak(run):
    """``run()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cohort_stages_memory_is_bounded_by_the_float_block(tmp_path):
    # at n=800, T=72 and 12 features the float block is 6.45 MB. Each stage
    # holds it about once beside what it makes: synth's block and the
    # masked copy; preprocess's output block and one column's imputation;
    # the writer's strings and companion bytes, but no copy of the rows;
    # the loader's decode and checks.
    n, T, M = 800, 72, 12
    block = n * T * (M + 2) * 8
    raw, peak = _traced_peak(lambda: inject_missingness(
        generate(SynthConfig(n_patients=n, T=T, n_features=M, seed=3))[0], 0.1, 3))
    assert raw.block.nbytes == block and peak < 2.5 * block
    raw = assign_splits(raw, seed=3)
    proc, peak = _traced_peak(lambda: preprocess_cohort(raw))
    assert peak < 1.75 * block
    _, peak = _traced_peak(lambda: save_cohort_dir(proc, tmp_path))
    assert peak < 1.5 * block
    _, peak = _traced_peak(lambda: load_cohort_dir(tmp_path))
    assert peak < 2.6 * block

# (value, tuple of alternatives, what check returns or the message it raises)
ALTERNATIVES = [
    ("x", ("train", "val"), "expected one of 'train', 'val', got 'x'"),
    ("train", ("train", "val"), "train"),
    (None, ("train", None), None),
    (1, ("1", None), "expected one of '1', None, got 1"),
    (True, (1, "a"), "expected one of 1, 'a', got True"),
    ("a", (None, [str, 2]), "expected a list, got 'a'"),
    (["a"], (None, [str, 2]), "expected 2 items, got 1"),
    (["a", "b"], (None, [str, 2]), ["a", "b"]),
    ([1, "b"], ([str, 2], None), "expected one of [<class 'str'>, 2], None, got a list"),
    ({"k": 1}, ("a", {"k": str}), "k.k: expected a string, got 1"),
    (1.5, (int, "a", float), 1.5),
    ("b" * 50, ("a",), "expected one of 'a', got 'bbbbbbbbbbbb...bbbbbbbbbbbbb'"),
]


@pytest.mark.parametrize("obj, spec, result", ALTERNATIVES)
def test_check_tries_allowed_values_then_structured_alternatives(obj, spec, result):
    # allowed values match by membership, structured alternatives in order;
    # a miss reports the last structured one, or every alternative
    if isinstance(result, str) and result != obj:
        with pytest.raises(CfPolicyError) as exc:
            check(obj, spec, "w", "k")
        assert str(exc.value) == (f"w: {result}" if result.startswith("k.") else
                                  f"w: k: {result}")
    else:
        assert check(obj, spec, "w", "k") == result
