"""Cohort data model, CSV round-trip, splitting, and subgroup filtering."""

import csv
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfpolicy import cli
from cfpolicy import cohort as cohort_module
from cfpolicy.cohort import (CohortDataset, FeatureSchema, PatientTrajectory,
                             SubgroupKey, assign_splits, filter_subgroup,
                             load_cohort, load_cohort_dir, save_cohort_dir,
                             write_cohort)
from cfpolicy.errors import CfPolicyError, EmptySubgroupError, IntegrityError, ParseError

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
    return CohortDataset(schema=schema, trajectories=trajectories)


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
    cohort = CohortDataset(schema=SCHEMA, trajectories=[t1, t2])
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
    assert back.split == proc_cohort.split
    assert len(back) == len(proc_cohort)


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
    cohort = CohortDataset(schema=SCHEMA,
                           trajectories=[_traj(f"t{i}") for i in range(100)])
    a = assign_splits(cohort, seed=5)
    b = assign_splits(cohort, seed=5)
    assert a.split == b.split
    counts = {tag: sum(1 for v in a.split.values() if v == tag)
              for tag in ("train", "val", "test")}
    assert counts == {"train": 60, "val": 20, "test": 20}
    c = assign_splits(cohort, seed=6)
    assert c.split != a.split  # different seed shuffles differently


def test_filter_subgroup(small_cohort):
    men = filter_subgroup(small_cohort, SubgroupKey("gender", "M"))
    assert all(tr.attributes["gender"] == "M" for tr in men.trajectories)
    assert set(men.split) == {tr.id for tr in men.trajectories}
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
    write_cohort(CohortDataset(schema=SCHEMA, trajectories=[traj]), path)
    monkeypatch.setattr(cohort_module, "_parse_columns", _no_text_parse)
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
CELL = st.one_of(st.just(float("nan")), st.floats(allow_nan=False, allow_infinity=False))
DOSE = st.floats(0, 1e6, allow_nan=False)
CORRUPTIONS = ("fields", "number", "gap", "duplicate", "negative", "attribute", "outcome",
               "blank")


@st.composite
def ragged_cohorts(draw):
    """Encounters of 1..8 steps with missing cells, quoted ids and
    attributes, and with or without action bins."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=5, unique=True))
    with_bins = draw(st.booleans())
    trajs = []
    for tid in ids:
        T = draw(st.integers(1, 8))
        died = draw(st.booleans())
        trajs.append(PatientTrajectory(
            id=tid, attributes={a: draw(st.sampled_from(v))
                                for a, v in REF_SCHEMA.attributes.items()},
            states=np.array(draw(st.lists(CELL, min_size=3 * T, max_size=3 * T))).reshape(T, 3),
            actions=np.array(draw(st.lists(DOSE, min_size=2 * T, max_size=2 * T))).reshape(T, 2),
            mortality_step=draw(st.one_of(st.none(), st.integers(0, T - 1))) if died else None,
            outcome_alive=not died,
            action_bins=np.array(draw(st.lists(st.integers(0, 24), min_size=T, max_size=T)))
            if with_bins else None))
    return CohortDataset(schema=REF_SCHEMA, trajectories=trajs)


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
        assert g.states.tobytes() == w.states.tobytes()
        assert g.actions.tobytes() == w.actions.tobytes()
        assert (g.attributes, g.mortality_step, g.outcome_alive) == \
            (w.attributes, w.mortality_step, w.outcome_alive)
        assert (g.action_bins is None) == (w.action_bins is None)
        if w.action_bins is not None:
            assert g.action_bins.dtype == w.action_bins.dtype
            assert g.action_bins.tobytes() == w.action_bins.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ragged_cohorts(), st.booleans(), st.data())
def test_columnar_io_matches_row_reference(tmp_path, monkeypatch, cohort, allow_negative, data):
    # small scan chunks split records, quoted fields and CRLF pairs between chunks
    chunk = data.draw(st.sampled_from((1, 7, 64, 1 << 22)))
    monkeypatch.setattr(cohort_module, "_SCAN_BYTES", chunk)
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
    cohort = CohortDataset(schema=REF_SCHEMA, trajectories=trajs)
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
            patch.setattr(cohort_module, "_csv_records", _no_text_parse)
            patch.setattr(cohort_module, "_parse_columns", _no_text_parse)
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
    cohort = CohortDataset(schema=SCHEMA, trajectories=[t1, t2])
    path = tmp_path / "c.csv"
    write_cohort(cohort, path)
    _damage(tmp_path / "c.csv.npz", how)
    calls = []
    parse = cohort_module._parse_columns
    monkeypatch.setattr(cohort_module, "_parse_columns",
                        lambda *args: calls.append(args) or parse(*args))
    back = load_cohort(path, SCHEMA)
    assert len(calls) == 1
    _assert_same_load(back, cohort)


def test_companion_holds_nan_as_the_text_parse_does(tmp_path, monkeypatch):
    tr = _traj("a")
    tr.states[0, 0] = cohort_module._UNPARSED.view(np.float64)  # a NaN payload
    tr.states[1, 1] = -np.nan
    path = tmp_path / "c.csv"
    write_cohort(CohortDataset(schema=SCHEMA, trajectories=[tr]), path)
    with monkeypatch.context() as patch:
        patch.setattr(cohort_module, "_parse_columns", _no_text_parse)
        got = load_cohort(path, SCHEMA)
    (tmp_path / "c.csv.npz").unlink()
    _assert_same_load(got, load_cohort(path, SCHEMA))


def test_cell_ending_in_nul_gets_no_companion(tmp_path):
    path = tmp_path / "c.csv"
    write_cohort(CohortDataset(schema=SCHEMA, trajectories=[_traj("b")]), path)
    assert (tmp_path / "c.csv.npz").exists()
    write_cohort(CohortDataset(schema=SCHEMA, trajectories=[_traj("a\0")]), path)
    assert not (tmp_path / "c.csv.npz").exists()  # a <U array would drop the NUL
    assert load_cohort(path, SCHEMA).trajectories[0].id == "a\0"
