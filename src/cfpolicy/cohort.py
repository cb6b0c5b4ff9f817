"""Patient trajectory / cohort data model, CSV ingestion and splitting.

On-disk format (see ``write_cohort``): UTF-8 CSV with one row per
(encounter id, timestep) plus a sidecar JSON schema declaring feature
names, kinds, log-normalization flags and attribute vocabularies.
Missing cells are empty fields, never sentinel numbers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import EmptySubgroupError, IntegrityError, ParseError

if TYPE_CHECKING:  # pragma: no cover
    from .preprocess import ActionBinning, NormStats

FEATURE_KINDS = ("vital", "lab", "demographic", "binary")
SPLIT_TAGS = ("train", "val", "test")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered per-timestep feature layout plus attribute vocabularies."""

    names: tuple
    kinds: tuple
    log_normalized: tuple
    attributes: dict  # attribute name -> tuple of allowed category labels

    def __post_init__(self):
        if len(self.names) == 0:
            raise IntegrityError("schema must declare at least one feature")
        if len(set(self.names)) != len(self.names):
            raise IntegrityError("feature names must be unique")
        if not (len(self.names) == len(self.kinds) == len(self.log_normalized)):
            raise IntegrityError("schema field lengths disagree")
        for k in self.kinds:
            if k not in FEATURE_KINDS:
                raise IntegrityError(f"unknown feature kind {k!r}")

    @property
    def n_features(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def to_json(self) -> dict:
        return {
            "features": [
                {"name": n, "kind": k, "log_normalized": bool(lg)}
                for n, k, lg in zip(self.names, self.kinds, self.log_normalized)
            ],
            "attributes": {a: list(v) for a, v in self.attributes.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSchema":
        feats = obj["features"]
        return cls(
            names=tuple(f["name"] for f in feats),
            kinds=tuple(f["kind"] for f in feats),
            log_normalized=tuple(bool(f["log_normalized"]) for f in feats),
            attributes={a: tuple(v) for a, v in obj["attributes"].items()},
        )


@dataclass(frozen=True)
class SubgroupKey:
    """One (attribute, category) pair, e.g. ('gender', 'F')."""

    attribute: str
    value: str

    def __str__(self) -> str:
        return f"{self.attribute}={self.value}"

    @classmethod
    def parse(cls, text: str) -> "SubgroupKey":
        if "=" not in text:
            raise ValueError(f"subgroup must look like attr=value, got {text!r}")
        a, v = text.split("=", 1)
        return cls(a.strip(), v.strip())


@dataclass
class PatientTrajectory:
    """One encounter: T timesteps of features, dose pairs, and the outcome."""

    id: str
    attributes: dict
    states: np.ndarray  # (T, M) float64, NaN = missing
    actions: np.ndarray  # (T, 2) float64, [fluid, vaso], nonnegative
    mortality_step: Optional[int] = None
    outcome_alive: bool = True
    action_bins: Optional[np.ndarray] = None  # (T,) int, set during preprocessing

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[0] < 1:
            raise IntegrityError(f"trajectory {self.id}: states must be (T>=1, M)")
        if self.actions.shape != (self.states.shape[0], 2):
            raise IntegrityError(f"trajectory {self.id}: actions must be (T, 2)")
        if self.mortality_step is not None:
            if not (0 <= self.mortality_step < self.T):
                raise IntegrityError(f"trajectory {self.id}: mortality_step out of range")
            if self.outcome_alive:
                raise IntegrityError(f"trajectory {self.id}: mortality_step set but outcome_alive")

    @property
    def T(self) -> int:
        return self.states.shape[0]


@dataclass
class CohortDataset:
    """A set of trajectories plus schema, split tags, and fitted statistics."""

    schema: FeatureSchema
    trajectories: list
    split: Optional[dict] = None  # trajectory id -> 'train' | 'val' | 'test'
    norm_stats: Optional["NormStats"] = None
    binning: Optional["ActionBinning"] = None

    def __len__(self) -> int:
        return len(self.trajectories)

    def by_split(self, tag: str) -> list:
        if self.split is None:
            raise IntegrityError("cohort has no split assignment")
        if tag not in SPLIT_TAGS:
            raise ValueError(f"unknown split tag {tag!r}")
        return [tr for tr in self.trajectories if self.split[tr.id] == tag]


def _parse_float(cell: str, line_no: int, col: str) -> float:
    if cell == "":
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        raise ParseError(line_no, f"column {col!r}: not a number: {cell!r}") from None


def load_cohort(path, schema: FeatureSchema,
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
                [_parse_float(row[col[f]], line_no, f) for f in feat_cols])
            action = np.array([
                _parse_float(row[col["action_fluid"]], line_no, "action_fluid"),
                _parse_float(row[col["action_vaso"]], line_no, "action_vaso"),
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


def write_cohort(cohort: CohortDataset, path) -> None:
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


def save_cohort_dir(cohort: CohortDataset, out_dir) -> None:
    """Write cohort.csv + schema.json, plus splits/norm-stats/binning
    sidecars when the cohort carries them."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_cohort(cohort, out_dir / "cohort.csv")
    (out_dir / "schema.json").write_text(
        json.dumps(cohort.schema.to_json(), indent=2), encoding="utf-8")
    if cohort.split is not None:
        (out_dir / "splits.json").write_text(
            json.dumps(cohort.split, indent=2, sort_keys=True), encoding="utf-8")
    if cohort.norm_stats is not None:
        (out_dir / "norm_stats.json").write_text(
            json.dumps(cohort.norm_stats.to_json()), encoding="utf-8")
    if cohort.binning is not None:
        (out_dir / "binning.json").write_text(
            json.dumps(cohort.binning.to_json()), encoding="utf-8")


def load_cohort_dir(path) -> CohortDataset:
    """Load a cohort directory written by ``save_cohort_dir``."""
    path = Path(path)
    schema = FeatureSchema.from_json(
        json.loads((path / "schema.json").read_text(encoding="utf-8")))
    # a norm-stats sidecar marks a preprocessed cohort: actions are z-scored
    cohort = load_cohort(path / "cohort.csv", schema,
                         allow_negative_actions=(path / "norm_stats.json").exists())
    splits_file = path / "splits.json"
    if splits_file.exists():
        cohort.split = json.loads(splits_file.read_text(encoding="utf-8"))
    stats_file = path / "norm_stats.json"
    if stats_file.exists():
        from .preprocess import NormStats
        cohort.norm_stats = NormStats.from_json(
            json.loads(stats_file.read_text(encoding="utf-8")))
    bin_file = path / "binning.json"
    if bin_file.exists():
        from .preprocess import ActionBinning
        cohort.binning = ActionBinning.from_json(
            json.loads(bin_file.read_text(encoding="utf-8")))
    return cohort


def assign_splits(cohort: CohortDataset, seed: int) -> CohortDataset:
    """Tag trajectories train/val/test at ~6:2:2, deterministically per seed."""
    if len(cohort) == 0:
        raise IntegrityError("cannot split an empty cohort")
    ids = [tr.id for tr in cohort.trajectories]
    order = np.random.default_rng(seed).permutation(len(ids))
    n = len(ids)
    n_train = round(0.6 * n)
    n_val = round(0.2 * n)
    split = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            tag = "train"
        elif rank < n_train + n_val:
            tag = "val"
        else:
            tag = "test"
        split[ids[idx]] = tag
    return replace(cohort, split=split)


def filter_subgroup(cohort: CohortDataset, key: SubgroupKey) -> CohortDataset:
    """Restrict to one subgroup; normalization statistics are inherited."""
    if key.attribute not in cohort.schema.attributes:
        raise IntegrityError(f"attribute {key.attribute!r} not declared in cohort")
    kept = [tr for tr in cohort.trajectories if tr.attributes[key.attribute] == key.value]
    if not kept:
        raise EmptySubgroupError(f"no trajectories match {key}")
    split = None
    if cohort.split is not None:
        split = {tr.id: cohort.split[tr.id] for tr in kept}
    return CohortDataset(schema=cohort.schema, trajectories=kept, split=split,
                         norm_stats=cohort.norm_stats, binning=cohort.binning)
