"""Patient trajectory / cohort data model, CSV ingestion and splitting.

On-disk format (see ``write_cohort``): UTF-8 CSV with one row per
(encounter id, timestep) plus a sidecar JSON schema declaring feature
names, kinds, log-normalization flags and attribute vocabularies.
Missing cells are empty fields, never sentinel numbers. Beside each CSV it
writes, ``write_cohort`` keeps a column companion (``cohort.csv.npz``):
the parsed columns plus the SHA-256 of the CSV bytes, so that a later
``load_cohort`` of the same bytes skips the text parse. It is a cache:
deleting it is safe, and it is ignored once the CSV changes. A CSV without
a current companion, such as one exported from a clinical database, is
parsed in one ``csv.reader`` pass.
"""

from __future__ import annotations

import csv
import io
import json
import zipfile
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import EmptySubgroupError, IntegrityError, ParseError, read_json

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

    SPEC = {"features": [{"name": str, "kind": FEATURE_KINDS, "log_normalized": bool}, ...],
            "attributes": {str: [str, ...]}}

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
            log_normalized=tuple(f["log_normalized"] for f in feats),
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
    """Encounters as columns (split tags included), plus schema and statistics.

    Every encounter's rows live in one float block, ``block`` (rows, M + 2):
    encounter i has the states ``block[s:s + T, :M]``, the doses
    ``block[s:s + T, M:]`` and, if ``binned[i]``, the action bins
    ``bins[s:s + T]``, with s = ``first[i]`` and T = ``lengths[i]``. A
    block may hold rows of no encounter (those a subgroup left out): a
    split or a subgroup selects encounters of the same block.
    """

    schema: FeatureSchema
    block: np.ndarray = field(repr=False)  # (rows, M + 2) float64, NaN = missing
    bins: Optional[np.ndarray] = field(repr=False)  # (rows,) int64; None if nothing is binned
    first: np.ndarray  # (E,) int64
    lengths: np.ndarray  # (E,) int64
    ids: np.ndarray  # (E,) object
    attributes: dict  # attribute name -> (E,) object array of labels
    mortality_step: np.ndarray  # (E,) int64, -1 = none
    outcome_alive: np.ndarray  # (E,) bool
    binned: np.ndarray  # (E,) bool
    split: Optional[np.ndarray] = None  # (E,) object: 'train' | 'val' | 'test'
    norm_stats: Optional["NormStats"] = None
    binning: Optional["ActionBinning"] = None

    @classmethod
    def from_trajectories(cls, schema: FeatureSchema, trajectories, **fields) -> "CohortDataset":
        """A cohort holding the rows of ``trajectories`` back to back in a new
        block (and bins, if any of them has bins); ``fields`` are the
        optional split and statistics."""
        trajs = list(trajectories)
        M = schema.n_features
        lengths = np.array([tr.T for tr in trajs], dtype=np.int64)
        first = np.cumsum(lengths) - lengths
        block = np.empty((int(lengths.sum()), M + 2))
        binned = np.array([tr.action_bins is not None for tr in trajs], dtype=bool)
        bins = np.zeros(len(block), np.int64) if binned.any() else None
        for tr, s in zip(trajs, first.tolist()):
            rows = slice(s, s + tr.T)
            block[rows, :M], block[rows, M:] = tr.states, tr.actions
            if tr.action_bins is not None:
                bins[rows] = tr.action_bins
        return cls(schema=schema, block=block, bins=bins, first=first, lengths=lengths,
                   ids=np.array([tr.id for tr in trajs], dtype=object),
                   attributes={a: np.array([tr.attributes[a] for tr in trajs], dtype=object)
                               for a in schema.attributes},
                   mortality_step=np.array([-1 if tr.mortality_step is None
                                            else tr.mortality_step for tr in trajs], np.int64),
                   outcome_alive=np.array([tr.outcome_alive for tr in trajs], dtype=bool),
                   binned=binned, **fields)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def trajectories(self) -> list:
        """Every encounter as a ``PatientTrajectory`` whose arrays are views
        of ``block`` and ``bins``, built on each read."""
        M, attrs = self.schema.n_features, list(self.attributes)
        columns = (self.first, self.lengths, self.ids, self.mortality_step, self.outcome_alive,
                   self.binned, *self.attributes.values())
        return [PatientTrajectory(
            id=tid, attributes=dict(zip(attrs, labels)), states=self.block[s:s + T, :M],
            actions=self.block[s:s + T, M:], mortality_step=None if mort < 0 else mort,
            outcome_alive=alive, action_bins=self.bins[s:s + T] if binned else None)
            for s, T, tid, mort, alive, binned, *labels in zip(*(c.tolist() for c in columns))]

    def select(self, keep) -> "CohortDataset":
        """The encounters at ``keep`` (a mask or an index array over the
        encounters), in that order; their rows stay in this cohort's block."""
        return replace(
            self, first=self.first[keep], lengths=self.lengths[keep], ids=self.ids[keep],
            attributes={a: v[keep] for a, v in self.attributes.items()},
            mortality_step=self.mortality_step[keep], outcome_alive=self.outcome_alive[keep],
            binned=self.binned[keep], split=None if self.split is None else self.split[keep])

    def split_of(self, tag: str) -> "CohortDataset":
        """The encounters of split ``tag``, as ``select`` gives them."""
        if self.split is None:
            raise IntegrityError("cohort has no split assignment")
        if tag not in SPLIT_TAGS:
            raise ValueError(f"unknown split tag {tag!r}")
        return self.select(self.split == tag)

    def row_index(self) -> np.ndarray:
        """The block row of every row of each encounter, in order."""
        return block_rows(self.first, self.lengths)


def block_rows(first, lengths) -> np.ndarray:
    """The block row of every row of encounters that start at block rows
    ``first`` and have ``lengths`` rows, in order."""
    return np.arange(lengths.sum()) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)


def _factorize(cells):
    """The distinct values of a column, first appearance first, as an
    object array, and each cell's index among them."""
    index = {c: i for i, c in enumerate(dict.fromkeys(cells))}
    return (np.array(list(index), dtype=object),
            np.fromiter(map(index.__getitem__, cells), np.int64, len(cells)))


def _ints(cells: np.ndarray, code: np.ndarray):
    """Per row of a column (distinct cells, row codes): ``int()`` of its cell
    as int64 (0 if empty or rejected), whether ``int()`` rejects it, whether it is empty."""
    values, bad = np.zeros(len(cells), np.int64), np.zeros(len(cells), bool)
    for i, cell in enumerate(cells.tolist()):
        try:
            values[i] = int(cell) if cell != "" else 0
        except (ValueError, OverflowError):
            bad[i] = True
    return values[code], bad[code], (cells == "")[code]


def _parse_csv(path: Path, k: int, M: int, check_header):
    """One ``csv.reader`` pass over ``path``: the header (``check_header``
    sees it first), the float block and the other columns (as ``_factorize``
    gives each) of the records before the first with a wrong field count,
    the cells ``float()`` rejects by flat index (NaN in the block, as an
    empty cell is) and that record's ParseError, or None. The field size
    limit is raised for the pass to the file's size, which no field exceeds."""
    limit = csv.field_size_limit(max(csv.field_size_limit(), path.stat().st_size))
    values, text, rejected, error, lo, hi = array("d"), [], {}, None, 2 + k, 4 + k + M
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            records = csv.reader(fh)
            header = next(records, None)
            if header is None:
                raise ParseError(1, "empty file")
            check_header(header := [h.strip() for h in header])
            for record in records:
                if len(record) != len(header):
                    error = ParseError(len(values) // (hi - lo) + 2,
                                       f"expected {len(header)} fields, got {len(record)}")
                    break
                text += record[:lo] + record[hi:]
                try:
                    values.extend([float(cell or "nan") for cell in record[lo:hi]])
                except ValueError:  # some cell float() rejects: take the cells one by one
                    for cell in record[lo:hi]:
                        try:
                            values.append(float(cell or "nan"))
                        except ValueError:
                            rejected[len(values)] = cell
                            values.append(float("nan"))
    finally:
        csv.field_size_limit(limit)
    step = len(header) - (hi - lo)  # text cells per record
    columns = [_factorize(text[j::step]) for j in range(step)]
    return header, np.frombuffer(values).reshape(-1, hi - lo), columns, rejected, error


def _companion(path: Path) -> Path:
    return path.with_name(path.name + ".npz")


def _sha256(path: Path) -> np.ndarray:
    import hashlib  # only cohort I/O needs it; importing cfpolicy stays as fast

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return np.frombuffer(digest.digest(), np.uint8)


def _write_companion(path: Path, header, values, lengths, cells, bins) -> None:
    """Store beside the CSV just written what ``load_cohort`` parses from it.

    ``cells`` holds the id, attribute, mortality_step and outcome_alive
    columns with one cell per encounter; the timestep column is rebuilt
    from ``lengths``. ``<U`` arrays drop trailing NULs, so a cohort with
    such a cell gets no companion."""
    if any(c.endswith("\0") for column in [header, *cells] for c in column):
        _companion(path).unlink(missing_ok=True)
        return
    with _companion(path).open("wb") as fh:
        np.savez(fh, sha256=_sha256(path), header=np.array(header, dtype=str), values=values,
                 lengths=lengths, cells=np.array(cells, dtype=str).T, bins=bins)


def _read_companion(path: Path, M: int, k: int):
    """What ``_parse_csv`` gives for ``path`` (no rejected cell, no
    field-count fault), from its companion; None unless the companion holds
    every member with the dtype and shape this layout needs and was written
    for the bytes now in ``path``."""
    try:
        with np.load(_companion(path), allow_pickle=False) as z:
            if sorted(z.files) != ["bins", "cells", "header", "lengths", "sha256", "values"]:
                return None
            digest, header, values, lengths, cells, bins = (z[name] for name in (
                "sha256", "header", "values", "lengths", "cells", "bins"))
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile):
        return None  # TypeError: a bare .npy array has no members
    has_bin = "action_bin" in header.tolist()
    if not (digest.dtype == np.uint8 and digest.shape == (32,)
            and header.dtype.kind == cells.dtype.kind == "U" and header.ndim == 1
            and values.dtype == np.float64 and values.ndim == 2 and values.shape[1] == M + 2
            and lengths.dtype == bins.dtype == np.int64 and lengths.ndim == 1
            and cells.shape == (len(lengths), k + 3) and bool(np.all(lengths > 0))
            and int(lengths.sum()) == len(values)
            and bins.shape == ((len(values),) if has_bin else (0,))
            and np.array_equal(digest, _sha256(path))):
        return None
    encounter = np.repeat(np.arange(len(lengths)), lengths)
    t = block_rows(0, lengths)
    columns = [(cell, code[encounter]) for cell, code in map(_factorize, cells.T.tolist())]
    columns.insert(1, (np.arange(int(lengths.max(initial=0))).astype(object), t))
    labels, code = np.unique(bins, return_inverse=True)
    columns.append((labels.astype(object), code))
    return header.tolist(), values, columns, {}, None


def load_cohort(path, schema: FeatureSchema,
                allow_negative_actions: bool = False) -> CohortDataset:
    """Parse a cohort CSV into grouped, timestep-sorted trajectories.

    Each encounter's timesteps must run 0..T-1 without gaps, in any row
    order, and its rows must agree on attributes and outcome. Feature and
    dose cells are finite numbers or empty (missing); doses may not be
    missing. Raw doses must be nonnegative; pass
    ``allow_negative_actions=True`` for cohorts whose actions were already
    z-normalized. An ``action_bin`` cell is empty or a joint action index
    in 0..N_ACTIONS-1. The columns are read from the companion
    ``write_cohort`` left for these exact bytes, or else parsed in one
    ``csv.reader`` pass with ``float()`` on each feature and dose cell, and
    checked as whole arrays (text columns through their distinct cells); of
    several faults, the one a row-by-row parser meets first is raised.
    The cohort's ``block`` is the loaded block itself when its rows are
    already in (first appearance, timestep) order, as in every file
    ``write_cohort`` writes, else a copy in that order.
    """
    from .preprocess import N_ACTIONS  # preprocess imports this module
    path = Path(path)
    attrs = list(schema.attributes)
    M, k = schema.n_features, len(attrs)
    float_names = list(schema.names) + ["action_fluid", "action_vaso"]

    def check_header(header):
        want = (["id", "timestep"] + attrs + float_names + ["mortality_step", "outcome_alive"]
                + (["action_bin"] if "action_bin" in header else []))
        if header != want:
            raise ParseError(1, f"header mismatch: expected {want}, got {header}")

    stored = _read_companion(path, M, k)
    if stored is not None:
        check_header(stored[0])
    header, values, columns, rejected, error = stored or _parse_csv(path, k, M, check_header)

    # Rows [0, n) are still checked and ``error`` is the fault of row n (line
    # n + 2): checks run in the order a row-by-row parser meets them, and
    # each replaces ``error`` only with a fault in an earlier row.
    n = len(values)
    if n == 0:
        if error is not None:
            raise error
        return CohortDataset.from_trajectories(schema, [])

    def flag(bad, make):
        nonlocal n, error
        rows = np.flatnonzero(bad[:n])
        if rows.size:
            n, error = int(rows[0]), make(int(rows[0]))

    if "action_bin" not in header:  # a bin column of empty cells
        columns = [*columns[:4 + k], (np.array([""], dtype=object), np.zeros(n, np.int64))]
    # each text column as its distinct cells, first appearance first, and each
    # row's code among them: checks run on the cells, reach rows through codes
    cells, codes = zip(*columns)

    def cell(c, r):  # the text of column c in row r
        return str(cells[c][codes[c][r]])

    ts, bad, empty = _ints(*columns[1])
    flag(bad | empty, lambda r: ParseError(r + 2, f"bad timestep {cell(1, r)!r}"))
    for j, a in enumerate(attrs):
        flag(~np.isin(cells[2 + j], schema.attributes[a])[codes[2 + j]], lambda r: IntegrityError(
            f"line {r + 2}: unknown value {cell(2 + j, r)!r} for attribute {a!r}"))
    faulty = np.isinf(values)
    faulty.flat[list(rejected)] = True

    def float_error(r):
        c = int(np.argmax(faulty[r]))
        text = rejected.get(r * (M + 2) + c)
        return ParseError(r + 2, f"column {float_names[c]!r}: " + (
            "not finite" if text is None else f"not a number: {text!r}"))

    flag(faulty.any(axis=1), float_error)
    flag(np.isnan(values[:, M:]).any(axis=1),
         lambda r: ParseError(r + 2, "actions may not be missing"))
    if not allow_negative_actions:
        flag((values[:, M:] < 0).any(axis=1),
             lambda r: IntegrityError(f"line {r + 2}: negative dose"))
    mort, bad, survived = _ints(*columns[2 + k])
    flag(bad, lambda r: ParseError(r + 2, f"bad mortality_step {cell(2 + k, r)!r}"))
    flag(~np.isin(cells[3 + k], ("0", "1", "false", "true", "False", "True"))[codes[3 + k]],
         lambda r: ParseError(r + 2, f"bad outcome_alive {cell(3 + k, r)!r}"))
    alive = np.isin(cells[3 + k], ("1", "true", "True"))[codes[3 + k]]
    bins, bad, unbinned = _ints(*columns[-1])
    flag(bad | (bins < 0) | (bins >= N_ACTIONS),
         lambda r: ParseError(r + 2, f"bad action_bin {cell(4 + k, r)!r}"))

    # group rows by (first appearance of id, timestep); an equal neighbour is a duplicate
    code, ts = codes[0][:n], ts[:n]
    order = np.lexsort((ts, code))
    c, t = code[order], ts[order]
    repeat = np.zeros(n, bool)
    repeat[order[1:][(c[1:] == c[:-1]) & (t[1:] == t[:-1])]] = True
    flag(repeat, lambda r: IntegrityError(f"duplicate (id={cell(0, r)}, timestep={ts[r]})"))
    if error is not None:
        raise error

    # The same for trajectories in first-appearance order: [0, g) are still
    # checked, ``error`` is a fault of trajectory g, found at sorted row i.
    starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
    lengths = np.diff(np.append(starts, n))
    head = np.repeat(starts, lengths)  # sorted row of each row's timestep 0
    g = len(starts)

    def traj_flag(bad, make):
        nonlocal g, error
        at = np.flatnonzero(bad & (c < g))
        if at.size:
            g, error = int(c[at[0]]), make(int(at[0]))

    def differs(x):  # rows whose value differs from their trajectory's timestep 0
        return x[order] != x[order][head]

    traj_flag(t != np.arange(n) - head, lambda i: ParseError(order[i] + 2, (
        f"trajectory {cell(0, order[i])}: expected timestep {i - head[i]}, got {t[i]}")))
    # outcome cells are compared by value: "1" and "true" agree
    traj_flag(differs(survived) | differs(mort) | differs(alive), lambda i: IntegrityError(
        f"trajectory {cell(0, order[i])}: inconsistent outcome columns"))
    for j, a in enumerate(attrs):
        traj_flag(differs(codes[2 + j]), lambda i: IntegrityError(
            f"trajectory {cell(0, order[i])}: inconsistent attribute {a!r}"))

    # the checks ``PatientTrajectory`` makes, per trajectory, before its fault
    rows = order[starts]  # each trajectory's timestep 0
    ids = cells[0][codes[0][rows]]
    dead, alive = ~survived[rows], alive[rows]
    mort = np.where(dead, mort[rows], -1)
    out_of_range = dead & ((mort < 0) | (mort >= lengths))
    at = np.flatnonzero((out_of_range | (dead & alive))[:g])
    if at.size:
        raise IntegrityError(f"trajectory {ids[at[0]]}: " + (
            "mortality_step out of range" if out_of_range[at[0]]
            else "mortality_step set but outcome_alive"))
    if error is not None:
        raise error

    if not np.array_equal(order, np.arange(n)):  # rows are gathered only when out of order
        values, bins, unbinned = values[order], bins[order], unbinned[order]
    binned = ~np.logical_or.reduceat(unbinned, starts)
    return CohortDataset(
        schema=schema, block=values, bins=bins if binned.any() else None, first=starts,
        lengths=lengths, ids=ids,
        attributes={a: cells[2 + j][codes[2 + j][rows]] for j, a in enumerate(attrs)},
        mortality_step=mort, outcome_alive=alive, binned=binned)


def _quoted(column) -> list:
    """Each cell as ``csv.writer`` writes it inside a longer row: in double
    quotes if it holds a comma, a double quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    out = []
    for cell in column:
        buf.seek(0)
        buf.truncate()
        writer.writerow((cell, ""))  # a lone empty field would be written as ""
        out.append(buf.getvalue()[:-3])  # without the trailing ",\r\n"
    return out


def write_cohort(cohort: CohortDataset, path) -> None:
    """Emit the cohort CSV; inverse of ``load_cohort`` (bit-exact round trip).

    The rows are read from ``cohort.block`` itself when the encounters fill
    it back to back (as every ``synth``, ``preprocess`` and loaded cohort
    does), and gathered by row index otherwise. Cells are built a column at
    a time (floats as ``repr``, NaN as an empty cell, each encounter's text
    cells quoted once as ``csv.writer`` would), and the lines of 16
    encounters are joined into one string and written at once, which bounds
    the memory strings take. Float, timestep and bin cells never need
    quotes. The column companion is written after the CSV is closed."""
    path = Path(path)
    attrs = list(cohort.schema.attributes)
    has_bins = bool(cohort.binned.all())
    header = (["id", "timestep"] + attrs + list(cohort.schema.names)
              + ["action_fluid", "action_vaso", "mortality_step", "outcome_alive"]
              + (["action_bin"] if has_bins else []))
    # one cell per encounter: id, attributes, mortality_step, outcome_alive
    cells = [[str(c) for c in column.tolist()]
             for column in (cohort.ids, *(cohort.attributes[a] for a in attrs))]
    cells += [["" if m < 0 else str(m) for m in cohort.mortality_step.tolist()],
              ["1" if alive else "0" for alive in cohort.outcome_alive.tolist()]]
    lengths = cohort.lengths
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    values, bins = cohort.block, cohort.bins
    if not (np.array_equal(cohort.first, offsets[:-1]) and offsets[-1] == len(values)):
        index = cohort.row_index()
        values, bins = values[index], None if bins is None else bins[index]
    if not has_bins or bins is None:  # None: a cohort of no encounters
        bins = np.empty(0, np.int64)

    quoted = [_quoted(column) for column in cells]
    digits = [str(t) for t in range(int(lengths.max(initial=0)))]

    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(lengths), 16):
            chunk = lengths[lo:lo + 16].tolist()
            rows = slice(offsets[lo], offsets[lo + len(chunk)])
            floats = [list(map(repr, col.tolist())) for col in values[rows].T]
            for r, j in zip(*np.nonzero(np.isnan(values[rows]))):
                floats[j][r] = ""
            text = [[cell for cell, T in zip(column[lo:lo + 16], chunk) for _ in range(T)]
                    for column in quoted]  # one cell per encounter -> one per row
            fh.write("\r\n".join(map(",".join, zip(
                text[0], [d for T in chunk for d in digits[:T]], *text[1:-2], *floats,
                *text[-2:], *([list(map(str, bins[rows].tolist()))] if has_bins else [])))))
            fh.write("\r\n")
    # every NaN as an empty cell parses; a copy only if some NaN has other bits
    if (values.view(np.int64)[np.isnan(values)] != np.array(np.nan).view(np.int64)).any():
        values = np.where(np.isnan(values), np.nan, values)
    _write_companion(path, [h.strip() for h in header], values, lengths, cells, bins)


# A cohort directory's files: the CSV, its column companion, the schema and
# one sidecar per optional cohort attribute, named here only.
_CSV, _SCHEMA = "cohort.csv", "schema.json"
_SIDECARS = {"split": "splits.json", "norm_stats": "norm_stats.json", "binning": "binning.json"}
COHORT_DIR_FILES = (_CSV, _companion(Path(_CSV)).name, _SCHEMA, *_SIDECARS.values())


def save_cohort_dir(cohort: CohortDataset, out_dir) -> None:
    """Write cohort.csv (with its column companion) + schema.json, plus
    splits/norm-stats/binning sidecars when the cohort carries them. A
    sidecar it does not carry is deleted, so that a reused directory does
    not describe the new cohort with an old one's statistics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_cohort(cohort, out_dir / _CSV)
    (out_dir / _SCHEMA).write_text(
        json.dumps(cohort.schema.to_json(), indent=2), encoding="utf-8")
    sidecars = {
        "split": None if cohort.split is None else json.dumps(
            dict(zip(cohort.ids.tolist(), cohort.split.tolist())), indent=2, sort_keys=True),
        "norm_stats": None if cohort.norm_stats is None
        else json.dumps(cohort.norm_stats.to_json()),
        "binning": None if cohort.binning is None else json.dumps(cohort.binning.to_json()),
    }
    for attr, text in sidecars.items():
        if text is None:
            (out_dir / _SIDECARS[attr]).unlink(missing_ok=True)
        else:
            (out_dir / _SIDECARS[attr]).write_text(text, encoding="utf-8")


def load_cohort_dir(path) -> CohortDataset:
    """Load a cohort directory written by ``save_cohort_dir``; every JSON
    sidecar must match the spec of the object it holds."""
    from .preprocess import ActionBinning, NormStats
    path = Path(path)
    try:
        schema = FeatureSchema.from_json(read_json(path / _SCHEMA, FeatureSchema.SPEC))
    except IntegrityError as exc:  # a rule no spec states, e.g. unique feature names
        raise IntegrityError(f"{path / _SCHEMA}: {exc}") from exc
    # a norm-stats sidecar marks a preprocessed cohort: actions are z-scored
    cohort = load_cohort(path / _CSV, schema,
                         allow_negative_actions=(path / _SIDECARS["norm_stats"]).exists())
    sidecars = {  # the split sidecar maps ids to tags; the column holds them in id order
        "split": (lambda split: np.array([split[i] for i in cohort.ids.tolist()], dtype=object),
                  dict.fromkeys(cohort.ids.tolist(), SPLIT_TAGS)),
        "norm_stats": (NormStats.from_json, NormStats.spec(schema.n_features)),
        "binning": (ActionBinning.from_json, ActionBinning.SPEC),
    }
    for attr, (from_json, spec) in sidecars.items():
        if (path / _SIDECARS[attr]).exists():
            setattr(cohort, attr, from_json(read_json(path / _SIDECARS[attr], spec)))
    return cohort


def assign_splits(cohort: CohortDataset, seed: int) -> CohortDataset:
    """Tag trajectories train/val/test at ~6:2:2, deterministically per seed."""
    if len(cohort) == 0:
        raise IntegrityError("cannot split an empty cohort")
    n = len(cohort)
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val = round(0.6 * n), round(0.2 * n)
    split = np.empty(n, dtype=object)
    split[order] = [SPLIT_TAGS[(r >= n_train) + (r >= n_train + n_val)] for r in range(n)]
    return replace(cohort, split=split)


def filter_subgroup(cohort: CohortDataset, key: SubgroupKey) -> CohortDataset:
    """Restrict to one subgroup, whose encounters keep their rows in the
    cohort's block; normalization statistics are inherited."""
    if key.attribute not in cohort.schema.attributes:
        raise IntegrityError(f"attribute {key.attribute!r} not declared in cohort")
    keep = cohort.attributes[key.attribute] == key.value
    if not keep.any():
        raise EmptySubgroupError(f"no trajectories match {key}")
    return cohort.select(keep)
