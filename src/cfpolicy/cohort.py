"""Patient trajectory / cohort data model, CSV ingestion and splitting.

On-disk format (see ``write_cohort``): UTF-8 CSV with one row per
(encounter id, timestep) plus a sidecar JSON schema declaring feature
names, kinds, log-normalization flags and attribute vocabularies.
Missing cells are empty fields, never sentinel numbers. Beside each CSV it
writes, ``write_cohort`` keeps a column companion (``cohort.csv.npz``):
the parsed columns plus the SHA-256 of the CSV bytes, so that a later
``load_cohort`` of the same bytes skips the text parse. It is a cache:
deleting it is safe, and it is ignored once the CSV changes.
"""

from __future__ import annotations

import csv
import io
import json
import re
import zipfile
from dataclasses import dataclass, replace
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


# float() never returns this NaN payload, so it marks the cells float() rejects.
_UNPARSED = np.uint64(0x7FF8_0000_0BAD_0000)
_SCAN_BYTES = 1 << 22


def _csv_records(path: Path):
    """The header fields and the field count of every later record, as
    ``csv.reader`` splits them: a record ends at LF, CRLF or a lone CR
    outside double quotes, commas inside quotes do not count, and a blank
    line has no fields. The bytes are scanned 4 MiB at a time, which bounds
    the temporaries."""
    raw = path.read_bytes()
    if not raw:
        raise ParseError(1, "empty file")
    lone_cr = np.array([m.start() for m in re.finditer(rb"\r(?!\n)", raw)], np.int64)
    quoting, inside, commas, ends, before = b'"' in raw, False, 0, [], []
    for lo in range(0, len(raw), _SCAN_BYTES):
        b = np.frombuffer(raw, np.uint8, min(_SCAN_BYTES, len(raw) - lo), lo)
        quoted = b == ord('"')
        if quoting:
            np.logical_xor.accumulate(quoted, out=quoted)
            if inside:  # the chunk starts inside a quoted field
                np.logical_not(quoted, out=quoted)
            inside = bool(quoted[-1])
        mark = b == ord("\n")
        mark[lone_cr[(lone_cr >= lo) & (lone_cr < lo + b.size)] - lo] = True
        end = np.flatnonzero(np.greater(mark, quoted, out=mark))
        comma = np.flatnonzero(np.greater(np.equal(b, ord(","), out=mark), quoted, out=mark))
        ends.append(lo + end)
        before.append(commas + np.searchsorted(comma, end))  # commas before each record end
        commas += comma.size
    ends, before = np.concatenate(ends), np.concatenate(before)
    if ends.size == 0 or ends[-1] != len(raw) - 1:  # the last record has no line break
        ends, before = np.append(ends, len(raw)), np.append(before, commas)
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = np.diff(before, prepend=0) + 1
    size = ends - starts
    cr_first = np.frombuffer(raw, np.uint8)[starts] == ord("\r")
    widths[(size == 0) | ((size == 1) & cr_first)] = 0
    header = next(csv.reader([raw[:ends[0] + 1].decode("utf-8")]), [])
    return [h.strip() for h in header], widths[1:]


def _ints(cells: np.ndarray):
    """``int()`` of each string cell as int64 (0 where it fails), and the
    mask of the cells it rejects."""
    bad = np.zeros(cells.shape, bool)
    try:
        return cells.astype(np.int64), bad
    except (ValueError, OverflowError):
        for i in range(cells.size):
            try:
                cells[i:i + 1].astype(np.int64)
            except (ValueError, OverflowError):
                bad[i] = True
        return np.where(bad, "0", cells).astype(np.int64), bad


def _parse_columns(path: Path, n: int, k: int, M: int, width: int):
    """The float block of the first ``n`` records (empty cell: NaN, cell
    ``float()`` rejects: the ``_UNPARSED`` NaN), their other columns as
    ``str`` objects, and the rejected cells in row order."""
    opts = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, max_rows=n,
                ndmin=2, usecols=range(2 + k, 4 + k + M))
    unparsed_cells = []

    def parse_float(cell: str) -> float:
        try:
            return float(cell) if cell else float("nan")
        except ValueError:
            unparsed_cells.append(cell)
            return float(_UNPARSED.view(np.float64))

    with path.open(newline="", encoding="utf-8") as fh:  # line breaks as csv.reader sees them
        try:  # numpy's parser accepts a subset of what float() does, with equal values
            values = np.loadtxt(fh, **opts)
        except ValueError:  # an empty cell, or one only float() can judge
            fh.seek(0)
            values = np.loadtxt(fh, converters=parse_float, **opts)
        fh.seek(0)
        opts["usecols"] = [0, 1, *range(2, 2 + k), *range(4 + k + M, width)]
        # id, timestep, attributes, outcome, bin as str objects: for dtype=str
        # numpy first finds the widest cell, which is slower and at n=2000
        # needs a transient of twice the result's size
        text = np.loadtxt(fh, dtype=object, **opts)
    return values, text, unparsed_cells


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
    """The header, float block and other columns (``str`` objects) that
    parsing ``path`` yields, from its companion; None unless the companion
    holds every member with the dtype and shape this layout needs and was
    written for the bytes now in ``path``."""
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
    n = len(values)
    rows = np.repeat(cells.astype(object), lengths, axis=0)
    t = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    digits = np.array([str(i) for i in range(int(lengths.max(initial=0)))], dtype=object)
    columns = [rows[:, :1], digits[t][:, None], rows[:, 1:]]
    if has_bin:
        labels, code = np.unique(bins, return_inverse=True)
        columns.append(np.array([str(b) for b in labels.tolist()], dtype=object)[code][:, None])
    return header.tolist(), values, np.concatenate(columns, axis=1)


def load_cohort(path, schema: FeatureSchema,
                allow_negative_actions: bool = False) -> CohortDataset:
    """Parse a cohort CSV into grouped, timestep-sorted trajectories.

    Each encounter's timesteps must run 0..T-1 without gaps, in any row
    order, and its rows must agree on attributes and outcome. Feature and
    dose cells are finite numbers or empty (missing); doses may not be
    missing. Raw doses must be nonnegative; pass
    ``allow_negative_actions=True`` for cohorts whose actions were already
    z-normalized. An ``action_bin`` cell is empty or a joint action index
    in 0..N_ACTIONS-1. The float columns and the other columns are each parsed
    in one ``np.loadtxt`` call, or read from the companion ``write_cohort``
    left for these exact bytes, and checked as whole arrays; of several
    faults, the one a row-by-row parser meets first is raised.
    """
    from .preprocess import N_ACTIONS  # preprocess imports this module
    path = Path(path)
    attrs = list(schema.attributes)
    M, k = schema.n_features, len(attrs)
    float_names = list(schema.names) + ["action_fluid", "action_vaso"]
    stored = _read_companion(path, M, k)
    if stored is None:
        header, widths = _csv_records(path)
    else:
        header, values, text = stored
        widths, unparsed_cells = np.full(len(values), len(header)), []
    has_bin = "action_bin" in header
    want = (["id", "timestep"] + attrs + float_names + ["mortality_step", "outcome_alive"]
            + (["action_bin"] if has_bin else []))
    if header != want:
        raise ParseError(1, f"header mismatch: expected {want}, got {header}")

    # Rows [0, n) are still checked and ``error`` is the fault of row n (line
    # n + 2): checks run in the order a row-by-row parser meets them, and
    # each replaces ``error`` only with a fault in an earlier row.
    n, error = len(widths), None

    def flag(bad, make):
        nonlocal n, error
        rows = np.flatnonzero(bad[:n])
        if rows.size:
            n, error = int(rows[0]), make(int(rows[0]))

    flag(widths != len(want), lambda r: ParseError(
        r + 2, f"expected {len(want)} fields, got {widths[r]}"))
    if n == 0:
        if error is not None:
            raise error
        return CohortDataset(schema=schema, trajectories=[])
    if stored is None:
        values, text, unparsed_cells = _parse_columns(path, n, k, M, len(want))
    ids = text[:, 0]

    ts, bad = _ints(text[:, 1])
    flag(bad, lambda r: ParseError(r + 2, f"bad timestep {text[r, 1]!r}"))
    for j, a in enumerate(attrs):
        flag(~np.isin(text[:, 2 + j], schema.attributes[a]), lambda r: IntegrityError(
            f"line {r + 2}: unknown value {text[r, 2 + j]!r} for attribute {a!r}"))
    unparsed = values.view(np.uint64) == _UNPARSED
    faulty = unparsed | np.isinf(values)

    def float_error(r):
        c = int(np.argmax(faulty[r]))
        if unparsed[r, c]:
            return ParseError(r + 2, f"column {float_names[c]!r}: not a number: "
                                     f"{unparsed_cells[int(unparsed[:r].sum())]!r}")
        return ParseError(r + 2, f"column {float_names[c]!r}: not finite")

    flag(faulty.any(axis=1), float_error)
    flag(np.isnan(values[:, M:]).any(axis=1),
         lambda r: ParseError(r + 2, "actions may not be missing"))
    if not allow_negative_actions:
        flag((values[:, M:] < 0).any(axis=1),
             lambda r: IntegrityError(f"line {r + 2}: negative dose"))
    died = text[:, 2 + k] != ""
    mort, bad = _ints(np.where(died, text[:, 2 + k], "0"))
    flag(bad, lambda r: ParseError(r + 2, f"bad mortality_step {text[r, 2 + k]!r}"))
    flag(~np.isin(text[:, 3 + k], ("0", "1", "false", "true", "False", "True")),
         lambda r: ParseError(r + 2, f"bad outcome_alive {text[r, 3 + k]!r}"))
    alive = np.isin(text[:, 3 + k], ("1", "true", "True"))
    binned = text[:, -1] != "" if has_bin else np.zeros(len(text), bool)
    bins, bad = _ints(np.where(binned, text[:, -1], "0"))  # 0 where a row has no bin
    flag(bad | (bins < 0) | (bins >= N_ACTIONS),
         lambda r: ParseError(r + 2, f"bad action_bin {text[r, 4 + k]!r}"))

    # group rows by (first appearance of id, timestep); an equal neighbour is a duplicate
    _, first, inverse = np.unique(ids[:n], return_index=True, return_inverse=True)
    code = np.argsort(np.argsort(first))[inverse]
    order = np.lexsort((ts[:n], code))
    c, t = code[order], ts[:n][order]
    repeat = np.zeros(n, bool)
    repeat[order[1:][(c[1:] == c[:-1]) & (t[1:] == t[:-1])]] = True
    flag(repeat, lambda r: IntegrityError(f"duplicate (id={ids[r]}, timestep={ts[r]})"))
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
        f"trajectory {ids[order[i]]}: expected timestep {i - head[i]}, got {t[i]}")))
    traj_flag(differs(died) | differs(mort) | differs(alive), lambda i: IntegrityError(
        f"trajectory {ids[order[i]]}: inconsistent outcome columns"))
    for j, a in enumerate(attrs):
        traj_flag(differs(text[:, 2 + j]), lambda i: IntegrityError(
            f"trajectory {ids[order[i]]}: inconsistent attribute {a!r}"))

    states, actions, bins = values[:, :M][order], values[:, M:][order], bins[order]
    complete = np.logical_and.reduceat(binned[order], starts)
    trajectories = []
    for i, (s, e, r) in enumerate(zip(starts.tolist(), (starts + lengths).tolist(),
                                      order[starts].tolist())):
        if i == g:
            raise error
        trajectories.append(PatientTrajectory(
            id=ids[r], attributes={a: text[r, 2 + j] for j, a in enumerate(attrs)},
            states=states[s:e], actions=actions[s:e],
            mortality_step=int(mort[r]) if died[r] else None, outcome_alive=bool(alive[r]),
            action_bins=bins[s:e] if complete[i] else None))
    return CohortDataset(schema=schema, trajectories=trajectories)


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

    Cells are built a column at a time (floats as ``repr``, NaN as an empty
    cell, each encounter's text cells quoted once as ``csv.writer`` would),
    and the lines of 16 encounters are joined into one string and written
    at once, which bounds the memory strings take. Float, timestep and bin
    cells never need quotes. The column companion is written after the CSV
    is closed."""
    path = Path(path)
    trajs = cohort.trajectories
    attrs = list(cohort.schema.attributes)
    has_bins = all(tr.action_bins is not None for tr in trajs)
    header = (["id", "timestep"] + attrs + list(cohort.schema.names)
              + ["action_fluid", "action_vaso", "mortality_step", "outcome_alive"]
              + (["action_bin"] if has_bins else []))
    # one cell per encounter: id, attributes, mortality_step, outcome_alive
    cells = [[str(tr.id) for tr in trajs], *([str(tr.attributes[a]) for tr in trajs]
                                             for a in attrs),
             ["" if tr.mortality_step is None else str(tr.mortality_step) for tr in trajs],
             ["1" if tr.outcome_alive else "0" for tr in trajs]]
    lengths = np.array([tr.T for tr in trajs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    values = np.concatenate([np.empty((0, cohort.schema.n_features + 2))]
                            + [np.column_stack([tr.states, tr.actions]) for tr in trajs])
    bins = np.concatenate([np.empty(0, np.int64)]
                          + [tr.action_bins for tr in trajs if has_bins]).astype(np.int64)

    quoted = [_quoted(column) for column in cells]
    digits = [str(t) for t in range(int(lengths.max(initial=0)))]

    def per_row(chunk, column):  # one cell per trajectory -> one per row
        return [cell for cell, tr in zip(column, chunk) for _ in range(tr.T)]

    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(trajs), 16):
            chunk = trajs[lo:lo + 16]
            rows = slice(offsets[lo], offsets[lo + len(chunk)])
            floats = [list(map(repr, col.tolist())) for col in values[rows].T]
            for r, j in zip(*np.nonzero(np.isnan(values[rows]))):
                floats[j][r] = ""
            text = [per_row(chunk, column[lo:lo + 16]) for column in quoted]
            fh.write("\r\n".join(map(",".join, zip(
                text[0], [d for tr in chunk for d in digits[:tr.T]], *text[1:-2], *floats,
                *text[-2:], *([list(map(str, bins[rows].tolist()))] if has_bins else [])))))
            fh.write("\r\n")
    np.copyto(values, np.nan, where=np.isnan(values))  # as an empty cell parses
    _write_companion(path, [h.strip() for h in header], values, lengths, cells, bins)


def save_cohort_dir(cohort: CohortDataset, out_dir) -> None:
    """Write cohort.csv (with its column companion) + schema.json, plus
    splits/norm-stats/binning sidecars when the cohort carries them. A
    sidecar it does not carry is deleted, so that a reused directory does
    not describe the new cohort with an old one's statistics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_cohort(cohort, out_dir / "cohort.csv")
    (out_dir / "schema.json").write_text(
        json.dumps(cohort.schema.to_json(), indent=2), encoding="utf-8")
    sidecars = {
        "splits.json": None if cohort.split is None
        else json.dumps(cohort.split, indent=2, sort_keys=True),
        "norm_stats.json": None if cohort.norm_stats is None
        else json.dumps(cohort.norm_stats.to_json()),
        "binning.json": None if cohort.binning is None else json.dumps(cohort.binning.to_json()),
    }
    for name, text in sidecars.items():
        if text is None:
            (out_dir / name).unlink(missing_ok=True)
        else:
            (out_dir / name).write_text(text, encoding="utf-8")


def load_cohort_dir(path) -> CohortDataset:
    """Load a cohort directory written by ``save_cohort_dir``; every JSON
    sidecar must match the spec of the object it holds."""
    from .preprocess import ActionBinning, NormStats
    path = Path(path)
    try:
        schema = FeatureSchema.from_json(read_json(path / "schema.json", FeatureSchema.SPEC))
    except IntegrityError as exc:  # a rule no spec states, e.g. unique feature names
        raise IntegrityError(f"{path / 'schema.json'}: {exc}") from exc
    # a norm-stats sidecar marks a preprocessed cohort: actions are z-scored
    cohort = load_cohort(path / "cohort.csv", schema,
                         allow_negative_actions=(path / "norm_stats.json").exists())
    sidecars = {
        "split": ("splits.json", dict, {tr.id: SPLIT_TAGS for tr in cohort.trajectories}),
        "norm_stats": ("norm_stats.json", NormStats.from_json,
                       NormStats.spec(schema.n_features)),
        "binning": ("binning.json", ActionBinning.from_json, ActionBinning.SPEC),
    }
    for attr, (name, from_json, spec) in sidecars.items():
        if (path / name).exists():
            setattr(cohort, attr, from_json(read_json(path / name, spec)))
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
