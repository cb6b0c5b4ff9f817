"""Exception types shared across the package, and the check that every
JSON object a command reads goes through."""

import json
import reprlib
import sys
from pathlib import Path


class CfPolicyError(Exception):
    """Base class for all package errors."""


class ParseError(CfPolicyError):
    """Malformed row in a cohort file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(CfPolicyError):
    """Cohort-level consistency violation (duplicate rows, bad attributes)."""


class EmptySubgroupError(CfPolicyError):
    """Subgroup filter matched no trajectories."""


class MissingFeatureError(CfPolicyError):
    """A feature has zero observed cells in the train split."""


class DegenerateBinningError(CfPolicyError):
    """No nonzero doses available to fit quantile cutoffs for a drug."""


class SchemaMismatchError(CfPolicyError):
    """Input shape or feature schema does not match the model's."""


class TrainingDivergenceError(CfPolicyError):
    """Non-finite loss or gradient during training."""


class RolloutBlowupError(CfPolicyError):
    """Non-finite state during a model rollout; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        super().__init__(f"non-finite state at rollout step {step}" + (f": {message}" if message else ""))
        self.step = step


class UndefinedMetricError(CfPolicyError):
    """Metric is undefined for the given split (e.g. <2 distinct labels)."""


_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def _got(obj) -> str:
    return {dict: "an object", list: "a list"}.get(type(obj)) or reprlib.repr(obj)


def check(obj, spec, where: str, key: str = ""):
    """``obj``, parsed JSON, if it matches ``spec``; otherwise CfPolicyError
    naming ``where`` and the key path of the first mismatch, e.g.
    ``bc.npz: binning.vaso_cutoffs: missing``. A spec is ``float`` (a
    finite number; a bool is no number), ``int``, ``str``, ``bool``, an
    allowed value (a string or None), ``{key: spec, ...}`` (exactly these
    keys), ``{str: spec}`` (any keys), ``[spec, n]`` (n items),
    ``[spec, ...]`` (one or more items) or a tuple of alternatives."""
    def fail(problem, at=key):
        raise CfPolicyError(f"{where}: {at}: {problem}" if at else f"{where}: {problem}")

    if isinstance(spec, tuple):
        structured = [o for o in spec if isinstance(o, (type, dict, list, tuple))]
        if any(type(obj) is type(o) and obj == o for o in spec if o not in structured):
            return obj  # an allowed value, found without a raise per miss
        for option in structured:
            try:
                return check(obj, option, where, key)
            except CfPolicyError as exc:
                error = exc
        if isinstance(spec[-1], (type, dict, list)):
            raise error  # the mismatch of the last structured alternative
        fail(f"expected one of {', '.join(map(repr, spec))}, got {_got(obj)}")
    elif isinstance(spec, dict):
        if type(obj) is not dict:
            fail(f"expected an object, got {_got(obj)}")
        if str in spec:  # any keys
            spec = dict.fromkeys(obj, spec[str])
        for k in [*spec, *(k for k in obj if k not in spec)]:
            at = f"{key}.{k}" if key else k
            if k not in obj or k not in spec:
                fail("missing" if k not in obj else "unexpected key", at)
            check(obj[k], spec[k], where, at)
    elif isinstance(spec, list):
        item, n = spec
        if type(obj) is not list:
            fail(f"expected a list, got {_got(obj)}")
        if (not obj) if n is ... else len(obj) != n:
            fail(f"expected {'one or more' if n is ... else n} items, got {len(obj)}")
        for i, value in enumerate(obj):
            check(value, item, where, f"{key}[{i}]")
    elif spec is float:
        if type(obj) not in (int, float) or not abs(obj) <= sys.float_info.max:  # nan too
            fail(f"expected a finite number, got {_got(obj)}")
    elif isinstance(spec, type):
        if type(obj) is not spec:
            fail(f"expected {_NAMES[spec]}, got {_got(obj)}")
    elif type(obj) is not type(spec) or obj != spec:  # an allowed value
        fail(f"expected {spec!r}, got {_got(obj)}")
    return obj


def read_json(path, spec):
    """The JSON value in the file ``path``, checked against ``spec``."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CfPolicyError(f"{path}: not JSON: {exc}") from exc
    return check(obj, spec, str(path))
