"""Checkpoint bundles: npz weight dump plus a JSON metadata header."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..errors import CfPolicyError

FORMAT_VERSION = 1


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    path = Path(path)
    meta = dict(meta)
    meta["format_version"] = FORMAT_VERSION
    payload = {f"arr.{k}": np.asarray(v) for k, v in arrays.items()}
    payload["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with path.open("wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path):
    """(arrays, meta) of a bundle written by ``save_checkpoint``; a file that
    is not one raises CfPolicyError naming it."""
    path = Path(path)
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            arrays = {k[4:]: data[k] for k in data.files if k.startswith("arr.")}
    except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise CfPolicyError(f"{path} is not a checkpoint: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
        raise CfPolicyError(f"unsupported checkpoint version in {path}")
    return arrays, meta
