"""Model checkpoints, plus the one JSON reader and writer for run records.

A checkpoint is its model's named tensors: one container file per
`named_tensors()` entry (the head pair as its four stacked `heads.<layer>`
tensors) plus a meta.json of the format and the tensor names; the geometry
(heads, cluster count) is read off the tensors.  Writing is deterministic.
"""

from __future__ import annotations

import json
import os

from .encoders import _ENCODER_TENSORS, _HEAD_TENSORS, _params_from_tensors
from .errors import ContractError, DataError
from .tensorfile import (_read_text, atomic_open, discard_file, load_tensor,
                         save_tensor)

META_FILE = "meta.json"
FORMAT_VERSION = 2


def write_json(path, payload):
    """Write payload to path as indented, key-sorted JSON and a newline."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON object stored at path; anything else is a DataError."""
    try:
        payload = json.loads(_read_text(path))
    except ValueError as exc:   # JSONDecodeError
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def save_checkpoint(directory, params):
    """Write params into directory (one tensor file per parameter)."""
    os.makedirs(directory, exist_ok=True)
    # Old meta.json first, new one last: a write that fails partway
    # leaves no checkpoint, never a mix of old and new tensors.
    meta_path = os.path.join(directory, META_FILE)
    discard_file(meta_path)
    tensors = params.named_tensors()
    for name, tensor in tensors.items():
        save_tensor(os.path.join(directory, f"{name}.xmrt"), tensor)
    write_json(meta_path,
               {"format": FORMAT_VERSION, "tensors": sorted(tensors)})


def load_checkpoint(directory):
    """Rebuild ModelParams from a checkpoint directory."""
    meta_path = os.path.join(directory, META_FILE)
    if not os.path.exists(meta_path):
        raise DataError(f"{directory}: not a checkpoint (no {META_FILE})")
    meta = read_json(meta_path)
    if meta.get("format") != FORMAT_VERSION:
        raise DataError(
            f"{directory}: checkpoint format {meta.get('format')}, "
            f"expected {FORMAT_VERSION}")
    names = meta.get("tensors")
    # Checked before any file opens, so a listed name never becomes a path.
    if not (isinstance(names, list) and all(
            name in _ENCODER_TENSORS + _HEAD_TENSORS for name in names)):
        raise DataError(
            f"{meta_path}: tensors must be a list of parameter names")
    has_heads = any(name in _HEAD_TENSORS for name in names)
    expected = set(_ENCODER_TENSORS).union(_HEAD_TENSORS if has_heads else ())
    if set(names) != expected:   # a partial set names each missing tensor
        raise DataError(f"{directory}: tensor names do not match: "
                        f"{sorted(expected.difference(names))}")
    tensors = {}
    for name in names:
        path = os.path.join(directory, f"{name}.xmrt")
        if not os.path.exists(path):
            raise DataError(f"{directory}: missing tensor file {name}.xmrt")
        tensors[name] = load_tensor(path)
    try:
        return _params_from_tensors(tensors, has_heads)
    except ContractError as exc:   # shapes that disagree
        raise DataError(f"{directory}: {exc}") from None
