"""Model checkpoints as a directory of tensor files plus a meta record.

Each named parameter tensor goes to its own container file; meta.json
records the model geometry needed to rebuild ModelParams.  Writing is
deterministic (sorted keys, no timestamps), so identical models produce
identical checkpoint bytes.
"""

from __future__ import annotations

import json
import os

from .encoders import _params_from_tensors
from .errors import ContractError, DataError
from .tensorfile import load_tensor, save_tensor

META_FILE = "meta.json"
FORMAT_VERSION = 1


def save_checkpoint(directory, params, extra=None):
    """Write params into directory (one tensor file per parameter)."""
    os.makedirs(directory, exist_ok=True)
    tensors = params.named_tensors()
    for name, tensor in tensors.items():
        save_tensor(os.path.join(directory, f"{name}.xmrt"), tensor)
    meta = {
        "format": FORMAT_VERSION,
        "tensors": sorted(tensors),
        "has_heads": params.has_heads,
        "n_clusters": params.n_clusters if params.has_heads else None,
        "rng_seed": params.rng_seed,
        "extra": dict(extra) if extra else {},
    }
    with open(os.path.join(directory, META_FILE), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(directory):
    """Rebuild ModelParams from a checkpoint directory."""
    meta_path = os.path.join(directory, META_FILE)
    if not os.path.exists(meta_path):
        raise DataError(f"{directory}: not a checkpoint (no {META_FILE})")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("format") != FORMAT_VERSION:
        raise DataError(
            f"{directory}: checkpoint format {meta.get('format')}, "
            f"expected {FORMAT_VERSION}")
    tensors = {}
    for name in meta["tensors"]:
        path = os.path.join(directory, f"{name}.xmrt")
        if not os.path.exists(path):
            raise DataError(f"{directory}: missing tensor file {name}.xmrt")
        tensors[name] = load_tensor(path)
    try:
        return _params_from_tensors(tensors, bool(meta.get("has_heads")),
                                    int(meta.get("rng_seed", 0)))
    except ContractError as exc:
        # Tensors that disagree with meta.json or each other are bad data.
        raise DataError(f"{directory}: {exc}") from None


def read_checkpoint_extra(directory):
    """The free-form extra record stored alongside a checkpoint."""
    with open(os.path.join(directory, META_FILE), "r",
              encoding="utf-8") as fh:
        return json.load(fh).get("extra", {})
