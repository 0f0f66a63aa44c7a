"""Dataset manifests, relevance files, and label files as delimited text.

A manifest is a TSV listing one caption per row with its paired audio
item, tensor references, and split.  Tensor references have the form
"file.xmrt:row", resolved relative to the manifest's directory.  A
relevance file lists, per query, the ordered relevant gallery ids (first
entry is the query's paired item).  A label file carries one cluster
label per item with its topic probabilities.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .evaluation import RelevanceMap
from .tensorfile import atomic_open, load_tensor
from .training import PairedDataset

SPLITS = ("train", "val", "test")
MANIFEST_HEADER = ("audio_id", "caption_id", "audio_ref", "caption_ref",
                   "split")


@dataclass(frozen=True)
class ManifestItem:
    """One caption row: its audio pairing, feature refs, and split."""

    audio_id: str
    caption_id: str
    audio_ref: str
    caption_ref: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(
                f"split must be one of {SPLITS}, got {self.split!r}")
        for field in ("audio_ref", "caption_ref"):
            parse_ref(getattr(self, field))


@dataclass(frozen=True)
class Manifest:
    """All caption rows plus the feature widths they reference."""

    items: tuple
    d_audio: int
    d_text: int

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise DataError("manifest lists no items")
        if self.d_audio < 1 or self.d_text < 1:
            raise DataError("feature dims must be >= 1")
        seen_captions = set()
        audio_refs = {}
        for item in items:
            if item.caption_id in seen_captions:
                raise DataError(
                    f"caption id {item.caption_id!r} appears twice")
            seen_captions.add(item.caption_id)
            prior = audio_refs.setdefault(item.audio_id, item.audio_ref)
            if prior != item.audio_ref:
                raise DataError(
                    f"audio id {item.audio_id!r} maps to two refs")
        object.__setattr__(self, "items", items)

    def split_items(self, split):
        if split not in SPLITS:
            raise ContractError(f"split must be one of {SPLITS}")
        return [item for item in self.items if item.split == split]


def parse_ref(ref):
    """Split a "file.xmrt:row" reference into (path, row)."""
    if ":" not in ref:
        raise DataError(f"bad tensor ref {ref!r}, expected 'file:row'")
    path, _, row = ref.rpartition(":")
    try:
        row = int(row)
    except ValueError:
        raise DataError(f"bad row index in tensor ref {ref!r}") from None
    if not path or row < 0:
        raise DataError(f"bad tensor ref {ref!r}")
    return path, row


def write_manifest(path, manifest):
    """Write a manifest TSV with its dims pragma line."""
    lines = [f"#xmrt-manifest\td_audio={manifest.d_audio}"
             f"\td_text={manifest.d_text}",
             "\t".join(MANIFEST_HEADER)]
    for item in manifest.items:
        lines.append("\t".join([item.audio_id, item.caption_id,
                                item.audio_ref, item.caption_ref,
                                item.split]))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path):
    """Parse a manifest TSV written by write_manifest."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if len(lines) < 3:
        raise DataError(f"{path}: manifest needs pragma, header, and rows")
    pragma = lines[0].split("\t")
    if pragma[0] != "#xmrt-manifest" or len(pragma) != 3:
        raise DataError(f"{path}: first line must be the dims pragma")
    dims = {}
    for part in pragma[1:]:
        key, _, value = part.partition("=")
        try:
            dims[key] = int(value)
        except ValueError:
            raise DataError(f"{path}: bad pragma entry {part!r}") from None
    if set(dims) != {"d_audio", "d_text"}:
        raise DataError(f"{path}: pragma must set d_audio and d_text")
    if lines[1].split("\t") != list(MANIFEST_HEADER):
        raise DataError(f"{path}: bad manifest header")
    items = []
    for ln in lines[2:]:
        parts = ln.split("\t")
        if len(parts) != len(MANIFEST_HEADER):
            raise DataError(
                f"{path}: row has {len(parts)} columns, expected "
                f"{len(MANIFEST_HEADER)}")
        items.append(ManifestItem(*parts))
    return Manifest(items=tuple(items), d_audio=dims["d_audio"],
                    d_text=dims["d_text"])


def _gather_rows(base_dir, refs, width, what, tensors):
    """The rows that refs name, in ref order, as a (len(refs), width)
    array: each file is loaded once into `tensors`, which a split load
    shares between its modalities, and its rows gathered by one index."""
    paths, rows = zip(*map(parse_ref, refs))
    paths, rows = np.array(paths, dtype=object), np.array(rows)
    files = dict.fromkeys(paths)
    out = np.empty((len(refs), width)) if len(files) > 1 else None
    for path in files:
        at = np.flatnonzero(paths == path)
        full = os.path.join(base_dir, path)
        if full not in tensors:
            if not os.path.exists(full):
                raise DataError(f"{what} ref {refs[at[0]]!r} points to a "
                                f"missing file {full}")
            tensor = load_tensor(full)
            if tensor.ndim != 2:
                raise DataError(f"{full}: expected a matrix, got rank "
                                f"{tensor.ndim}")
            tensors[full] = tensor
        tensor = tensors[full]
        beyond = at[rows[at] >= tensor.shape[0]]
        if beyond.size:
            raise DataError(
                f"{what} ref {refs[beyond[0]]!r} asks for row "
                f"{rows[beyond[0]]} of {tensor.shape[0]}")
        if tensor.shape[1] != width:
            raise DataError(
                f"{what} file {path} has width {tensor.shape[1]}, "
                f"manifest says {width}")
        if out is None:  # one file: its gather is the split array
            return tensor[rows]
        out[at] = tensor[rows[at]]
    return out


@dataclass(frozen=True)
class LoadedSplit:
    """One split materialized: training rows plus the retrieval gallery.

    `dataset` has one row per caption (audio features repeat when an
    audio carries several captions).  The gallery holds each audio item
    once, in first-appearance order; caption_to_audio indexes captions
    into it.
    """

    dataset: PairedDataset
    gallery_features: np.ndarray
    gallery_ids: tuple
    caption_to_audio: np.ndarray


def load_paired_dataset(manifest_path, split):
    """Materialize one split of a manifest into aligned feature arrays:
    read each referenced tensor file once (also one that audio and caption
    refs share) and gather its rows in split order."""
    manifest = read_manifest(manifest_path)
    items = manifest.split_items(split)
    if not items:
        raise DataError(f"{manifest_path}: split {split!r} is empty")
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    tensors = {}
    audio = _gather_rows(base_dir, [item.audio_ref for item in items],
                         manifest.d_audio, "audio", tensors)
    text = _gather_rows(base_dir, [item.caption_ref for item in items],
                        manifest.d_text, "caption", tensors)
    gallery_index = {}
    caption_to_audio = np.array(
        [gallery_index.setdefault(item.audio_id, len(gallery_index))
         for item in items], dtype=np.int64)
    # the first caption of each gallery item, in gallery order
    first = np.unique(caption_to_audio, return_index=True)[1]
    dataset = PairedDataset(
        audio_features=audio, text_features=text,
        caption_ids=tuple(item.caption_id for item in items))
    return LoadedSplit(dataset=dataset, gallery_features=audio[first],
                       gallery_ids=tuple(gallery_index),
                       caption_to_audio=caption_to_audio)


def write_relevance(path, entries):
    """Write one line per query: query id, then its relevant gallery ids."""
    lines = []
    for query_id, ids in entries:
        if not ids:
            raise DataError(f"query {query_id!r} has no relevant ids")
        lines.append("\t".join([str(query_id)] + [str(i) for i in ids]))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_relevance(path):
    """Parse a relevance file into [(query_id, (id, ...)), ...]."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if not ln.strip():
                continue
            parts = ln.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise DataError(
                    f"{path}: query {parts[0]!r} lists no relevant ids")
            entries.append((parts[0], tuple(parts[1:])))
    if not entries:
        raise DataError(f"{path}: relevance file is empty")
    return entries


def align_relevance(entries, caption_ids, gallery_ids):
    """Build a RelevanceMap for captions against a gallery id order.

    Entries may cover a superset of the split's captions; every split
    caption must appear, and every referenced gallery id must exist.
    """
    by_query = {}
    for query_id, ids in entries:
        if query_id in by_query:
            raise DataError(f"query {query_id!r} listed twice")
        by_query[query_id] = ids
    gallery_pos = {gid: i for i, gid in enumerate(gallery_ids)}
    rows = []
    for cid in caption_ids:
        if cid not in by_query:
            raise DataError(f"caption {cid!r} missing from relevance file")
        try:
            rows.append(tuple(gallery_pos[a] for a in by_query[cid]))
        except KeyError as exc:
            raise DataError(
                f"caption {cid!r} lists unknown gallery id {exc.args[0]!r}"
            ) from None
    return RelevanceMap(entries=tuple(rows))


def relevance_as_indices(entries):
    """Interpret relevance ids as integer gallery indices, in file order."""
    rows = []
    for query_id, ids in entries:
        try:
            rows.append(tuple(int(i) for i in ids))
        except ValueError:
            raise DataError(
                f"query {query_id!r} lists a non-integer gallery index"
            ) from None
    return RelevanceMap(entries=tuple(rows))


def write_labels(path, ids, labels, probabilities):
    """Write per-item cluster labels with their topic probabilities."""
    lab = np.asarray(labels, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if len(ids) != lab.shape[0] or probs.shape[0] != lab.shape[0]:
        raise ContractError("ids, labels, and probabilities disagree")
    lines = ["\t".join([str(item_id), str(label), *map(repr, row)])
             for item_id, label, row in zip(ids, lab.tolist(), probs.tolist())]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_labels(path):
    """Parse a label file into (ids, labels, probabilities)."""
    ids = []
    labels = []
    probs = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            if not ln.strip():
                continue
            parts = ln.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}: bad label row {ln!r}")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DataError(f"{path}: ragged label rows")
            ids.append(parts[0])
            try:
                labels.append(int(parts[1]))
                probs.append([float(p) for p in parts[2:]])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric label row for {parts[0]!r}"
                ) from None
    if not ids:
        raise DataError(f"{path}: label file is empty")
    return tuple(ids), np.array(labels, dtype=np.int64), np.array(probs)
