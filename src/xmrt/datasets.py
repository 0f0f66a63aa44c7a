"""Dataset manifests, relevance files, and label files as delimited text.

A manifest is a TSV listing one caption per row with its paired audio
item, tensor references, and split.  Tensor references have the form
"file.xmrt:row", resolved relative to the manifest's directory.  A
relevance file lists, per query, the ordered relevant gallery ids (first
entry is the query's paired item).  A label file carries one cluster
label per item with its topic probabilities.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, methodcaller
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataError
from .evaluation import RelevanceMap
from .tensorfile import _read_rows, _write_rows, load_tensor
from .training import PairedDataset

SPLITS = ("train", "val", "test")
MANIFEST_HEADER = ("audio_id", "caption_id", "audio_ref", "caption_ref",
                   "split")
_INT64_MAX = np.iinfo(np.int64).max
_RPARTITION = methodcaller("rpartition", ":")


class ManifestItem(NamedTuple):
    """One caption row: its audio pairing, feature refs, and split.  The
    `Manifest` that holds it checks it."""

    audio_id: str
    caption_id: str
    audio_ref: str
    caption_ref: str
    split: str


class Manifest:
    """All caption rows plus the feature widths they reference.

    `items` are rows of MANIFEST_HEADER fields, ManifestItems or a file's
    split lines, held as one tuple per field.  The whole manifest is
    checked column by column, parsing each ref once: valid splits,
    well-formed refs, unique caption ids, one ref per audio id.  Only when
    a check fails are the rows scanned, to name the first offender in file
    order.
    """

    def __init__(self, items, d_audio, d_text):
        columns = tuple(zip(*items))
        if not columns:
            raise DataError("manifest lists no items")
        audio_ids, caption_ids, audio_refs, caption_refs, splits = columns
        n = len(caption_ids)
        try:
            split_codes = np.fromiter(map(SPLITS.index, splits), np.int8, n)
            refs = _parse_refs(audio_refs), _parse_refs(caption_refs)
        except (ValueError, OverflowError):
            for split, *row_refs in zip(splits, audio_refs, caption_refs):
                if split not in SPLITS:
                    raise DataError(f"split must be one of {SPLITS}, got "
                                    f"{split!r}") from None
                for ref in row_refs:
                    parse_ref(ref)
            raise
        if d_audio < 1 or d_text < 1:
            raise DataError("feature dims must be >= 1")
        audio_ref_of = dict(zip(audio_ids, audio_refs))
        if (len(set(caption_ids)) < n
                or tuple(map(audio_ref_of.get, audio_ids)) != audio_refs):
            seen, audio_ref_of = set(), {}
            for audio_id, caption_id, audio_ref in zip(
                    audio_ids, caption_ids, audio_refs):
                if caption_id in seen:
                    raise DataError(f"caption id {caption_id!r} appears "
                                    f"twice")
                seen.add(caption_id)
                if audio_ref_of.setdefault(audio_id, audio_ref) != audio_ref:
                    raise DataError(
                        f"audio id {audio_id!r} maps to two refs")
        self.d_audio, self.d_text = d_audio, d_text
        self._columns, self._split_codes, self._refs = (columns, split_codes,
                                                        refs)

    def __len__(self):
        return len(self._split_codes)

    def _split_rows(self, split):
        if split not in SPLITS:
            raise ContractError(f"split must be one of {SPLITS}")
        return np.flatnonzero(self._split_codes == SPLITS.index(split))


def parse_ref(ref):
    """Split a "file.xmrt:row" reference into (path, row)."""
    if ":" not in ref:
        raise DataError(f"bad tensor ref {ref!r}, expected 'file:row'")
    path, _, row = ref.rpartition(":")
    try:
        row = int(row)
    except ValueError:
        raise DataError(f"bad row index in tensor ref {ref!r}") from None
    if not path or not 0 <= row <= _INT64_MAX:
        raise DataError(f"bad tensor ref {ref!r}")
    return path, row


def _parse_refs(refs):
    """(files, file of each ref, row of each ref) for a column of refs,
    each distinct file once in first-appearance order; ValueError or
    OverflowError if a ref is not one `parse_ref` takes.  A ref without
    a colon has an empty path.  The paths and rows are read in two
    passes, so no per-ref tuple outlives its pass."""
    paths = list(map(itemgetter(0), map(_RPARTITION, refs)))
    rows = np.fromiter(map(int, map(itemgetter(2), map(_RPARTITION, refs))),
                       np.int64, len(refs))
    if "" in paths or rows.min() < 0:
        raise ValueError("bad tensor ref")
    files = tuple(dict.fromkeys(paths))
    index = dict(zip(files, range(len(files))))
    return (files, np.fromiter(map(index.__getitem__, paths), np.intp,
                               len(paths)), rows)


def write_manifest(path, manifest):
    """Write a manifest TSV with its dims pragma line."""
    _write_rows(path, chain([("#xmrt-manifest", f"d_audio={manifest.d_audio}",
                              f"d_text={manifest.d_text}"), MANIFEST_HEADER],
                            zip(*manifest._columns)))


def read_manifest(path):
    """Parse a manifest TSV written by write_manifest: its `_read_rows`,
    handed to `Manifest`, which keeps the rows as columns."""
    rows = list(_read_rows(path))
    if len(rows) < 3:
        raise DataError(f"{path}: manifest needs pragma, header, and rows")
    pragma = rows[0]
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
    if rows[1] != list(MANIFEST_HEADER):
        raise DataError(f"{path}: bad manifest header")
    del rows[:2]
    if set(map(len, rows)) != {len(MANIFEST_HEADER)}:
        width = next(len(r) for r in rows if len(r) != len(MANIFEST_HEADER))
        raise DataError(f"{path}: row has {width} columns, expected "
                        f"{len(MANIFEST_HEADER)}")
    return Manifest(rows, dims["d_audio"], dims["d_text"])


def _gather_rows(base_dir, refs, parsed, split_rows, width, what, tensors):
    """The rows that a ref column names at split_rows, in that order, as a
    (len(split_rows), width) array: each file is loaded once into
    `tensors`, which a split load shares between its modalities, and its
    rows gathered by one index."""
    files, file_of, rows = parsed
    file_of, rows = file_of[split_rows], rows[split_rows]
    codes, first = np.unique(file_of, return_index=True)
    out = np.empty((len(split_rows), width)) if len(codes) > 1 else None
    for code in codes[np.argsort(first)].tolist():  # split order
        at = np.flatnonzero(file_of == code)
        path = files[code]
        full = os.path.join(base_dir, path)
        if full not in tensors:
            if not os.path.exists(full):
                raise DataError(f"{what} ref {refs[split_rows[at[0]]]!r} "
                                f"points to a missing file {full}")
            tensor = load_tensor(full)
            if tensor.ndim != 2:
                raise DataError(f"{full}: expected a matrix, got rank "
                                f"{tensor.ndim}")
            tensors[full] = tensor
        tensor = tensors[full]
        beyond = at[rows[at] >= tensor.shape[0]]
        if beyond.size:
            raise DataError(
                f"{what} ref {refs[split_rows[beyond[0]]]!r} asks for row "
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
    at = manifest._split_rows(split)
    if not at.size:
        raise DataError(f"{manifest_path}: split {split!r} is empty")
    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    audio_ids, caption_ids, audio_refs, caption_refs, _ = manifest._columns
    tensors = {}
    audio = _gather_rows(base_dir, audio_refs, manifest._refs[0], at,
                         manifest.d_audio, "audio", tensors)
    text = _gather_rows(base_dir, caption_refs, manifest._refs[1], at,
                        manifest.d_text, "caption", tensors)
    rows = at.tolist()
    audio_ids = list(map(audio_ids.__getitem__, rows))
    gallery_ids = tuple(dict.fromkeys(audio_ids))
    gallery_index = dict(zip(gallery_ids, range(len(gallery_ids))))
    caption_to_audio = np.fromiter(map(gallery_index.__getitem__, audio_ids),
                                   np.int64, len(audio_ids))
    # the first caption of each gallery item, in gallery order
    first = np.unique(caption_to_audio, return_index=True)[1]
    dataset = PairedDataset(
        audio_features=audio, text_features=text,
        caption_ids=tuple(map(caption_ids.__getitem__, rows)))
    return LoadedSplit(dataset=dataset, gallery_features=audio[first],
                       gallery_ids=gallery_ids,
                       caption_to_audio=caption_to_audio)


def write_relevance(path, entries):
    """Write one line per query: query id, then its relevant gallery ids."""
    rows = []
    for query_id, ids in entries:
        if not ids:
            raise DataError(f"query {query_id!r} has no relevant ids")
        rows.append([str(query_id)] + [str(i) for i in ids])
    _write_rows(path, rows)


def read_relevance(path):
    """Parse a relevance file into [(query_id, (id, ...)), ...]."""
    rows = list(_read_rows(path))
    if not rows:
        raise DataError(f"{path}: relevance file is empty")
    if min(map(len, rows)) < 2:
        query_id = next(parts[0] for parts in rows if len(parts) < 2)
        raise DataError(f"{path}: query {query_id!r} lists no relevant ids")
    return [(parts[0], tuple(parts[1:])) for parts in rows]


def _first_repeat(values):
    """The first value that an earlier one equals, or None."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return None


def align_relevance(entries, caption_ids, gallery_ids):
    """Build a RelevanceMap for captions against a gallery id order.

    Entries may cover a superset of the split's captions; every split
    caption must appear, and every referenced gallery id must exist.
    """
    query_ids, lists = tuple(zip(*entries)) or ((), ())
    by_query = dict(zip(query_ids, lists))
    if len(by_query) < len(query_ids):
        raise DataError(f"query {_first_repeat(query_ids)!r} listed twice")
    gallery_pos = dict(zip(gallery_ids, range(len(gallery_ids))))
    try:
        lists = list(map(by_query.__getitem__, caption_ids))
        widths = np.fromiter(map(len, lists), np.intp, len(lists))
        ids = np.fromiter(map(gallery_pos.__getitem__,
                              chain.from_iterable(lists)),
                          np.intp, int(widths.sum()))
    except KeyError:
        for cid in caption_ids:
            if cid not in by_query:
                raise DataError(
                    f"caption {cid!r} missing from relevance file") from None
            for gid in by_query[cid]:
                if gid not in gallery_pos:
                    raise DataError(f"caption {cid!r} lists unknown gallery "
                                    f"id {gid!r}") from None
        raise
    return RelevanceMap._from_flat(widths, ids)


def relevance_as_indices(entries):
    """Interpret relevance ids as int64 gallery indices, in file order;
    only if `RelevanceMap` cannot parse them all is each query parsed."""
    try:
        return RelevanceMap(entries=[ids for _, ids in entries])
    except (ValueError, OverflowError):
        for query_id, ids in entries:
            try:
                np.fromiter(map(int, ids), np.int64, len(ids))
            except ValueError:
                raise DataError(f"query {query_id!r} lists a non-integer "
                                f"gallery index") from None
            except OverflowError:
                raise DataError(f"query {query_id!r} lists a gallery index "
                                f"outside int64") from None
        raise


def write_labels(path, ids, labels, probabilities):
    """Write per-item cluster labels with their k >= 1 topic
    probabilities."""
    lab = np.asarray(labels, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if len(ids) != lab.shape[0] or probs.shape[0] != lab.shape[0]:
        raise ContractError("ids, labels, and probabilities disagree")
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise ContractError(f"probabilities of shape {probs.shape} are not "
                            f"k >= 1 columns per item")
    _write_rows(path, ([str(item_id), str(label), *map(repr, row)]
                       for item_id, label, row in zip(ids, lab.tolist(),
                                                      probs.tolist())))


def read_labels(path):
    """Parse a label file into (ids, labels, probabilities): each label an
    int64, and each row's k >= 1 probabilities (k the same for every row)
    finite."""
    ids, labels, probs = [], [], []
    for parts in _read_rows(path):   # row by row: no fields outlive their row
        if probs and len(parts) != 2 + len(probs[0]):
            raise DataError(f"{path}: ragged label rows")
        if len(parts) < 3:
            raise DataError(f"{path}: bad label row {parts[0]!r}: it needs "
                            f"a label and k >= 1 probabilities")
        ids.append(parts[0])
        try:
            labels.append(int(parts[1]))
            probs.append([float(p) for p in parts[2:]])
        except ValueError:
            raise DataError(
                f"{path}: non-numeric label row for {parts[0]!r}") from None
        if not -_INT64_MAX - 1 <= labels[-1] <= _INT64_MAX:
            raise DataError(f"{path}: label of {parts[0]!r} is outside int64")
        if not all(map(math.isfinite, probs[-1])):
            raise DataError(f"{path}: id {parts[0]!r} has a non-finite "
                            f"probability")
    if not ids:
        raise DataError(f"{path}: label file is empty")
    if len(set(ids)) < len(ids):
        raise DataError(f"{path}: id {_first_repeat(ids)!r} listed twice")
    return tuple(ids), np.array(labels, dtype=np.int64), np.array(probs)
