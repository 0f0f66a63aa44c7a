"""Tests for tensor containers, manifests, fixtures, checkpoints, config."""

import builtins
import dataclasses
import inspect
import json
import os
import re
import typing
import struct
import zlib

import numpy as np
import pytest

from xmrt import (
    ClusterConfig,
    ConfigError,
    ContractError,
    DataError,
    LossConfig,
    TensorFileError,
    expand_with_mixes,
    generate_fixtures,
    grid_search,
    hierarchical_grid_search,
    init_params,
    load_tensor,
    read_weight_table,
    run_stage,
    save_tensor,
)
from xmrt.checkpoints import (
    META_FILE,
    load_checkpoint,
    read_json,
    save_checkpoint,
    write_json,
)
from xmrt import datasets, tensorfile
from xmrt.cli import _from_section, main
from xmrt.config import _SCHEMA, load_config
from xmrt.datasets import load_paired_dataset
from xmrt.datasets import (
    MANIFEST_HEADER,
    SPLITS,
    Manifest,
    ManifestItem,
    align_relevance,
    parse_ref,
    read_labels,
    read_manifest,
    read_relevance,
    relevance_as_indices,
    write_labels,
    write_manifest,
    write_relevance,
)
from xmrt.fixtures import MANIFEST_FILE, relevance_file, split_sizes
from xmrt.training import STAGES

from conftest import headed_params, relevance_entries


# ---------------------------------------------------------------- tensorfile


def _save(tmp_path, tensor, name="t.xmrt"):
    path = os.path.join(str(tmp_path), name)
    save_tensor(path, tensor)
    return path


def test_tensor_round_trip_matrix(tmp_path):
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((7, 3))
    path = _save(tmp_path, tensor)
    back = load_tensor(path)
    assert back.shape == (7, 3)
    assert back.dtype == np.float64
    assert back.tobytes() == tensor.tobytes()


def test_tensor_round_trip_vector_and_rank3(tmp_path):
    for tensor in (np.arange(5.0), np.arange(24.0).reshape(2, 3, 4)):
        back = load_tensor(_save(tmp_path, tensor))
        assert back.shape == tensor.shape
        assert back.tobytes() == tensor.tobytes()


def test_tensor_header_layout(tmp_path):
    path = _save(tmp_path, np.arange(6.0).reshape(2, 3))
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:4] == b"XMRT"
    assert struct.unpack("<H", blob[4:6])[0] == 1
    assert blob[6] == 2
    assert struct.unpack("<II", blob[7:15]) == (2, 3)
    payload = blob[15:-4]
    assert payload == np.arange(6.0).tobytes()
    assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(payload)
    # total size: header + dims + payload + crc
    assert len(blob) == 7 + 4 * 2 + 8 * 6 + 4


def test_tensor_loaded_array_is_writable(tmp_path):
    back = load_tensor(_save(tmp_path, np.zeros((2, 2))))
    back[0, 0] = 1.0
    assert back[0, 0] == 1.0


def _corrupt(path, mutate):
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob = mutate(blob)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _load_code(path):
    with pytest.raises(TensorFileError) as err:
        load_tensor(path)
    return err.value.code


def test_tensor_bad_magic(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))

    def mutate(blob):
        blob[0:4] = b"NOPE"
        return blob

    _corrupt(path, mutate)
    assert _load_code(path) == "bad-magic"


def test_tensor_bad_version(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))

    def mutate(blob):
        blob[4:6] = struct.pack("<H", 9)
        return blob

    _corrupt(path, mutate)
    assert _load_code(path) == "bad-version"


@pytest.mark.parametrize("rank", [0, 9])
def test_tensor_bad_rank(tmp_path, rank):
    path = _save(tmp_path, np.ones((2, 2)))

    def mutate(blob):
        blob[6] = rank
        return blob

    _corrupt(path, mutate)
    assert _load_code(path) == "bad-rank"


def test_tensor_truncated_before_dims(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))
    _corrupt(path, lambda blob: blob[:9])
    assert _load_code(path) == "bad-length"


def test_tensor_truncated_payload(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))
    _corrupt(path, lambda blob: blob[:-5])
    assert _load_code(path) == "bad-length"


def test_tensor_trailing_garbage(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))
    _corrupt(path, lambda blob: blob + b"\x00")
    assert _load_code(path) == "bad-length"


def test_tensor_flipped_payload_byte(tmp_path):
    path = _save(tmp_path, np.ones((2, 2)))

    def mutate(blob):
        blob[20] ^= 0xFF
        return blob

    _corrupt(path, mutate)
    assert _load_code(path) == "bad-crc"


def test_tensor_save_rejects_scalar(tmp_path):
    with pytest.raises(DataError, match="rank"):
        save_tensor(os.path.join(str(tmp_path), "s.xmrt"), np.float64(3.0))


def test_tensor_save_rejects_high_rank(tmp_path):
    with pytest.raises(DataError, match="rank"):
        save_tensor(os.path.join(str(tmp_path), "r9.xmrt"),
                    np.zeros((1,) * 9))


def test_tensor_save_rejects_non_finite(tmp_path):
    bad = np.array([[1.0, np.nan]])
    with pytest.raises(DataError, match="finite"):
        save_tensor(os.path.join(str(tmp_path), "nan.xmrt"), bad)


def test_tensor_save_is_deterministic(tmp_path):
    tensor = np.random.default_rng(3).standard_normal((4, 4))
    p1 = _save(tmp_path, tensor, "a.xmrt")
    p2 = _save(tmp_path, tensor, "b.xmrt")
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


# ------------------------------------------------------------------ manifest


def _item(audio="a0", caption="c0", aref="audio.xmrt:0",
          cref="text.xmrt:0", split="train"):
    return ManifestItem(audio_id=audio, caption_id=caption, audio_ref=aref,
                        caption_ref=cref, split=split)


def _manifest_rows(path):
    """The ManifestItem of each row of a manifest file, read line by line
    past its pragma and header lines."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[2:]
    return [ManifestItem(*line.split("\t")) for line in lines]


def test_parse_ref():
    assert parse_ref("audio.xmrt:12") == ("audio.xmrt", 12)
    with pytest.raises(DataError, match="bad tensor ref"):
        parse_ref("audio.xmrt")
    with pytest.raises(DataError, match="bad row index"):
        parse_ref("audio.xmrt:x")
    with pytest.raises(DataError, match="bad tensor ref"):
        parse_ref("audio.xmrt:-1")
    with pytest.raises(DataError, match="bad tensor ref"):
        parse_ref(":3")


_GOOD_ROWS = [(f"a{i}", f"c{i}", f"audio.xmrt:{i}", f"text.xmrt:{i}", split)
              for i, split in enumerate(("train", "val", "test", "train"))]


def _bad_row(i, **fields):
    """Row i of a manifest with some fields replaced."""
    row = dict(zip(("audio", "caption", "aref", "cref", "split"),
                   (f"a{i}", f"c{i}", f"audio.xmrt:{i}", f"text.xmrt:{i}",
                    "val")))
    row.update(fields)
    return tuple(row.values())


# Each case breaks one invariant on rows 4 and 5, never row 0; the first
# of them must be named, as the row-by-row check named it.
LATER_OFFENDERS = {
    "duplicate caption id": (
        [_bad_row(4, caption="c1"), _bad_row(5, caption="c2")],
        "caption id 'c1' appears twice"),
    "audio id with two refs": (
        [_bad_row(4, audio="a2"), _bad_row(5, audio="a3")],
        "audio id 'a2' maps to two refs"),
    "bad split": (
        [_bad_row(4, split="dev"), _bad_row(5, split="Test")],
        "split must be one of ('train', 'val', 'test'), got 'dev'"),
    "ref without a colon": (
        [_bad_row(4, cref="text.xmrt4"), _bad_row(5, aref="audio.xmrt5")],
        "bad tensor ref 'text.xmrt4', expected 'file:row'"),
    "non-integer row": (
        [_bad_row(4, aref="audio.xmrt:4x"), _bad_row(5, cref="text.xmrt:")],
        "bad row index in tensor ref 'audio.xmrt:4x'"),
    "negative row": (
        [_bad_row(4, cref="text.xmrt:-4"), _bad_row(5, aref="audio.xmrt:-5")],
        "bad tensor ref 'text.xmrt:-4'"),
    "empty path": (
        [_bad_row(4, aref=":4"), _bad_row(5, cref=":5")],
        "bad tensor ref ':4'"),
    "split before a later bad ref": (
        [_bad_row(4, split="dev"), _bad_row(5, aref="audio.xmrt")],
        "got 'dev'"),
    "ref before a later duplicate caption": (
        [_bad_row(4, caption="c0"), _bad_row(5, cref="text.xmrt:x")],
        "bad row index in tensor ref 'text.xmrt:x'"),
    "two refs before a later duplicate caption": (
        [_bad_row(4, audio="a1"), _bad_row(5, caption="c0")],
        "audio id 'a1' maps to two refs"),
}


@pytest.mark.parametrize("source", ["items", "file"])
@pytest.mark.parametrize("case", sorted(LATER_OFFENDERS))
def test_manifest_names_the_first_later_offender(tmp_path, case, source):
    bad_rows, message = LATER_OFFENDERS[case]
    rows = _GOOD_ROWS + bad_rows
    with pytest.raises(DataError, match=re.escape(message)):
        if source == "items":
            Manifest(items=[ManifestItem(*row) for row in rows], d_audio=4,
                     d_text=3)
        else:
            path = os.path.join(str(tmp_path), "manifest.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(["#xmrt-manifest\td_audio=4\td_text=3",
                                    "\t".join(MANIFEST_HEADER),
                                    *map("\t".join, rows)]) + "\n")
            read_manifest(path)


def test_manifest_rejects_duplicate_caption():
    items = (_item(), _item(audio="a1", aref="audio.xmrt:1"))
    with pytest.raises(DataError, match="appears twice"):
        Manifest(items=items, d_audio=4, d_text=3)


def test_manifest_rejects_inconsistent_audio_ref():
    items = (_item(), _item(caption="c1", aref="audio.xmrt:1"))
    with pytest.raises(DataError, match="maps to two refs"):
        Manifest(items=items, d_audio=4, d_text=3)


def test_manifest_allows_shared_audio():
    items = (_item(), _item(caption="c1"))
    manifest = Manifest(items=items, d_audio=4, d_text=3)
    assert len(manifest) == 2


def test_manifest_round_trip(tmp_path):
    items = tuple(
        _item(audio=f"a{i}", caption=f"c{i}", aref=f"audio.xmrt:{i}",
              cref=f"text.xmrt:{i}", split=split)
        for i, split in enumerate(("train", "train", "val", "test")))
    manifest = Manifest(items=items, d_audio=6, d_text=5)
    path = os.path.join(str(tmp_path), "manifest.tsv")
    write_manifest(path, manifest)
    back = read_manifest(path)
    assert (len(back), back.d_audio, back.d_text) == (4, 6, 5)
    again = os.path.join(str(tmp_path), "again.tsv")
    write_manifest(again, back)
    with open(path, "rb") as first, open(again, "rb") as second:
        assert second.read() == first.read()
    assert _manifest_rows(path) == list(items)


def test_read_manifest_pragma_errors(tmp_path):
    path = os.path.join(str(tmp_path), "m.tsv")
    rows = "\t".join(("a0", "c0", "audio.xmrt:0", "text.xmrt:0", "train"))
    header = "\t".join(("audio_id", "caption_id", "audio_ref",
                        "caption_ref", "split"))

    def attempt(first_line, match):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([first_line, header, rows]) + "\n")
        with pytest.raises(DataError, match=match):
            read_manifest(path)

    attempt(header, "first line must be the dims pragma")
    attempt("#xmrt-manifest\td_audio=4", "first line must be the dims pragma")
    attempt("#xmrt-manifest\td_audio=4\td_text=x", "bad pragma entry")
    attempt("#xmrt-manifest\td_audio=4\td_other=3",
            "pragma must set d_audio and d_text")


def test_read_manifest_structure_errors(tmp_path):
    path = os.path.join(str(tmp_path), "m.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#xmrt-manifest\td_audio=4\td_text=3\n")
    with pytest.raises(DataError, match="pragma, header, and rows"):
        read_manifest(path)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#xmrt-manifest\td_audio=4\td_text=3\n")
        fh.write("audio_id\tcaption_id\taudio_ref\tcaption_ref\twrong\n")
        fh.write("a0\tc0\taudio.xmrt:0\ttext.xmrt:0\ttrain\n")
    with pytest.raises(DataError, match="bad manifest header"):
        read_manifest(path)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#xmrt-manifest\td_audio=4\td_text=3\n")
        fh.write("\t".join(("audio_id", "caption_id", "audio_ref",
                            "caption_ref", "split")) + "\n")
        fh.write("a0\tc0\taudio.xmrt:0\n")
    with pytest.raises(DataError, match="columns, expected"):
        read_manifest(path)


def _row_by_row_check(rows):
    """The DataError message the per-item checks raised, or None: each
    row's split and refs in file order, then unique caption ids and one
    ref per audio id."""
    try:
        for row in rows:
            if row[4] not in SPLITS:
                return f"split must be one of {SPLITS}, got {row[4]!r}"
            parse_ref(row[2])
            parse_ref(row[3])
    except DataError as exc:
        return str(exc)
    seen, audio_refs = set(), {}
    for audio, caption, aref, _, _ in rows:
        if caption in seen:
            return f"caption id {caption!r} appears twice"
        seen.add(caption)
        if audio_refs.setdefault(audio, aref) != aref:
            return f"audio id {audio!r} maps to two refs"
    return None


def test_manifest_check_matches_the_row_by_row_check_on_random_rows():
    rng = np.random.default_rng(8)
    refs = ("audio.xmrt:0", "audio.xmrt:1", "sub/t.xmrt:2", "a:b:3",
            "audio.xmrt", "audio.xmrt:x", "audio.xmrt:-1", ":2")
    seen = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        rows = [(f"a{rng.integers(0, 4)}", f"c{rng.integers(0, 12)}",
                 refs[min(rng.geometric(0.5) - 1, len(refs) - 1)],
                 refs[min(rng.geometric(0.6) - 1, len(refs) - 1)],
                 SPLITS[rng.integers(0, 3)] if rng.random() < 0.95
                 else "dev") for _ in range(n)]
        want = _row_by_row_check(rows)
        try:
            Manifest(items=[ManifestItem(*row) for row in rows], d_audio=4,
                     d_text=3)
            got = None
        except DataError as exc:
            got = str(exc)
        assert got == want, rows
        seen.add(want and re.sub(r"'[^']*'", "_", want))
    assert len(seen) == 7     # each kind of fault came first somewhere


# ------------------------------------------------------- load_paired_dataset


def _write_corpus(tmp_path, audio, text, items):
    base = str(tmp_path)
    save_tensor(os.path.join(base, "audio.xmrt"), audio)
    save_tensor(os.path.join(base, "text.xmrt"), text)
    manifest = Manifest(items=tuple(items), d_audio=audio.shape[1],
                        d_text=text.shape[1])
    path = os.path.join(base, "manifest.tsv")
    write_manifest(path, manifest)
    return path


def test_load_paired_dataset_basic(tmp_path):
    audio = np.arange(12.0).reshape(3, 4)
    text = np.arange(9.0).reshape(3, 3) + 100.0
    items = [
        _item(audio=f"a{i}", caption=f"c{i}", aref=f"audio.xmrt:{i}",
              cref=f"text.xmrt:{i}") for i in range(3)]
    loaded = load_paired_dataset(_write_corpus(tmp_path, audio, text, items),
                                 "train")
    assert loaded.dataset.audio_features.tolist() == audio.tolist()
    assert loaded.dataset.text_features.tolist() == text.tolist()
    assert loaded.caption_ids == ("c0", "c1", "c2")
    assert loaded.gallery_ids == ("a0", "a1", "a2")
    assert loaded.caption_to_audio.tolist() == [0, 1, 2]


def test_load_paired_dataset_dedups_gallery(tmp_path):
    audio = np.arange(8.0).reshape(2, 4)
    text = np.arange(9.0).reshape(3, 3)
    # captions c0 and c2 both describe audio a0
    items = [
        _item(audio="a0", caption="c0", aref="audio.xmrt:0",
              cref="text.xmrt:0"),
        _item(audio="a1", caption="c1", aref="audio.xmrt:1",
              cref="text.xmrt:1"),
        _item(audio="a0", caption="c2", aref="audio.xmrt:0",
              cref="text.xmrt:2"),
    ]
    loaded = load_paired_dataset(_write_corpus(tmp_path, audio, text, items),
                                 "train")
    assert len(loaded.caption_ids) == 3
    assert loaded.gallery_ids == ("a0", "a1")
    assert loaded.gallery_features.shape == (2, 4)
    assert loaded.caption_to_audio.tolist() == [0, 1, 0]
    # the duplicated audio rows really are the same features
    assert loaded.dataset.audio_features[0].tolist() == \
        loaded.dataset.audio_features[2].tolist()


def test_load_paired_dataset_empty_split(tmp_path):
    audio = np.zeros((1, 4))
    text = np.zeros((1, 3))
    path = _write_corpus(tmp_path, audio, text, [_item()])
    with pytest.raises(DataError, match="split 'val' is empty"):
        load_paired_dataset(path, "val")


def test_load_paired_dataset_missing_file(tmp_path):
    audio = np.zeros((1, 4))
    text = np.zeros((1, 3))
    items = [_item(aref="gone.xmrt:0")]
    path = _write_corpus(tmp_path, audio, text, items)
    with pytest.raises(DataError, match="missing file"):
        load_paired_dataset(path, "train")


def test_load_paired_dataset_row_out_of_range(tmp_path):
    audio = np.zeros((1, 4))
    text = np.zeros((1, 3))
    items = [_item(aref="audio.xmrt:5")]
    path = _write_corpus(tmp_path, audio, text, items)
    with pytest.raises(DataError, match="asks for row 5 of 1"):
        load_paired_dataset(path, "train")


def test_load_paired_dataset_width_mismatch(tmp_path):
    base = str(tmp_path)
    save_tensor(os.path.join(base, "audio.xmrt"), np.zeros((1, 4)))
    save_tensor(os.path.join(base, "text.xmrt"), np.zeros((1, 3)))
    # pragma claims d_audio=6 but the file is 4 wide
    lines = ["#xmrt-manifest\td_audio=6\td_text=3",
             "\t".join(("audio_id", "caption_id", "audio_ref",
                        "caption_ref", "split")),
             "a0\tc0\taudio.xmrt:0\ttext.xmrt:0\ttrain"]
    path = os.path.join(base, "manifest.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="has width 4, manifest says 6"):
        load_paired_dataset(path, "train")


def test_load_paired_dataset_rejects_vector_file(tmp_path):
    base = str(tmp_path)
    save_tensor(os.path.join(base, "audio.xmrt"), np.zeros(4))
    save_tensor(os.path.join(base, "text.xmrt"), np.zeros((1, 3)))
    lines = ["#xmrt-manifest\td_audio=4\td_text=3",
             "\t".join(("audio_id", "caption_id", "audio_ref",
                        "caption_ref", "split")),
             "a0\tc0\taudio.xmrt:0\ttext.xmrt:0\ttrain"]
    path = os.path.join(base, "manifest.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="expected a matrix"):
        load_paired_dataset(path, "train")


def test_load_paired_dataset_names_a_later_out_of_range_ref(tmp_path):
    audio = np.zeros((3, 4))
    text = np.zeros((2, 3))
    items = [_item(),
             _item(audio="a1", caption="c1", aref="audio.xmrt:7",
                   cref="text.xmrt:1"),
             _item(audio="a2", caption="c2", aref="audio.xmrt:9",
                   cref="text.xmrt:1")]
    path = _write_corpus(tmp_path, audio, text, items)
    with pytest.raises(DataError, match=re.escape(
            "audio ref 'audio.xmrt:7' asks for row 7 of 3")):
        load_paired_dataset(path, "train")


def _reference_load(manifest_path, split):
    """The row-by-row loader: one row view per ref, stacked at the end."""
    items = [item for item in _manifest_rows(manifest_path)
             if item.split == split]
    base = os.path.dirname(os.path.abspath(manifest_path))
    loaded = {}

    def row(ref):
        path, index = parse_ref(ref)
        full = os.path.join(base, path)
        if full not in loaded:
            loaded[full] = load_tensor(full)
        return loaded[full][index]

    audio, text, gallery_ids, gallery_rows, to_audio = [], [], [], [], []
    gallery_index = {}
    for item in items:
        a = row(item.audio_ref)
        audio.append(a)
        text.append(row(item.caption_ref))
        if item.audio_id not in gallery_index:
            gallery_index[item.audio_id] = len(gallery_ids)
            gallery_ids.append(item.audio_id)
            gallery_rows.append(a)
        to_audio.append(gallery_index[item.audio_id])
    return {"audio_features": np.array(audio),
            "text_features": np.array(text),
            "gallery_features": np.array(gallery_rows),
            "gallery_ids": tuple(gallery_ids),
            "caption_ids": tuple(item.caption_id for item in items),
            "caption_to_audio": np.array(to_audio, dtype=np.int64)}


def _write_mixed_corpus(tmp_path):
    """Two files per modality plus one file both modalities share (so
    d_audio == d_text), rows out of order and repeated, audio shared by
    several captions, and val rows between the train rows."""
    base = str(tmp_path)
    rng = np.random.default_rng(11)
    os.makedirs(os.path.join(base, "sub"))
    for name, n in (("a1.xmrt", 5), ("sub/a2.xmrt", 4), ("t1.xmrt", 6),
                    ("t2.xmrt", 5), ("shared.xmrt", 6)):
        save_tensor(os.path.join(base, name), rng.standard_normal((n, 4)))
    audio_refs = {"u0": "a1.xmrt:3", "u1": "sub/a2.xmrt:0",
                  "u2": "shared.xmrt:5", "u3": "a1.xmrt:0",
                  "u4": "sub/a2.xmrt:3", "u5": "shared.xmrt:1",
                  "u6": "a1.xmrt:3"}
    rows = [("u2", "t2.xmrt:4", "train"), ("u0", "shared.xmrt:0", "train"),
            ("u5", "t1.xmrt:5", "val"), ("u2", "t1.xmrt:2", "train"),
            ("u3", "t1.xmrt:2", "train"), ("u1", "shared.xmrt:5", "val"),
            ("u6", "t2.xmrt:0", "train"), ("u0", "t1.xmrt:0", "train"),
            ("u4", "shared.xmrt:3", "train"), ("u5", "t2.xmrt:1", "train"),
            ("u1", "t1.xmrt:4", "val"), ("u2", "shared.xmrt:3", "train"),
            ("u3", "t2.xmrt:2", "test")]
    items = tuple(
        _item(audio=audio, caption=f"c{i}", aref=audio_refs[audio],
              cref=cref, split=split)
        for i, (audio, cref, split) in enumerate(rows))
    path = os.path.join(base, "manifest.tsv")
    write_manifest(path, Manifest(items=items, d_audio=4, d_text=4))
    return path


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_load_paired_dataset_matches_the_row_by_row_loader(tmp_path, split):
    path = _write_mixed_corpus(tmp_path)
    loaded = load_paired_dataset(path, split)
    got = {"audio_features": loaded.dataset.audio_features,
           "text_features": loaded.dataset.text_features,
           "gallery_features": loaded.gallery_features,
           "gallery_ids": loaded.gallery_ids,
           "caption_ids": loaded.caption_ids,
           "caption_to_audio": loaded.caption_to_audio}
    for key, expected in _reference_load(path, split).items():
        if isinstance(expected, tuple):
            assert got[key] == expected, key
        else:
            assert got[key].dtype == expected.dtype, key
            assert got[key].shape == expected.shape, key
            assert got[key].tobytes() == expected.tobytes(), key


def test_load_paired_dataset_reads_each_file_once(tmp_path, monkeypatch):
    path = _write_mixed_corpus(tmp_path)
    calls = []

    def counting_load(full):
        calls.append(os.path.relpath(full, str(tmp_path)))
        return load_tensor(full)

    monkeypatch.setattr("xmrt.datasets.load_tensor", counting_load)
    load_paired_dataset(path, "train")
    assert sorted(calls) == sorted(["a1.xmrt", os.path.join("sub", "a2.xmrt"),
                                    "t1.xmrt", "t2.xmrt", "shared.xmrt"])


def test_load_paired_dataset_parses_each_ref_once(tmp_path, monkeypatch):
    # a split load checks the whole manifest but builds no ManifestItem
    # and parses each ref column once, never one ref at a time
    path = _write_mixed_corpus(tmp_path)
    rows = _manifest_rows(path)
    want = sorted(item.audio_ref for item in rows) + sorted(
        item.caption_ref for item in rows)
    parsed = []

    def counting_parse(refs):
        parsed.append(sorted(refs))
        return parse_column(refs)

    def no_row_objects(*args, **kwargs):
        raise AssertionError("a split load built a per-row object")

    parse_column = datasets._parse_refs
    monkeypatch.setattr(datasets, "_parse_refs", counting_parse)
    monkeypatch.setattr(datasets, "parse_ref", no_row_objects)
    monkeypatch.setattr(datasets, "ManifestItem", no_row_objects)
    for split in SPLITS:
        parsed.clear()
        load_paired_dataset(path, split)
        assert [ref for column in parsed for ref in column] == want


# ----------------------------------------------------------------- relevance


def test_relevance_round_trip(tmp_path):
    entries = [("c0", ("a0", "a3")), ("c1", ("a1",))]
    path = os.path.join(str(tmp_path), "rel.tsv")
    write_relevance(path, entries)
    assert read_relevance(path) == [("c0", ("a0", "a3")), ("c1", ("a1",))]


def test_write_relevance_rejects_empty_ids(tmp_path):
    with pytest.raises(DataError, match="no relevant ids"):
        write_relevance(os.path.join(str(tmp_path), "rel.tsv"),
                        [("c0", ())])


def test_read_relevance_errors(tmp_path):
    path = os.path.join(str(tmp_path), "rel.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0\n")
    with pytest.raises(DataError, match="lists no relevant ids"):
        read_relevance(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(DataError, match="relevance file is empty"):
        read_relevance(path)


def test_align_relevance():
    entries = [("c0", ("a1",)), ("c1", ("a0", "a1")), ("extra", ("a0",))]
    rel = align_relevance(entries, ("c0", "c1"), ("a0", "a1"))
    assert relevance_entries(rel) == ((1,), (0, 1))


def test_align_relevance_errors():
    with pytest.raises(DataError, match="listed twice"):
        align_relevance([("c0", ("a0",)), ("c0", ("a1",))],
                        ("c0",), ("a0", "a1"))
    with pytest.raises(DataError, match="missing from relevance file"):
        align_relevance([("c0", ("a0",))], ("c0", "c1"), ("a0",))
    with pytest.raises(DataError, match="unknown gallery id 'zz'"):
        align_relevance([("c0", ("zz",))], ("c0",), ("a0",))


_GALLERY = ("a0", "a1", "a2", "a3")
_CAPTIONS = ("c0", "c1", "c2", "c3", "c4")


@pytest.mark.parametrize("entries, message", [
    ([("c0", ("a0",)), ("c1", ("a1",)), ("c2", ("a2",)), ("c1", ("a0",)),
      ("c2", ("a1",))], "query 'c1' listed twice"),
    ([("c0", ("a0",)), ("c1", ("a1",)), ("c4", ("a3",))],
     "caption 'c2' missing from relevance file"),
    ([("c0", ("a0",)), ("c1", ("a1",)), ("c2", ("a2", "zz")),
      ("c3", ("yy",)), ("c4", ("a0",))],
     "caption 'c2' lists unknown gallery id 'zz'"),
    ([("c0", ("a0",)), ("c1", ("a1",)), ("c2", ("xx",)), ("c4", ("a0",))],
     "caption 'c2' lists unknown gallery id 'xx'"),
    ([("c0", ("a0",)), ("c1", ("a1",)), ("c2", ("a2", "a0", "a2")),
      ("c3", ("a3", "a3")), ("c4", ("a0",))],
     "query 2 lists a gallery id twice"),
])
def test_align_relevance_names_the_first_later_offender(entries, message):
    with pytest.raises(DataError, match=re.escape(message)):
        align_relevance(entries, _CAPTIONS, _GALLERY)


def test_relevance_files_name_a_later_offender(tmp_path):
    path = os.path.join(str(tmp_path), "rel.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q0\t0\nq1\t1\t2\nq2\nq3\n")
    with pytest.raises(DataError, match="query 'q2' lists no relevant ids"):
        read_relevance(path)
    with pytest.raises(DataError, match=re.escape(
            "query 'q2' lists a non-integer gallery index")):
        relevance_as_indices([("q0", ("0",)), ("q1", ("1", "2")),
                              ("q2", ("3", "x")), ("q3", ("y",))])
    with pytest.raises(DataError, match="query 1 lists a negative"):
        relevance_as_indices([("q0", ("0",)), ("q1", ("1", "-2")),
                              ("q2", ("3", "3"))])
    for big in ("99999999999999999999", "-9223372036854775809"):
        with pytest.raises(DataError, match=re.escape(
                "query 'q1' lists a gallery index outside int64")):
            relevance_as_indices([("q0", ("0",)), ("q1", ("1", big)),
                                  ("q2", ("x",))])


def test_relevance_as_indices():
    rel = relevance_as_indices([("q0", ("2", "0")), ("q1", ("1",))])
    assert relevance_entries(rel) == ((2, 0), (1,))
    with pytest.raises(DataError, match="non-integer gallery index"):
        relevance_as_indices([("q0", ("a0",))])


# -------------------------------------------------------------------- labels


def test_labels_round_trip(tmp_path):
    path = os.path.join(str(tmp_path), "labels.tsv")
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    write_labels(path, ("i0", "i1", "i2"), [1, 0, 0], probs)
    ids, labels, back = read_labels(path)
    assert ids == ("i0", "i1", "i2")
    assert labels.tolist() == [1, 0, 0]
    assert back.tobytes() == probs.tobytes()


def test_write_labels_matches_element_wise_formatting(tmp_path):
    # repr of each element as a Python float, one row at a time
    path = os.path.join(str(tmp_path), "labels.tsv")
    probs = np.array([[5e-324, 1.0, 0.0, 0.1 + 0.2],
                      [2.2250738585072014e-308, -0.0, 1 / 3, 1e-300],
                      [0.12345678901234568, 2 ** -1060, 0.7, 1e16 + 2]])
    ids, labels = ("a", 7, "c"), np.array([2, 0, 11])
    write_labels(path, ids, labels, probs)
    expected = "".join(
        "\t".join([str(ids[i]), str(int(labels[i]))]
                  + [repr(float(p)) for p in probs[i]]) + "\n"
        for i in range(3))
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode("utf-8")


def test_write_labels_length_mismatch(tmp_path):
    with pytest.raises(ContractError, match="disagree"):
        write_labels(os.path.join(str(tmp_path), "l.tsv"),
                     ("i0",), [1, 2], np.zeros((2, 2)))


def test_read_labels_errors(tmp_path):
    path = os.path.join(str(tmp_path), "l.tsv")

    def attempt(content, match):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        with pytest.raises(DataError, match=match):
            read_labels(path)

    attempt("i0\n", "bad label row")
    attempt("i0\t1\t0.5\ni1\t0\n", "ragged label rows")
    attempt("i0\tx\t0.5\n", "non-numeric label row")
    attempt("c0\t0\t1.0\nc1\t99999999999999999999\t1.0\n",
            "label of 'c1' is outside int64")
    for value in ("nan", "inf", "-inf", "1e999"):
        attempt(f"c0\t0\t1.0\t0.0\nc1\t0\t0.5\t{value}\n",
                "id 'c1' has a non-finite probability")
    attempt("\n", "label file is empty")
    attempt("i0\t1\t0.5\ni1\t0\t0.5\ni2\t0\t0.5\ni1\t1\t0.5\ni0\t0\t0.5\n",
            "id 'i1' listed twice")


def test_a_label_file_carries_probability_columns(tmp_path):
    # refinetune reads k as the width of the probability rows
    path = os.path.join(str(tmp_path), "l.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0\t0\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}: bad label row 'c0': it needs a label and k >= 1")):
        read_labels(path)
    with pytest.raises(ContractError, match="k >= 1 columns"):
        write_labels(path, ("c0",), [0], np.zeros((1, 0)))
    with pytest.raises(ContractError, match="k >= 1 columns"):
        write_labels(path, ("c0",), [0], np.zeros(1))


def _write_with_field(writer, path, field):
    """Call writer with `field` as one id or row name of what it writes."""
    if writer is write_manifest:
        write_manifest(path, Manifest(
            [ManifestItem(field, "c0", "a.xmrt:0", "t.xmrt:0", "train")],
            2, 2))
    elif writer is write_relevance:
        write_relevance(path, [("q0", ("g0", field))])
    else:
        write_labels(path, ["i0", field], [0, 1], np.full((2, 2), 0.5))


@pytest.mark.parametrize("separator", ["\t", "\n", "\r"],
                         ids=["tab", "newline", "return"])
@pytest.mark.parametrize("writer", [write_manifest, write_relevance,
                                    write_labels],
                         ids=lambda writer: writer.__name__)
def test_text_writers_reject_fields_their_readers_would_split(
        tmp_path, writer, separator):
    path = os.path.join(str(tmp_path), "out.tsv")
    field = f"x{separator}1"
    with pytest.raises(DataError,
                       match=re.escape(f"{path}: field {field!r} holds")):
        _write_with_field(writer, path, field)
    assert os.listdir(str(tmp_path)) == []


@pytest.mark.parametrize("blank", [" ", "\x0c", "\u2028"],
                         ids=["space", "form-feed", "line-separator"])
def test_text_writers_reject_a_row_their_readers_would_skip(tmp_path, blank):
    path = os.path.join(str(tmp_path), "out.tsv")
    with pytest.raises(DataError,
                       match=re.escape(f"{path}: row ") + ".* is only "
                       "whitespace"):
        write_relevance(path, [("a", ("g",)), (blank, (blank,))])
    assert os.listdir(str(tmp_path)) == []


@pytest.mark.parametrize("reader", [read_manifest, read_relevance,
                                    read_labels, read_weight_table],
                         ids=lambda reader: reader.__name__)
def test_text_readers_reject_bytes_that_are_not_utf8(tmp_path, reader):
    path = os.path.join(str(tmp_path), "input.tsv")
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe\tx\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8")):
        reader(path)


# ------------------------------------------------------------------ fixtures


def test_split_sizes():
    assert split_sizes(100) == (70, 15, 15)
    assert split_sizes(64) == (44, 9, 11)
    assert sum(split_sizes(97)) == 97


def test_generate_fixtures_layout(tmp_path):
    out = os.path.join(str(tmp_path), "corpus")
    manifest = generate_fixtures(out, n_items=24, d_latent=4, d_audio=10,
                                 d_text=8, seed=7)
    assert len(manifest) == 24
    for name in ("audio.xmrt", "text.xmrt", MANIFEST_FILE,
                 relevance_file("train"), relevance_file("val"),
                 relevance_file("test")):
        assert os.path.exists(os.path.join(out, name))
    assert load_tensor(os.path.join(out, "audio.xmrt")).shape == (24, 10)
    assert load_tensor(os.path.join(out, "text.xmrt")).shape == (24, 8)


def test_generate_fixtures_is_loadable(tmp_path):
    out = os.path.join(str(tmp_path), "corpus")
    generate_fixtures(out, n_items=24, d_latent=4, d_audio=10, d_text=8,
                      seed=7)
    n_train, n_val, n_test = split_sizes(24)
    manifest_path = os.path.join(out, MANIFEST_FILE)
    for split, expect in (("train", n_train), ("val", n_val),
                          ("test", n_test)):
        loaded = load_paired_dataset(manifest_path, split)
        assert len(loaded.caption_ids) == expect
        assert loaded.gallery_features.shape == (expect, 10)
        # one caption per audio: gallery order matches caption order
        assert loaded.caption_to_audio.tolist() == list(range(expect))
        entries = read_relevance(os.path.join(out, relevance_file(split)))
        rel = align_relevance(entries, loaded.caption_ids,
                              loaded.gallery_ids)
        assert relevance_entries(rel) == tuple((i,) for i in range(expect))


def test_generate_fixtures_same_seed_identical_bytes(tmp_path):
    out1 = os.path.join(str(tmp_path), "one")
    out2 = os.path.join(str(tmp_path), "two")
    kwargs = dict(n_items=16, d_latent=3, d_audio=6, d_text=5,
                  noise_sigma=0.1, seed=11)
    generate_fixtures(out1, **kwargs)
    generate_fixtures(out2, **kwargs)
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as f1:
            with open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read(), name


def test_generate_fixtures_seed_changes_bytes(tmp_path):
    out1 = os.path.join(str(tmp_path), "one")
    out2 = os.path.join(str(tmp_path), "two")
    generate_fixtures(out1, n_items=16, d_latent=3, d_audio=6, d_text=5,
                      seed=1)
    generate_fixtures(out2, n_items=16, d_latent=3, d_audio=6, d_text=5,
                      seed=2)
    with open(os.path.join(out1, "audio.xmrt"), "rb") as f1:
        with open(os.path.join(out2, "audio.xmrt"), "rb") as f2:
            assert f1.read() != f2.read()


def test_generate_fixtures_noiseless_alignment(tmp_path):
    # with no noise the paired caption is the top match under a linear map
    out = os.path.join(str(tmp_path), "clean")
    generate_fixtures(out, n_items=12, d_latent=2, d_audio=4, d_text=3,
                      noise_sigma=0.0, seed=3)
    audio = load_tensor(os.path.join(out, "audio.xmrt"))
    text = load_tensor(os.path.join(out, "text.xmrt"))
    # recover latents from audio by least squares, re-project to text side
    coeffs, *_ = np.linalg.lstsq(audio, text, rcond=None)
    pred = audio @ coeffs
    assert np.allclose(pred, text, atol=1e-8)


def test_generate_fixtures_guards(tmp_path):
    out = os.path.join(str(tmp_path), "x")
    with pytest.raises(ConfigError, match="n_items"):
        generate_fixtures(out, n_items=4)
    with pytest.raises(ConfigError, match="d_latent"):
        generate_fixtures(out, n_items=16, d_latent=9, d_audio=8, d_text=8)
    with pytest.raises(ConfigError, match="noise_sigma"):
        generate_fixtures(out, n_items=16, noise_sigma=-0.1)


# --------------------------------------------------------------- checkpoints


def _assert_same_tensors(before, after):
    assert (after.has_heads, after.n_clusters) == (before.has_heads,
                                                   before.n_clusters)
    before, after = before.named_tensors(), after.named_tensors()
    assert list(before) == list(after)
    for name in before:
        assert before[name].tobytes() == after[name].tobytes(), name


def test_checkpoint_round_trip_plain(tmp_path):
    params = init_params(6, 5, 4, seed=0)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    back = load_checkpoint(directory)
    assert not back.has_heads
    _assert_same_tensors(params, back)
    assert read_json(os.path.join(directory, META_FILE)) == {
        "format": 2, "tensors": sorted(params.named_tensors())}


def test_checkpoint_round_trip_with_heads(tmp_path):
    params = headed_params(6, 5, 4, 3, seed=2)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    back = load_checkpoint(directory)
    assert back.has_heads
    assert back.n_clusters == 3
    _assert_same_tensors(params, back)


def test_checkpoint_is_its_named_tensors(tmp_path):
    # one file per named_tensors() entry: the head pair as its four
    # stacked heads.<layer> tensors, byte for byte
    params = headed_params(6, 5, 4, 3, seed=2)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    assert sorted(os.listdir(directory)) == sorted(
        [META_FILE] + [f"{name}.xmrt" for name in params.named_tensors()])
    for layer in ("w1", "b1", "w2", "b2"):
        alone = os.path.join(str(tmp_path), f"{layer}.xmrt")
        save_tensor(alone, getattr(params.heads, layer))
        with open(alone, "rb") as want, open(os.path.join(
                directory, f"heads.{layer}.xmrt"), "rb") as got:
            assert got.read() == want.read(), layer


def test_checkpoint_rejects_heads_whose_modalities_disagree(tmp_path):
    # a head tensor must hold one layer per modality
    directory = os.path.join(str(tmp_path), "ckpt")
    params = headed_params(6, 5, 4, 3, seed=2)
    save_checkpoint(directory, params)
    w1 = params.heads.w1
    save_tensor(os.path.join(directory, "heads.w1.xmrt"),
                np.concatenate([w1, w1[:1]]))
    with pytest.raises(DataError, match="leading axis of 2"):
        load_checkpoint(directory)


def test_checkpoint_of_format_1_names_both_versions(tmp_path):
    # format 1 stored the head pair as one file per modality and layer
    params = headed_params(6, 5, 4, 3, seed=2)
    tensors = params.with_heads(None).named_tensors()
    for i, modality in enumerate(("audio", "text")):
        for layer in ("w1", "b1", "w2", "b2"):
            tensors[f"{modality}_head.{layer}"] = getattr(params.heads,
                                                          layer)[i]
    directory = os.path.join(str(tmp_path), "ckpt")
    os.makedirs(directory)
    for name, tensor in tensors.items():
        save_tensor(os.path.join(directory, f"{name}.xmrt"), tensor)
    write_json(os.path.join(directory, META_FILE),
               {"format": 1, "tensors": sorted(tensors)})
    with pytest.raises(DataError, match="checkpoint format 1, expected 2"):
        load_checkpoint(directory)


def test_checkpoint_bytes_deterministic(tmp_path):
    params = headed_params(6, 5, 4, 3, seed=2)
    d1 = os.path.join(str(tmp_path), "one")
    d2 = os.path.join(str(tmp_path), "two")
    save_checkpoint(d1, params)
    save_checkpoint(d2, params)
    names1 = sorted(os.listdir(d1))
    assert names1 == sorted(os.listdir(d2))
    for name in names1:
        with open(os.path.join(d1, name), "rb") as f1:
            with open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read(), name


def test_checkpoint_errors(tmp_path):
    missing = os.path.join(str(tmp_path), "nope")
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(missing)

    params = init_params(6, 5, 4, seed=0)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    os.remove(os.path.join(directory, "text_encoder.bias.xmrt"))
    with pytest.raises(DataError, match="missing tensor file"):
        load_checkpoint(directory)

    bad = os.path.join(str(tmp_path), "badfmt")
    save_checkpoint(bad, params)
    meta_path = os.path.join(bad, META_FILE)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["format"] = 99
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    with pytest.raises(DataError, match="checkpoint format 99"):
        load_checkpoint(bad)


def test_failed_save_over_a_checkpoint_leaves_no_checkpoint(tmp_path,
                                                            monkeypatch):
    # A torn write must not load as a mix of old and new tensors.
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, init_params(6, 5, 4, seed=0))
    calls = []

    def fail_second_call(path, array):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        save_tensor(path, array)
    monkeypatch.setattr("xmrt.checkpoints.save_tensor", fail_second_call)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(directory, init_params(6, 5, 4, seed=1))
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(directory)


class _DiskFillsFile:
    """A file whose second write raises, as when a disk fills mid-payload."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("disk full")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("failure", ["payload", "replace"])
@pytest.mark.parametrize("kind", ["tensor", "json"])
def test_a_failed_overwrite_leaves_the_old_file_intact(tmp_path, monkeypatch,
                                                       kind, failure):
    if kind == "tensor":
        name, save, load = "t.xmrt", save_tensor, load_tensor
        old, new = np.arange(6.0).reshape(2, 3), np.ones((40, 40))
    else:
        name, save, load = "r.json", write_json, read_json
        old, new = {"steps": 3}, {"values": list(range(200))}
    path = os.path.join(str(tmp_path), name)
    save(path, old)
    with open(path, "rb") as fh:
        before = fh.read()
    if failure == "payload":
        # atomic_open looks open up in its module before the builtins.
        monkeypatch.setattr(
            tensorfile, "open",
            lambda *a, **k: _DiskFillsFile(builtins.open(*a, **k)),
            raising=False)
    else:
        def fail_replace(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError):
        save(path, new)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert (np.array_equal(load(path), old) if kind == "tensor"
            else load(path) == old)
    assert os.listdir(str(tmp_path)) == [name]   # the temp file is gone


def _rewrite_meta(directory, **changes):
    meta_path = os.path.join(directory, META_FILE)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    meta.update(changes)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def test_checkpoint_rejects_partial_head_set(tmp_path):
    # Any listed head tensor means heads; every missing one is named.
    headed = os.path.join(str(tmp_path), "headed")
    params = headed_params(6, 5, 4, 3, seed=0)
    save_checkpoint(headed, params)
    _rewrite_meta(headed, tensors=[
        name for name in read_json(os.path.join(headed, META_FILE))["tensors"]
        if name not in ("heads.w1", "heads.b2")])
    with pytest.raises(DataError, match=r"\['heads\.b2', 'heads\.w1'\]"):
        load_checkpoint(headed)


@pytest.mark.parametrize("tensors", [
    None, "audio_encoder.weight", ["../x"], [["audio_encoder.weight"]]],
    ids=["null", "string", "path", "nested-list"])
def test_checkpoint_meta_must_list_parameter_names(tmp_path, monkeypatch,
                                                   tensors):
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, init_params(6, 5, 4, seed=0))
    save_tensor(os.path.join(str(tmp_path), "x.xmrt"), np.zeros(2))
    _rewrite_meta(directory, tensors=tensors)

    def no_open(path):
        raise AssertionError(f"opened {path}")
    monkeypatch.setattr("xmrt.checkpoints.load_tensor", no_open)
    with pytest.raises(DataError,
                       match="tensors must be a list of parameter names"):
        load_checkpoint(directory)


# -------------------------------------------------------------------- config


def _write_config(tmp_path, payload, name="run.json"):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def test_config_basic_access(tmp_path):
    path = _write_config(tmp_path, {
        "seed": 7,
        "data": {"manifest": "corpus/manifest.tsv"},
        "loss": {"tau": 0.1},
    })
    cfg = load_config(path)
    assert cfg.get("seed") == 7
    assert cfg.get("loss", "tau") == 0.1
    assert cfg.get("loss", "lambda9", default=3) == 3
    assert cfg.require("data", "manifest") == "corpus/manifest.tsv"
    with pytest.raises(ConfigError, match="missing required key"):
        cfg.require("out_dir")


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(_write_config(tmp_path, {"sede": 7}))
    with pytest.raises(ConfigError, match="loss"):
        load_config(_write_config(tmp_path, {"loss": {"taux": 0.1}},
                                  name="b.json"))
    with pytest.raises(ConfigError, match="must be an object"):
        load_config(_write_config(tmp_path, {"loss": 3}, name="c.json"))


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(os.path.join(str(tmp_path), "absent.json"))
    path = os.path.join(str(tmp_path), "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)
    path2 = os.path.join(str(tmp_path), "list.json")
    with open(path2, "w", encoding="utf-8") as fh:
        fh.write("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_config(path2)
    path3 = os.path.join(str(tmp_path), "latin1.json")
    with open(path3, "wb") as fh:
        fh.write(b'{"out_dir": "r\xe9sum\xe9"}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path3)


def test_config_resolves_relative_paths(tmp_path):
    sub = os.path.join(str(tmp_path), "runs")
    os.makedirs(sub)
    path = _write_config(sub, {"data": {"manifest": "corpus/manifest.tsv"}})
    cfg = load_config(path)
    assert cfg.resolve("corpus/manifest.tsv") == os.path.join(
        sub, "corpus", "manifest.tsv")
    assert cfg.resolve("/abs/path.tsv") == "/abs/path.tsv"
    with pytest.raises(ConfigError, match="missing"):
        cfg.resolve_input("data", "manifest")
    os.makedirs(os.path.join(sub, "corpus"))
    with open(os.path.join(sub, "corpus", "manifest.tsv"), "w") as fh:
        fh.write("x\n")
    assert cfg.resolve_input("data", "manifest") == os.path.join(
        sub, "corpus", "manifest.tsv")


def test_config_section_builders(tmp_path):
    # each section goes straight into the engine object or function it
    # configures; a key it leaves out keeps the engine's own default
    path = _write_config(tmp_path, {
        "seed": 5,
        "loss": {"tau": 0.07, "lambda1": 0.5},
        "schedule": {"peak_lr": 0.01},
        "stages": {"finetune": {"epochs": 2, "batch_size": 4}},
        "clustering": {"neighborhood_radius": 1.5},
        "ensemble": {"step": 0.05},
    })
    cfg = load_config(path)
    loss = _from_section(LossConfig, cfg, "loss")
    assert (loss.tau, loss.lambda1, loss.lambda2) == (0.07, 0.5, 0.05)
    stage = inspect.signature(run_stage).bind(
        "finetune", None, None, **cfg.get("schedule"),
        **cfg.get("stages", "finetune"))
    stage.apply_defaults()
    assert stage.arguments["peak_lr"] == 0.01
    assert stage.arguments["floor_lr"] == 1e-7
    assert (stage.arguments["epochs"], stage.arguments["batch_size"]) == (2, 4)
    refinetune = inspect.signature(run_stage).bind(
        "refinetune", None, None, **cfg.get("stages", "refinetune",
                                            default={}))
    refinetune.apply_defaults()
    assert (refinetune.arguments["epochs"],
            refinetune.arguments["batch_size"]) == (20, 16)
    cluster = _from_section(ClusterConfig, cfg, "clustering")
    assert cluster.neighborhood_radius == 1.5
    search = inspect.signature(grid_search).bind(None, None,
                                                 **cfg.get("ensemble"))
    search.apply_defaults()
    assert (search.arguments["step"], search.arguments["refine"]) == (
        0.05, False)


@pytest.mark.parametrize("payload, key", [
    ({"stages": {"pretrain": {"epochs": "two"}}}, "stages.pretrain.epochs"),
    ({"stages": {"pretrain": {"epochs": 1.9}}}, "stages.pretrain.epochs"),
    ({"seed": True}, "seed"),
    ({"loss": {"tau": True}}, "loss.tau"),
    ({"ensemble": {"refine": "false"}}, "ensemble.refine"),
    ({"stages": {"finetune": {"teachers": "t0/checkpoints/pretrain"}}},
     "stages.finetune.teachers"),
    ({"seed": None}, "seed"),
    ({"schedule": {"peak_lr": None}}, "schedule.peak_lr"),
    ({"loss": {"tau": float("nan")}}, "loss.tau"),
    ({"schedule": {"peak_lr": float("inf")}}, "schedule.peak_lr"),
    ({"clustering": {"neighborhood_radius": -float("inf")}},
     "clustering.neighborhood_radius"),
    ({"loss": {"tau": 10 ** 400}}, "loss.tau"),
])
def test_config_rejects_mistyped_values(tmp_path, payload, key):
    with pytest.raises(ConfigError,
                       match=rf"config key {re.escape(key)} must be "):
        load_config(_write_config(tmp_path, payload))


def test_config_int_loads_as_float(tmp_path):
    cfg = load_config(_write_config(tmp_path, {
        "loss": {"tau": 1}, "schedule": {"weight_decay": 0}}))
    assert type(cfg.get("loss", "tau")) is float
    assert cfg.get("loss", "tau") == 1.0
    assert type(cfg.get("schedule", "weight_decay")) is float


def test_schema_matches_engine_signatures():
    # A renamed dataclass field or keyword fails here, not at run time.
    for schema, cls in ((_SCHEMA["loss"], LossConfig),
                        (_SCHEMA["clustering"], ClusterConfig)):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            assert schema.get(field.name) is hints[field.name], (
                cls.__name__, field.name)
    # Every other key the CLI passes to the engine as a keyword, with
    # the function it reaches; None stands for the whole section.
    search = ("step", "mode", "refine")
    passed = [(_SCHEMA["schedule"], run_stage, None),
              *((_SCHEMA["stages"][name], run_stage, ("epochs", "batch_size"))
                for name in STAGES),
              (_SCHEMA["augmentation"], expand_with_mixes, None),
              (_SCHEMA["fixtures"], generate_fixtures, None),
              (_SCHEMA["model"], init_params, None),
              (_SCHEMA["ensemble"], grid_search, search),
              (_SCHEMA["ensemble"], hierarchical_grid_search,
               search + ("strategy",))]
    for schema, func, keys in passed:
        params = inspect.signature(func).parameters
        # init_params takes its widths by position, so d_emb is not
        # keyword-only, but it is passed by name all the same
        kind = (inspect.Parameter.POSITIONAL_OR_KEYWORD
                if func is init_params else inspect.Parameter.KEYWORD_ONLY)
        for key in schema if keys is None else keys:
            assert params[key].kind is kind, (func.__name__, key)
            assert type(params[key].default) is schema[key], (
                func.__name__, key)


def test_schema_types_every_list_entry():
    # a bare `list` leaf would let any entry through to the CLI
    def leaves(node):
        if isinstance(node, dict):
            return [leaf for sub in node.values() for leaf in leaves(sub)]
        if isinstance(node, list):
            assert len(node) == 1
            return leaves(node[0])
        return [node]
    assert list not in leaves(_SCHEMA)
    assert _SCHEMA["stages"]["finetune"]["teachers"] == [str]
    assert _SCHEMA["ensemble"]["matrices"] == [
        {"system": (int, str), "model": str, "path": str}]


def test_config_rejects_removed_keys(tmp_path):
    # caption word edits, the mixing seed (the run seed seeds the mixes),
    # the cluster split (refinetune reads train labels) and the grid
    # budget (a constant) were removed; stale configs must fail loudly
    for section, key, value in (
            ("augmentation", "word_edit_probability", 0.8),
            ("augmentation", "synonym_table", {"dog": ["hound"]}),
            ("augmentation", "rng_seed", 4),
            ("clustering", "split", "val"),
            ("ensemble", "max_grid_points", 10)):
        path = _write_config(tmp_path, {section: {key: value}},
                             name=f"{key}.json")
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown config key {section}.'{key}'")):
            load_config(path)


def test_config_cluster_radius_required(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"out_dir": "run",
                                   "clustering": {"reduced_dim": 3}})
    assert main(["cluster", "--config", cfg]) == 1
    assert ("missing required key 'clustering.neighborhood_radius'"
            in capsys.readouterr().err)
