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
    AugmentationConfig,
    ClusterConfig,
    ConfigError,
    ContractError,
    DataError,
    GridSearchConfig,
    LossConfig,
    StageConfig,
    TensorFileError,
    generate_fixtures,
    init_params,
    load_tensor,
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
from xmrt import tensorfile
from xmrt.cli import _from_section, main
from xmrt.config import _SCHEMA, load_config
from xmrt.datasets import load_paired_dataset
from xmrt.datasets import (
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


def test_manifest_item_rejects_bad_split():
    with pytest.raises(DataError, match="split must be one of"):
        _item(split="dev")


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
    assert len(manifest.items) == 2


def test_manifest_round_trip(tmp_path):
    items = tuple(
        _item(audio=f"a{i}", caption=f"c{i}", aref=f"audio.xmrt:{i}",
              cref=f"text.xmrt:{i}", split=split)
        for i, split in enumerate(("train", "train", "val", "test")))
    manifest = Manifest(items=items, d_audio=6, d_text=5)
    path = os.path.join(str(tmp_path), "manifest.tsv")
    write_manifest(path, manifest)
    back = read_manifest(path)
    assert back == manifest
    assert [i.caption_id for i in back.split_items("train")] == ["c0", "c1"]


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
    assert loaded.dataset.caption_ids == ("c0", "c1", "c2")
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
    assert len(loaded.dataset.caption_ids) == 3
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
    assert rel.entries == ((1,), (0, 1))


def test_align_relevance_errors():
    with pytest.raises(DataError, match="listed twice"):
        align_relevance([("c0", ("a0",)), ("c0", ("a1",))],
                        ("c0",), ("a0", "a1"))
    with pytest.raises(DataError, match="missing from relevance file"):
        align_relevance([("c0", ("a0",))], ("c0", "c1"), ("a0",))
    with pytest.raises(DataError, match="unknown gallery id 'zz'"):
        align_relevance([("c0", ("zz",))], ("c0",), ("a0",))


def test_relevance_as_indices():
    rel = relevance_as_indices([("q0", ("2", "0")), ("q1", ("1",))])
    assert rel.entries == ((2, 0), (1,))
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
    attempt("\n", "label file is empty")


# ------------------------------------------------------------------ fixtures


def test_split_sizes():
    assert split_sizes(100) == (70, 15, 15)
    assert split_sizes(64) == (44, 9, 11)
    assert sum(split_sizes(97)) == 97


def test_generate_fixtures_layout(tmp_path):
    out = os.path.join(str(tmp_path), "corpus")
    manifest = generate_fixtures(out, n_items=24, d_latent=4, d_audio=10,
                                 d_text=8, seed=7)
    assert len(manifest.items) == 24
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
        assert len(loaded.dataset.caption_ids) == expect
        assert loaded.gallery_features.shape == (expect, 10)
        # one caption per audio: gallery order matches caption order
        assert loaded.caption_to_audio.tolist() == list(range(expect))
        entries = read_relevance(os.path.join(out, relevance_file(split)))
        rel = align_relevance(entries, loaded.dataset.caption_ids,
                              loaded.gallery_ids)
        assert rel.entries == tuple((i,) for i in range(expect))


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
        "format": 1, "tensors": sorted(params.named_tensors())}


def test_checkpoint_round_trip_with_heads(tmp_path):
    params = init_params(6, 5, 4, n_clusters=3, seed=2)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    back = load_checkpoint(directory)
    assert back.has_heads
    assert back.n_clusters == 3
    _assert_same_tensors(params, back)


@pytest.mark.parametrize("n_clusters", [None, 3])
def test_checkpoint_loads_the_older_meta_layout(tmp_path, n_clusters):
    # Older checkpoints also stored has_heads, n_clusters, rng_seed and a
    # free-form run record in meta.json; the loader ignores them.
    params = init_params(6, 5, 4, n_clusters=n_clusters, seed=2)
    directory = os.path.join(str(tmp_path), "ckpt")
    save_checkpoint(directory, params)
    older = {"format": 1, "tensors": sorted(params.named_tensors()),
             "has_heads": params.has_heads, "n_clusters": n_clusters,
             "rng_seed": 2, "extra": {"stage": "pretrain", "steps": 9}}
    with open(os.path.join(directory, META_FILE), "w",
              encoding="utf-8") as fh:
        json.dump(older, fh, indent=2, sort_keys=True)
    _assert_same_tensors(params, load_checkpoint(directory))


def test_checkpoint_bytes_deterministic(tmp_path):
    params = init_params(6, 5, 4, n_clusters=3, seed=2)
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
    params = init_params(6, 5, 4, n_clusters=3, seed=0)
    save_checkpoint(headed, params)
    _rewrite_meta(headed, tensors=[
        name for name in params.named_tensors()
        if name not in ("audio_head.w1", "text_head.b2")])
    with pytest.raises(DataError,
                       match=r"\['audio_head\.w1', 'text_head\.b2'\]"):
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
    assert cfg.seed == 7
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
    sched = inspect.signature(run_stage).bind(None, None, None,
                                              **cfg.get("schedule"))
    sched.apply_defaults()
    assert sched.arguments["peak_lr"] == 0.01
    assert sched.arguments["floor_lr"] == 1e-7
    stage = _from_section(StageConfig, cfg, "stages", "finetune",
                          name="finetune")
    assert stage == StageConfig("finetune", epochs=2, batch_size=4)
    assert _from_section(StageConfig, cfg, "stages", "refinetune",
                         name="refinetune") == StageConfig(
        "refinetune", epochs=20, batch_size=16)
    cluster = _from_section(ClusterConfig, cfg, "clustering")
    assert cluster.neighborhood_radius == 1.5
    grid = _from_section(GridSearchConfig, cfg, "ensemble")
    assert grid.step == 0.05
    assert grid.max_grid_points == 200_000
    aug = _from_section(AugmentationConfig, cfg, "augmentation",
                        rng_seed=cfg.seed)
    assert aug.rng_seed == 5
    # a section key overrides the value given at the call site
    cfg = load_config(_write_config(tmp_path, {
        "augmentation": {"rng_seed": 11}}, name="aug.json"))
    assert _from_section(AugmentationConfig, cfg, "augmentation",
                         rng_seed=5).rng_seed == 11


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
    sections = [(_SCHEMA["loss"], LossConfig),
                (_SCHEMA["augmentation"], AugmentationConfig),
                (_SCHEMA["clustering"], ClusterConfig),
                (_SCHEMA["ensemble"], GridSearchConfig)]
    sections += [(_SCHEMA["stages"][name], StageConfig)
                 for name in ("pretrain", "finetune", "refinetune")]
    for schema, cls in sections:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if cls is StageConfig and field.name == "name":
                continue    # the stage key supplies it
            assert schema.get(field.name) is hints[field.name], (
                cls.__name__, field.name)
    for schema, func in ((_SCHEMA["schedule"], run_stage),
                         (_SCHEMA["fixtures"], generate_fixtures)):
        params = inspect.signature(func).parameters
        for key, kind in schema.items():
            assert params[key].kind is inspect.Parameter.KEYWORD_ONLY, key
            assert type(params[key].default) is kind, key


def test_config_rejects_removed_augmentation_keys(tmp_path):
    # caption word edits were removed; stale configs must fail loudly
    for key, value in (("word_edit_probability", 0.8),
                       ("synonym_table", {"dog": ["hound"]})):
        path = _write_config(tmp_path, {"augmentation": {key: value}},
                             name=f"{key}.json")
        with pytest.raises(ConfigError,
                           match=rf"unknown config key augmentation\.'{key}'"):
            load_config(path)


def test_config_cluster_radius_required(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"out_dir": "run",
                                   "clustering": {"reduced_dim": 3}})
    assert main(["cluster", "--config", cfg]) == 1
    assert ("missing required key 'clustering.neighborhood_radius'"
            in capsys.readouterr().err)
