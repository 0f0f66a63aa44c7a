"""Synthetic paired-dataset generation with a planted cross-modal alignment.

Every item draws a latent vector; its audio and text features are two
fixed random full-rank linear views of that latent plus isotropic noise.
A linear model can therefore recover the pairing, which gives training
and retrieval something real to find at desk scale.  Generation is fully
determined by the seed, down to identical output bytes.
"""

from __future__ import annotations

import os

from .core import _check_alloc, _rng
from .datasets import SPLITS, Manifest, write_manifest, write_relevance
from .errors import ConfigError
from .tensorfile import discard_file, save_tensor

AUDIO_FILE = "audio.xmrt"
TEXT_FILE = "text.xmrt"
MANIFEST_FILE = "manifest.tsv"


def relevance_file(split):
    return f"relevance_{split}.tsv"


def split_sizes(n_items):
    """70/15/15 split; train and val round down, test takes the rest."""
    n_train = int(0.7 * n_items)
    n_val = int(0.15 * n_items)
    return n_train, n_val, n_items - n_train - n_val


def generate_fixtures(out_dir, *, n_items=256, d_latent=8, d_audio=32,
                      d_text=24, noise_sigma=0.05, seed=0):
    """Write a synthetic paired dataset into out_dir; returns the Manifest.

    Draw order from the seeded generator is fixed: view map A, view map
    B, latents, audio noise, text noise.  Items are paired one to one
    (caption i describes audio i) and each split gets a relevance file
    whose single relevant id per caption is its own audio.  Sizes whose
    draws would pass core._ALLOC_BYTES are a ConfigError before any draw.
    The manifest is removed first and written last, so a run cut short
    leaves no corpus that loads with old and new files mixed.
    """
    if n_items < 8:
        raise ConfigError(f"n_items must be >= 8, got {n_items}")
    if d_latent < 1 or not d_latent <= min(d_audio, d_text):
        raise ConfigError(
            f"need 1 <= d_latent <= min(d_audio, d_text), got "
            f"d_latent={d_latent}, d_audio={d_audio}, d_text={d_text}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    _check_alloc(8 * (n_items + d_latent) * (d_latent + d_audio + d_text),
                 f"n_items {n_items} at widths {d_latent, d_audio, d_text}",
                 "draw")

    rng = _rng(seed)
    view_a = rng.standard_normal((d_audio, d_latent))
    view_b = rng.standard_normal((d_text, d_latent))
    latents = rng.standard_normal((n_items, d_latent))
    audio = latents @ view_a.T + noise_sigma * rng.standard_normal(
        (n_items, d_audio))
    text = latents @ view_b.T + noise_sigma * rng.standard_normal(
        (n_items, d_text))

    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    os.makedirs(out_dir, exist_ok=True)
    discard_file(manifest_path)
    save_tensor(os.path.join(out_dir, AUDIO_FILE), audio)
    save_tensor(os.path.join(out_dir, TEXT_FILE), text)

    audio_ids = [f"a{i:04d}" for i in range(n_items)]
    caption_ids = [f"c{i:04d}" for i in range(n_items)]
    splits = [split for split, size in zip(SPLITS, split_sizes(n_items))
              for _ in range(size)]
    manifest = Manifest(
        zip(audio_ids, caption_ids,
            [f"{AUDIO_FILE}:{i}" for i in range(n_items)],
            [f"{TEXT_FILE}:{i}" for i in range(n_items)], splits),
        d_audio=d_audio, d_text=d_text)
    for split in SPLITS:
        write_relevance(os.path.join(out_dir, relevance_file(split)), [
            (c, (a,)) for a, c, s in zip(audio_ids, caption_ids, splits)
            if s == split])
    write_manifest(manifest_path, manifest)
    return manifest
