"""Synthetic paired-dataset generation with a planted cross-modal alignment.

Every item draws a latent vector; its audio and text features are two
fixed random full-rank linear views of that latent plus isotropic noise.
A linear model can therefore recover the pairing, which gives training
and retrieval something real to find at desk scale.  Generation is fully
determined by the seed, down to identical output bytes.
"""

from __future__ import annotations

import os

from .core import _rng
from .datasets import Manifest, ManifestItem, write_manifest, write_relevance
from .errors import ConfigError
from .tensorfile import save_tensor

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
    whose single relevant id per caption is its own audio.
    """
    if n_items < 8:
        raise ConfigError(f"n_items must be >= 8, got {n_items}")
    if d_latent < 1 or not d_latent <= min(d_audio, d_text):
        raise ConfigError(
            f"need 1 <= d_latent <= min(d_audio, d_text), got "
            f"d_latent={d_latent}, d_audio={d_audio}, d_text={d_text}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")

    rng = _rng(seed)
    view_a = rng.standard_normal((d_audio, d_latent))
    view_b = rng.standard_normal((d_text, d_latent))
    latents = rng.standard_normal((n_items, d_latent))
    audio = latents @ view_a.T + noise_sigma * rng.standard_normal(
        (n_items, d_audio))
    text = latents @ view_b.T + noise_sigma * rng.standard_normal(
        (n_items, d_text))

    os.makedirs(out_dir, exist_ok=True)
    save_tensor(os.path.join(out_dir, AUDIO_FILE), audio)
    save_tensor(os.path.join(out_dir, TEXT_FILE), text)

    n_train, n_val, _ = split_sizes(n_items)
    items = []
    by_split = {"train": [], "val": [], "test": []}
    for i in range(n_items):
        split = ("train" if i < n_train
                 else "val" if i < n_train + n_val else "test")
        audio_id = f"a{i:04d}"
        caption_id = f"c{i:04d}"
        items.append(ManifestItem(
            audio_id=audio_id, caption_id=caption_id,
            audio_ref=f"{AUDIO_FILE}:{i}", caption_ref=f"{TEXT_FILE}:{i}",
            split=split))
        by_split[split].append((caption_id, (audio_id,)))

    manifest = Manifest(items=tuple(items), d_audio=d_audio, d_text=d_text)
    write_manifest(os.path.join(out_dir, MANIFEST_FILE), manifest)
    for split, entries in by_split.items():
        write_relevance(os.path.join(out_dir, relevance_file(split)),
                        entries)
    return manifest
