"""
Fusing similarity matrices with a searched convex combination
=============================================================

Retrieval systems are cheap to combine: once each model has scored the
gallery against every caption, a weighted sum of the score matrices is
itself a retrieval system.  This demo trains three differently seeded
models on a noisy corpus, searches the weight simplex for the best
convex combination on the validation split, refines it on a finer
lattice, and shows the fused system edging out every individual member.
It closes with the bundled coefficient table of four published-style
ensembles and a one-hot sanity fuse.
"""

import os
import tempfile

import numpy as np

from xmrt import (EnsembleSpec, Member, bundled_weight_table,
                  cosine_similarity_matrix, encode, evaluate, fuse,
                  generate_fixtures, grid_search, init_params, run_stage)
from xmrt.datasets import (align_relevance, load_paired_dataset,
                           read_relevance)
from xmrt.fixtures import MANIFEST_FILE, relevance_file

# 1. a corpus noisy enough that no single model is perfect
work = tempfile.mkdtemp(prefix="xmrt_demo4_")
generate_fixtures(work, n_items=256, d_latent=8, noise_sigma=0.5, seed=6)
manifest = os.path.join(work, MANIFEST_FILE)
train = load_paired_dataset(manifest, "train")
val = load_paired_dataset(manifest, "val")
entries = read_relevance(os.path.join(work, relevance_file("val")))
relevance = align_relevance(entries, val.caption_ids, val.gallery_ids)

# 2. three members: same recipe, different seeds and widths, each
#    tagged (system, model) -- here (seed, embedding width)
members = {}
for seed, d_emb in ((1, 8), (2, 12), (3, 16)):
    params = init_params(32, 24, d_emb, seed=seed)
    params, _ = run_stage("pretrain", params, train.dataset, epochs=6,
                          batch_size=16, peak_lr=0.05, floor_lr=1e-4,
                          seed=seed)
    sim = cosine_similarity_matrix(
        encode(params.audio_encoder, val.gallery_features),
        encode(params.text_encoder, val.dataset.text_features))
    members[(seed, f"d{d_emb}")] = sim
    solo = evaluate(sim, relevance, "multiple").map_at_16
    print(f"member seed {seed} (d_emb {d_emb}): val mAP@16 {solo:.4f}")

# 3. coarse grid search over the weight simplex, then a refinement
#    pass on a 4x finer lattice around the coarse optimum; the winning
#    spec carries the members' tags
result = grid_search(members, relevance, step=0.02, refine=True)
print(f"\nsearched {result.points_evaluated} grid points")
print("best weights: " + ", ".join(f"{m.system}/{m.model} {m.weight:.4f}"
                                   for m in result.spec.members))
print(f"fused val mAP@16 {result.map_at_16:.4f}")

# one-hot corners are grid points, so the fused result can never fall
# below the best individual member on the split it was tuned on
best_solo = max(evaluate(m, relevance, "multiple").map_at_16
                for m in members.values())
assert result.map_at_16 >= best_solo
print(f"fused {result.map_at_16:.4f} >= best member {best_solo:.4f}")

# 4. the bundled coefficient table: four ensembles over a 4-system by
#    3-model grid, the first two combined system-first, the last two
#    model-first; each row reads straight into a named EnsembleSpec
for name, spec in bundled_weight_table().items():
    total = sum(m.weight for m in spec.members)
    active = sum(1 for m in spec.members if m.weight > 0)
    print(f"{name}: {spec.strategy:12s} {active:2d} active members, "
          f"weights sum to {total:.4f}")

# 5. fusing with a one-hot row returns that member bit for bit; fuse
#    reads each spec member's matrix by its tag
rng = np.random.default_rng(0)
mats = {(i, f"m{i}"): rng.standard_normal((6, 5)) for i in range(12)}
one_hot = EnsembleSpec(members=tuple(
    Member(system=s, model=m, weight=1.0 if s == 4 else 0.0)
    for s, m in mats))
assert fuse(mats, one_hot).tobytes() == mats[(4, "m4")].tobytes()
print("\none-hot fusion reproduces member (4, m4) exactly")
