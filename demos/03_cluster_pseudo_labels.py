"""
Cluster pseudo-labels and the auxiliary classification stage
============================================================

Captions in a real corpus fall into loose topics.  This demo plants
three such topics in the latent space, trains encoders contrastively,
then runs the clustering pipeline on the caption embeddings: reduce
with a variance-preserving projection, density-cluster, and fold the
outliers back in.  The resulting pseudo-labels drive the refinetune
stage, where small classification heads push both encoders to keep
topic structure while the contrastive term keeps the alignment.
"""

import numpy as np

from xmrt import (ClusterConfig, PairedDataset, build_pseudo_labels,
                  cluster_pipeline, encode, init_heads, init_params,
                  run_stage)

# 1. a paired dataset whose latents come from three separated topics
rng = np.random.default_rng(0)
centers = 10.0 * np.array([[1.0, 0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, 0.0]])
latents = np.vstack([c + 0.4 * rng.standard_normal((40, 4))
                     for c in centers])
truth = np.repeat(np.arange(3), 40)
view_a = rng.standard_normal((4, 14))
view_t = rng.standard_normal((4, 12))
dataset = PairedDataset(latents @ view_a + 0.05 * rng.standard_normal(
                            (120, 14)),
                        latents @ view_t + 0.05 * rng.standard_normal(
                            (120, 12)))
print(f"{len(dataset)} pairs drawn from 3 planted topics")

# 2. contrastive warmup so the embeddings mean something
params = init_params(14, 12, 8, seed=1)
params, _ = run_stage("pretrain", params, dataset, epochs=5, batch_size=12,
                      peak_lr=0.05, floor_lr=1e-4, seed=1)

# 3. cluster the caption embeddings; the neighborhood radius comes from
#    the observed distance scale, not from tuning against the truth.
#    n_outliers counts the points the density step left sparse, which
#    the pipeline then folds into their nearest clusters
emb = encode(params.text_encoder, dataset.text_features)
gaps = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=-1)
radius = float(np.percentile(gaps[gaps > 0], 10))
cfg = ClusterConfig(neighborhood_radius=radius, reduced_dim=3,
                    min_cluster_size=5)
assignment = cluster_pipeline(emb, cfg)
print(f"radius {radius:.3f} -> {assignment.k} clusters, "
      f"{assignment.n_outliers} outliers reassigned")

# purity against the planted topics (labels are ids, so compare by
# majority vote per cluster)
majority = sum(
    int(np.bincount(truth[assignment.labels == c], minlength=3).max())
    for c in range(assignment.k))
print(f"cluster purity vs planted topics: {majority / len(truth):.3f}")

# 4. pseudo-labels for the audio side come from their captions' votes,
#    and topic probabilities from their captions' mean; with one caption
#    per clip each clip keeps its caption's label and probabilities
audio_labels, audio_probs = build_pseudo_labels(assignment,
                                                np.arange(len(dataset)))
assert np.array_equal(audio_labels, assignment.labels)
assert np.allclose(audio_probs, assignment.probabilities)

# 5. refinetune: attach classification heads and train with the
#    auxiliary term on top of the contrastive one
params = params.with_heads(init_heads(params.d_emb, assignment.k, seed=1))
params, log = run_stage("refinetune", params, dataset,
                        pseudo_labels=assignment.labels, epochs=8,
                        batch_size=12, peak_lr=0.01, floor_lr=1e-4, seed=1)
first = log[0].loss.l_cls_audio + log[0].loss.l_cls_text
last = log[-1].loss.l_cls_audio + log[-1].loss.l_cls_text
print(f"classification terms {first:.4f} -> {last:.4f} "
      f"over {len(log)} steps")
print(f"contrastive term alongside: {log[0].loss.l_sup:.4f} -> "
      f"{log[-1].loss.l_sup:.4f} (chance would be {2 * np.log(12):.2f})")
