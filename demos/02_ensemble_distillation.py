"""
Distilling an ensemble of teachers into one student
===================================================

Three teachers are trained on the same corpus from different seeds.
Averaging their similarity matrices gives a softer, steadier view of
which captions belong to which audio than any single model, and the
distillation stage trains a student against soft targets derived from
that average alongside the usual contrastive term.
"""

import os
import tempfile

import numpy as np

from xmrt import (LossConfig, StageConfig, cosine_similarity_matrix, encode,
                  ensemble_average, evaluate, generate_fixtures, init_params,
                  run_stage)
from xmrt.datasets import (align_relevance, load_paired_dataset,
                           read_relevance)
from xmrt.fixtures import MANIFEST_FILE, relevance_file

# 1. corpus with enough noise that single models stay imperfect
work = tempfile.mkdtemp(prefix="xmrt_demo2_")
generate_fixtures(work, n_items=256, d_latent=8, noise_sigma=0.35, seed=3)
manifest = os.path.join(work, MANIFEST_FILE)
train = load_paired_dataset(manifest, "train")
test = load_paired_dataset(manifest, "test")
entries = read_relevance(os.path.join(work, relevance_file("test")))
relevance = align_relevance(entries, test.dataset.caption_ids,
                            test.gallery_ids)


def test_similarity(params):
    return cosine_similarity_matrix(
        encode(params.audio_encoder, test.gallery_features),
        encode(params.text_encoder, test.dataset.text_features))


def map_at_16(sim):
    return evaluate(sim, relevance, "multiple").map_at_16


# 2. three teachers, one per seed
teachers = []
for seed in (1, 2, 3):
    t = init_params(32, 24, 16, seed=seed)
    t, _ = run_stage(StageConfig("pretrain", epochs=6, batch_size=16), t,
                     train.dataset, peak_lr=0.05, floor_lr=1e-4, seed=seed)
    teachers.append(t)
    print(f"teacher seed {seed}: test mAP@16 "
          f"{map_at_16(test_similarity(t)):.4f}")

# 3. the averaged teacher similarity is the distillation signal
averaged = ensemble_average([test_similarity(t) for t in teachers])
print(f"averaged teachers: test mAP@16 {map_at_16(averaged):.4f}")

# 4. student: a short supervised warmup, then the distillation stage
student = init_params(32, 24, 16, seed=9)
student, _ = run_stage(StageConfig("pretrain", epochs=2, batch_size=16),
                       student, train.dataset, peak_lr=0.05, floor_lr=1e-4,
                       seed=9)
warm = map_at_16(test_similarity(student))
print(f"\nstudent after warmup: test mAP@16 {warm:.4f}")

stage = StageConfig("finetune", epochs=12, batch_size=16)
student, log = run_stage(stage, student, train.dataset, teachers=teachers,
                         loss_cfg=LossConfig(tau=0.05, lambda1=1.0),
                         peak_lr=0.05, floor_lr=1e-4, seed=9)
# the distillation term is a cross entropy against soft targets, so it
# bottoms out at the targets' own entropy rather than at zero
print(f"supervised term {log[0].l_sup:.3f} -> {log[-1].l_sup:.3f} "
      f"over {len(log)} steps; distillation term ends at "
      f"{log[-1].l_dist:.3f}, near the teachers' entropy floor")

# 5. the student should sit at or above its own warmup point and close
#    to the averaged ensemble it was distilled from
final = map_at_16(test_similarity(student))
print(f"student after distillation: test mAP@16 {final:.4f}")
print(f"\nsummary: teachers "
      + ", ".join(f"{map_at_16(test_similarity(t)):.4f}" for t in teachers)
      + f" | averaged {map_at_16(averaged):.4f} | student {final:.4f}")

# the averaging operator itself is exactly order-independent
mats = [np.array([[0.1, 0.7], [0.5, 0.3]]), np.eye(2), np.full((2, 2), 0.25)]
assert ensemble_average(mats).tobytes() == \
    ensemble_average(mats[::-1]).tobytes()
print("teacher averaging is permutation invariant to the bit")
