"""xmrt: a desk-scale engine for language-based audio retrieval training.

Small trainable dual encoders are aligned with a bidirectional
contrastive objective, sharpened by distilling an averaged teacher
ensemble, and regularized by auxiliary cluster-label classification.
The package also carries the retrieval metrics, a density-clustering
pseudo-label pipeline, similarity-matrix ensembling with weight search,
and deterministic file formats tying a three-stage training protocol
together.
"""

from .clustering import (OUTLIER, ClusterAssignment, ClusterConfig,
                         PseudoLabels, build_pseudo_labels,
                         cluster_pipeline, density_cluster,
                         reassign_outliers, reduce_dimensionality)
from .core import Axis, cosine_similarity_matrix, softmax_with_temperature
from .encoders import (ClassificationHead, LinearEncoder, ModelParams,
                       classify, encode, init_heads, init_params)
from .ensemble import (EnsembleSpec, GridSearchConfig, Member, SearchResult,
                       WeightTable, bundled_weight_table, fuse, grid_search,
                       hierarchical_grid_search, load_coefficients,
                       read_weight_table, write_weight_table)
from .errors import (ConfigError, ContractError, DataError, TensorFileError,
                     XmrtError)
from .evaluation import (MetricsReport, RelevanceMap,
                         average_precision_at_k, evaluate, rank_gallery,
                         recall_at_k)
from .fixtures import generate_fixtures
from .losses import (BatchLabels, LossBreakdown, LossConfig, PairBatch,
                     TeacherTargets, classification_loss, combined_loss,
                     distillation_loss, ensemble_average,
                     loss_and_gradients, student_similarity,
                     supervised_contrastive_loss, targets_from_teacher_sims,
                     teacher_soft_targets, total_loss)
from .tensorfile import load_tensor, save_tensor
from .training import (AugmentationConfig, OptimizerState, PairedDataset,
                       ScheduleConfig, StageConfig, StepRecord, adamw_step,
                       expand_with_mixes, init_optimizer, lr_at_step,
                       make_batches, run_stage)

__version__ = "0.1.0"

__all__ = [
    "Axis", "cosine_similarity_matrix", "softmax_with_temperature",
    "LinearEncoder", "ClassificationHead", "ModelParams",
    "init_params", "init_heads", "encode", "classify",
    "LossConfig", "LossBreakdown", "TeacherTargets", "PairBatch",
    "BatchLabels", "supervised_contrastive_loss", "ensemble_average",
    "teacher_soft_targets", "targets_from_teacher_sims",
    "distillation_loss", "classification_loss", "combined_loss",
    "loss_and_gradients", "total_loss", "student_similarity",
    "OptimizerState", "init_optimizer", "adamw_step",
    "ScheduleConfig", "lr_at_step", "StageConfig", "StepRecord",
    "AugmentationConfig", "expand_with_mixes", "PairedDataset",
    "make_batches", "run_stage",
    "OUTLIER", "ClusterConfig", "ClusterAssignment", "PseudoLabels",
    "reduce_dimensionality", "density_cluster", "reassign_outliers",
    "build_pseudo_labels", "cluster_pipeline",
    "RelevanceMap", "MetricsReport", "rank_gallery",
    "average_precision_at_k", "recall_at_k", "evaluate",
    "Member", "EnsembleSpec", "WeightTable", "GridSearchConfig",
    "SearchResult", "fuse", "load_coefficients", "grid_search",
    "hierarchical_grid_search", "bundled_weight_table",
    "read_weight_table", "write_weight_table",
    "save_tensor", "load_tensor", "generate_fixtures",
    "XmrtError", "ConfigError", "ContractError", "DataError",
    "TensorFileError",
    "__version__",
]
