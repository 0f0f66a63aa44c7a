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
                         build_pseudo_labels, cluster_pipeline,
                         density_cluster, reassign_outliers,
                         reduce_dimensionality)
from .core import Axis, cosine_similarity_matrix, softmax_with_temperature
from .encoders import (ClassificationHead, LinearEncoder, ModelParams,
                       encode, init_heads, init_params)
from .ensemble import (EnsembleSpec, GridSearchConfig, Member, SearchResult,
                       bundled_weight_table, fuse, grid_search,
                       hierarchical_grid_search, read_weight_table)
from .errors import (ConfigError, ContractError, DataError, TensorFileError,
                     XmrtError)
from .evaluation import MetricsReport, RelevanceMap, evaluate, rank_gallery
from .fixtures import generate_fixtures
from .losses import (LossBreakdown, LossConfig, TeacherTargets,
                     ensemble_average, loss_and_gradients,
                     student_similarity, targets_from_teacher_sims,
                     teacher_soft_targets)
from .tensorfile import load_tensor, save_tensor
from .training import (PairedDataset, StageConfig, StepRecord, adamw_step,
                       expand_with_mixes, make_batches, run_stage)

__version__ = "0.1.0"

__all__ = [
    "Axis", "cosine_similarity_matrix", "softmax_with_temperature",
    "LinearEncoder", "ClassificationHead", "ModelParams",
    "init_params", "init_heads", "encode",
    "LossConfig", "LossBreakdown", "TeacherTargets", "ensemble_average",
    "teacher_soft_targets", "targets_from_teacher_sims",
    "loss_and_gradients", "student_similarity",
    "adamw_step", "StageConfig", "StepRecord",
    "expand_with_mixes", "PairedDataset",
    "make_batches", "run_stage",
    "OUTLIER", "ClusterConfig", "ClusterAssignment",
    "reduce_dimensionality", "density_cluster", "reassign_outliers",
    "build_pseudo_labels", "cluster_pipeline",
    "RelevanceMap", "MetricsReport", "rank_gallery", "evaluate",
    "Member", "EnsembleSpec", "GridSearchConfig",
    "SearchResult", "fuse", "grid_search",
    "hierarchical_grid_search", "bundled_weight_table",
    "read_weight_table",
    "save_tensor", "load_tensor", "generate_fixtures",
    "XmrtError", "ConfigError", "ContractError", "DataError",
    "TensorFileError",
    "__version__",
]
