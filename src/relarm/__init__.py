"""relarm: a rating pipeline built from direction-aware normalization,
l1-scaled principal components, ranking-function features, k-means
clustering, and projection-ordered category assignment."""

from .attributes import map_to_feature_space
from .clustering import ClusteringResult, kmeans
from .config import PipelineConfig, config_from_dict, load_config
from .dataset import Direction, IndicatorSpec, RawDataset, load_dataset
from .errors import NumericalError, RelarmError, ValidationError
from .normalize import ConstantColumnWarning, normalize_dataset
from .pca import PcaModel, fit_pca
from .pipeline import PipelineOutputs, run_pipeline
from .rating import (
    AgreementReport,
    RatingResult,
    RatingScale,
    assign_ratings,
    project_center,
    score_agreement,
)
from .snapshot import Snapshot, load_snapshot, save_snapshot, score_with_snapshot

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "ClusteringResult",
    "ConstantColumnWarning",
    "Direction",
    "IndicatorSpec",
    "NumericalError",
    "PcaModel",
    "PipelineConfig",
    "PipelineOutputs",
    "RatingResult",
    "RatingScale",
    "RawDataset",
    "RelarmError",
    "Snapshot",
    "ValidationError",
    "assign_ratings",
    "config_from_dict",
    "fit_pca",
    "kmeans",
    "load_config",
    "load_dataset",
    "load_snapshot",
    "map_to_feature_space",
    "normalize_dataset",
    "project_center",
    "run_pipeline",
    "save_snapshot",
    "score_agreement",
    "score_with_snapshot",
]
