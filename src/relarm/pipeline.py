"""End-to-end orchestration of the rating pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attributes import map_to_feature_space
from .clustering import ClusteringResult, kmeans
from .config import PipelineConfig
from .dataset import RawDataset, check_indicators
from .normalize import normalize_dataset
from .pca import PcaModel, fit_pca
from .rating import AgreementReport, RatingResult, assign_ratings, score_agreement
from .snapshot import Snapshot


@dataclass(frozen=True)
class PipelineOutputs:
    normalized: np.ndarray  # M x N normalized matrix B, one row per object
    model: PcaModel
    features: np.ndarray  # M x d, one row per object
    clusters: ClusteringResult
    ratings: RatingResult
    agreement: AgreementReport | None = None


def run_pipeline(
    config: PipelineConfig,
    dataset: RawDataset,
    reference: dict[str, dict[str, str]] | None = None,
) -> PipelineOutputs:
    """normalize -> fit -> map -> cluster -> assign (-> score)."""
    check_indicators(dataset.indicators, config.indicators, "the configuration")
    normalized = normalize_dataset(dataset)
    model = fit_pca(
        normalized, variance_threshold=config.variance_threshold, center=config.center
    )
    features = map_to_feature_space(normalized, model)
    clusters = kmeans(
        features,
        k=config.k,
        seed=config.seed,
        restarts=config.restarts,
        max_iterations=config.max_iterations,
        distance=config.distance,
    )
    ratings = assign_ratings(dataset.objects, clusters, model.Lambda, config.scale)
    agreement = None
    if reference is not None:
        agreement = score_agreement(
            ratings, reference, scale=config.scale, collapse_table=config.collapse_table
        )
    return PipelineOutputs(
        normalized=normalized,
        model=model,
        features=features,
        clusters=clusters,
        ratings=ratings,
        agreement=agreement,
    )


def build_snapshot(
    config: PipelineConfig, dataset: RawDataset, outputs: PipelineOutputs
) -> Snapshot:
    """Pack a fit into a snapshot: the data's column ranges, the weights,
    the centers and their per-cluster table."""
    return Snapshot(
        config=config,
        column_min=np.min(dataset.values, axis=0),
        column_max=np.max(dataset.values, axis=0),
        model=outputs.model,
        centers=outputs.clusters.centers,
        per_cluster=outputs.ratings.per_cluster,
    )
