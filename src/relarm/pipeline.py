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
from .rating import RatingResult, assign_ratings, bind_categories, project_center
from .snapshot import Snapshot


@dataclass(frozen=True)
class PipelineOutputs:
    normalized: np.ndarray  # M x N normalized matrix B, one row per object
    snapshot: Snapshot  # the fitted model
    features: np.ndarray  # M x d, one row per object (a view of the d x M map)
    clusters: ClusteringResult
    ratings: RatingResult


def run_pipeline(config: PipelineConfig, dataset: RawDataset) -> PipelineOutputs:
    """normalize -> fit -> map -> cluster -> snapshot -> assign;
    the fit data is rated by the snapshot's centers and table, as
    :func:`score_with_snapshot` rates new objects."""
    check_indicators(dataset.indicators, config.indicators, "the configuration")
    normalized = normalize_dataset(dataset)
    model = fit_pca(normalized, variance_threshold=config.variance_threshold)
    coords = map_to_feature_space(normalized, model)
    clusters = kmeans(
        coords.T,
        k=config.k,
        seed=config.seed,
        restarts=config.restarts,
        max_iterations=config.max_iterations,
    )
    snapshot = build_snapshot(config, dataset, model, clusters.centers)
    ratings = assign_ratings(dataset.objects, coords, snapshot.centers, snapshot.per_cluster)
    return PipelineOutputs(
        normalized=normalized,
        snapshot=snapshot,
        features=coords.T,
        clusters=clusters,
        ratings=ratings,
    )


def build_snapshot(
    config: PipelineConfig, dataset: RawDataset, model: PcaModel, centers: np.ndarray
) -> Snapshot:
    """Pack a fit into a snapshot: the data's column ranges, the weights,
    the centers and the config's labels bound to them by projection on
    Lambda."""
    return Snapshot(
        config=config,
        column_min=np.min(dataset.values, axis=0),
        column_max=np.max(dataset.values, axis=0),
        model=model,
        centers=centers,
        per_cluster=bind_categories(
            [project_center(c, model.Lambda) for c in centers], config.labels
        ),
    )
