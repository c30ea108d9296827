"""Model snapshot: everything needed to score new objects without refitting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attributes import map_to_feature_space
from .clustering import nearest_center
from .config import PipelineConfig, config_from_dict, config_to_dict
from .dataset import Direction, RawDataset
from .errors import ValidationError
from .pca import PcaModel, _freeze
from .rating import ClusterRating, ObjectRating, RatingResult

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Snapshot:
    """Frozen pipeline state: normalization ranges, fitted weights,
    cluster centers and their bound categories."""

    config: PipelineConfig
    column_min: np.ndarray = field(repr=False)
    column_max: np.ndarray = field(repr=False)
    model: PcaModel
    centers: np.ndarray = field(repr=False)
    cluster_categories: tuple[str, ...]  # index q-1 -> category of cluster q
    cluster_projections: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "column_min", _freeze(self.column_min))
        object.__setattr__(self, "column_max", _freeze(self.column_max))
        object.__setattr__(self, "centers", _freeze(self.centers))


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def save_snapshot(snapshot: Snapshot, path) -> None:
    model = snapshot.model
    doc = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(snapshot.config),
        "normalization": {
            "column_min": [float(v) for v in snapshot.column_min],
            "column_max": [float(v) for v in snapshot.column_max],
        },
        "model": {
            "components": _matrix(model.components),
            "variance_fractions": [float(v) for v in model.variance_fractions],
            "d": model.d,
            "W": _matrix(model.W),
            "Lambda": [float(v) for v in model.Lambda],
            "variance_threshold": model.variance_threshold,
            "centered": model.centered,
            "column_means": [float(v) for v in model.column_means],
        },
        "clusters": {
            "centers": _matrix(snapshot.centers),
            "categories": list(snapshot.cluster_categories),
            "projections": [float(v) for v in snapshot.cluster_projections],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path) -> Snapshot:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported snapshot format {doc.get('format_version')!r}"
        )
    m = doc["model"]
    model = PcaModel(
        components=np.array(m["components"], dtype=np.float64),
        variance_fractions=np.array(m["variance_fractions"], dtype=np.float64),
        d=int(m["d"]),
        W=np.array(m["W"], dtype=np.float64),
        Lambda=np.array(m["Lambda"], dtype=np.float64),
        variance_threshold=float(m["variance_threshold"]),
        centered=bool(m["centered"]),
        column_means=np.array(m["column_means"], dtype=np.float64),
    )
    return Snapshot(
        config=config_from_dict(doc["config"]),
        column_min=np.array(doc["normalization"]["column_min"], dtype=np.float64),
        column_max=np.array(doc["normalization"]["column_max"], dtype=np.float64),
        model=model,
        centers=np.array(doc["clusters"]["centers"], dtype=np.float64),
        cluster_categories=tuple(doc["clusters"]["categories"]),
        cluster_projections=tuple(
            float(v) for v in doc["clusters"]["projections"]
        ),
    )


def normalize_with_snapshot(snapshot: Snapshot, raw: RawDataset) -> np.ndarray:
    """Scale raw values using the ranges frozen at fit time."""
    specs = snapshot.config.indicators
    if tuple(s.name for s in raw.indicators) != tuple(s.name for s in specs):
        raise ValidationError("dataset indicators do not match the snapshot")
    out = np.empty_like(raw.values)
    for j, spec in enumerate(specs):
        col = raw.values[:, j]
        if spec.pre_normalized:
            if col.min() < 0.0 or col.max() > 1.0:
                raise ValidationError(
                    f"pre-normalized column {spec.name!r} outside [0, 1]"
                )
            out[:, j] = col
            continue
        lo, hi = snapshot.column_min[j], snapshot.column_max[j]
        if lo == hi:
            out[:, j] = 0.5
            continue
        if spec.direction is Direction.POSITIVE:
            out[:, j] = (col - lo) / (hi - lo)
        else:
            out[:, j] = (hi - col) / (hi - lo)
        out[:, j] = np.clip(out[:, j], 0.0, 1.0)
    return out


def score_with_snapshot(snapshot: Snapshot, raw: RawDataset) -> RatingResult:
    """Assign categories to (possibly new) objects: normalize with the
    stored ranges, map through W, bind each object to its nearest stored
    cluster center's category."""
    normalized = normalize_with_snapshot(snapshot, raw)
    features = map_to_feature_space(normalized, snapshot.model)
    nearest, _ = nearest_center(
        np.ascontiguousarray(features.values.T), snapshot.centers
    )
    per_object = tuple(
        ObjectRating(
            object_id=obj,
            cluster=int(q) + 1,
            category=snapshot.cluster_categories[int(q)],
        )
        for obj, q in zip(raw.objects, nearest)
    )
    per_cluster = tuple(
        ClusterRating(
            cluster=q + 1,
            center=tuple(float(v) for v in snapshot.centers[q]),
            projection=snapshot.cluster_projections[q],
            rank=rank + 1,
            category=snapshot.cluster_categories[q],
        )
        for rank, q in enumerate(
            sorted(
                range(snapshot.centers.shape[0]),
                key=lambda q: (-snapshot.cluster_projections[q], q),
            )
        )
    )
    return RatingResult(per_object=per_object, per_cluster=per_cluster)
