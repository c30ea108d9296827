"""Model snapshot: everything needed to score new objects without refitting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attributes import map_to_feature_space
from .clustering import nearest_center
from .config import PipelineConfig, config_from_dict, config_to_dict
from .dataset import RawDataset, _freeze, read_json, typed
from .errors import ValidationError
from .normalize import NormalizedMatrix, scale_dataset
from .pca import PcaModel
from .rating import ClusterRating, RatingResult, bind_categories

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
    per_cluster: tuple[ClusterRating, ...]  # best first

    def __post_init__(self) -> None:
        object.__setattr__(self, "column_min", _freeze(self.column_min))
        object.__setattr__(self, "column_max", _freeze(self.column_max))
        object.__setattr__(self, "centers", _freeze(self.centers))


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def save_snapshot(snapshot: Snapshot, path) -> None:
    model = snapshot.model
    by_id = sorted(snapshot.per_cluster, key=lambda c: c.cluster)
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
            "categories": [c.category for c in by_id],
            "projections": [c.projection for c in by_id],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SECTIONS = {
    "config": (),
    "normalization": ("column_min", "column_max"),
    "model": (
        "components", "variance_fractions", "d", "W", "Lambda",
        "variance_threshold", "centered", "column_means",
    ),
    "clusters": ("centers", "categories", "projections"),
}


def load_snapshot(path) -> Snapshot:
    """Read a snapshot written by :func:`save_snapshot`; a missing key, or
    an array of the wrong shape or with a non-finite entry, is a
    ``ValidationError`` naming the file and the key."""
    doc = read_json(path)
    try:
        return _snapshot_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _array(doc: dict, section: str, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        a = np.array(doc[section][key], dtype=np.float64)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape:
        got = "a ragged or non-numeric value" if a is None else f"shape {a.shape}"
        raise ValidationError(
            f"'{section}.{key}' must be numbers of shape {shape}, got {got}"
        )
    if not np.isfinite(a).all():
        raise ValidationError(f"'{section}.{key}' must be finite numbers")
    return a


def _snapshot_from_doc(doc) -> Snapshot:
    if not isinstance(doc, dict):
        raise ValidationError("snapshot must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported snapshot format {doc.get('format_version')!r}"
        )
    for section, keys in _SECTIONS.items():
        if not isinstance(doc.get(section), dict):
            raise ValidationError(f"missing or malformed '{section}' section")
        for key in keys:
            if key not in doc[section]:
                raise ValidationError(f"missing key '{section}.{key}'")
    try:
        config = config_from_dict(doc["config"])
    except ValidationError as exc:
        raise ValidationError(f"'config': {exc}") from None
    n, k = len(config.indicators), config.k
    d = doc["model"]["d"]
    if type(d) is not int or not 1 <= d <= n:
        raise ValidationError(f"'model.d' must be an integer in [1, {n}], got {d!r}")
    model = PcaModel(
        components=_array(doc, "model", "components", (n, n)),
        variance_fractions=_array(doc, "model", "variance_fractions", (n,)),
        d=d,
        W=_array(doc, "model", "W", (n, d)),
        Lambda=_array(doc, "model", "Lambda", (d,)),
        variance_threshold=float(_array(doc, "model", "variance_threshold", ())),
        centered=typed(doc["model"], "centered", bool, label="model.centered"),
        column_means=_array(doc, "model", "column_means", (n,)),
    )
    centers = _array(doc, "clusters", "centers", (k, d))
    projections = _array(doc, "clusters", "projections", (k,)).tolist()
    per_cluster = bind_categories(centers, projections, config.labels)
    stored = doc["clusters"]["categories"]
    bound = [c.category for c in sorted(per_cluster, key=lambda c: c.cluster)]
    if bound != stored:
        raise ValidationError(
            f"stored cluster categories {stored} disagree with "
            f"{bound}, the labels bound by descending projection"
        )
    return Snapshot(
        config=config,
        column_min=_array(doc, "normalization", "column_min", (n,)),
        column_max=_array(doc, "normalization", "column_max", (n,)),
        model=model,
        centers=centers,
        per_cluster=per_cluster,
    )


def normalize_with_snapshot(
    snapshot: Snapshot, raw: RawDataset
) -> NormalizedMatrix:
    """Scale raw values using the ranges frozen at fit time."""
    if tuple(raw.indicators) != snapshot.config.indicators:
        raise ValidationError("dataset indicators do not match the snapshot")
    return scale_dataset(raw, snapshot.column_min, snapshot.column_max)


def score_with_snapshot(snapshot: Snapshot, raw: RawDataset) -> RatingResult:
    """Assign categories to (possibly new) objects: normalize with the
    stored ranges, map through W, bind each object to its nearest stored
    cluster center's category."""
    normalized = normalize_with_snapshot(snapshot, raw)
    features = map_to_feature_space(normalized, snapshot.model)
    nearest, _ = nearest_center(np.ascontiguousarray(features.T), snapshot.centers)
    return RatingResult(raw.objects, tuple((nearest + 1).tolist()), snapshot.per_cluster)
