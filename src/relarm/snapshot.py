"""Model snapshot: everything needed to score new objects without refitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attributes import map_to_feature_space
from .config import PipelineConfig, config_from_dict, config_to_dict, read_json
from .dataset import RawDataset, _freeze, check_indicators
from .errors import ValidationError, listed, naming, shown
from .io import write_json
from .normalize import range_width, scale_values
from .pca import PcaModel
from .rating import (
    ClusterRating,
    RatingResult,
    assign_ratings,
    bind_categories,
    project_center,
)

# format 2 also stored model.variance_threshold and model.centered, and
# format 1 model.components and model.column_means besides
FORMAT_VERSION = 3


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


def save_snapshot(snapshot: Snapshot, path) -> None:
    model = snapshot.model
    by_id = sorted(snapshot.per_cluster, key=lambda c: c.cluster)
    doc = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(snapshot.config),
        "normalization": {
            "column_min": snapshot.column_min.tolist(),
            "column_max": snapshot.column_max.tolist(),
        },
        "model": {
            "variance_fractions": model.variance_fractions.tolist(),
            "d": model.d,
            "W": model.W.tolist(),
            "Lambda": model.Lambda.tolist(),
        },
        "clusters": {
            "centers": snapshot.centers.tolist(),
            "categories": [c.category for c in by_id],
            "projections": [c.projection for c in by_id],
        },
    }
    write_json(path, doc)


_SECTIONS = {
    "config": (),
    "normalization": ("column_min", "column_max"),
    "model": ("variance_fractions", "d", "W", "Lambda"),
    "clusters": ("centers", "categories", "projections"),
}


def load_snapshot(path) -> Snapshot:
    """Read a snapshot written by :func:`save_snapshot`, in format 3 or in
    format 2 or 1, whose extra keys are ignored; a missing key, an array of
    the wrong shape or with a non-finite entry, a column range whose minimum
    exceeds its maximum or whose width overflows, or a derived fact that
    disagrees with the fit it derives from (``Lambda``, the projections,
    the categories) is a ``ValidationError`` naming the file and the key."""
    with naming(path):
        return _snapshot_from_doc(read_json(path))


def _array(doc: dict, section: str, key: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        a = np.array(doc[section][key], dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(
            f"'{section}.{key}' has an entry beyond the float range"
        ) from None
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
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):
        raise ValidationError(f"unsupported snapshot format {shown(version)}")
    for section, keys in _SECTIONS.items():
        if not isinstance(doc.get(section), dict):
            raise ValidationError(f"missing or malformed '{section}' section")
        for key in keys:
            if key not in doc[section]:
                raise ValidationError(f"missing key '{section}.{key}'")
    with naming("'config'"):
        config = config_from_dict(doc["config"])
    n, k = len(config.indicators), config.k
    d = doc["model"]["d"]
    if type(d) is not int or not 1 <= d <= n:
        raise ValidationError(f"'model.d' must be an integer in [1, {n}], got {shown(d)}")
    model = PcaModel(
        variance_fractions=_array(doc, "model", "variance_fractions", (n,)),
        d=d,
        W=_array(doc, "model", "W", (n, d)),
        Lambda=_array(doc, "model", "Lambda", (d,)),
    )
    if not np.array_equal(model.Lambda, model.variance_fractions[:d]):
        raise ValidationError(
            f"'model.Lambda' {model.Lambda.tolist()} is not the first d={d} "
            f"entries of 'model.variance_fractions'"
        )
    centers = _array(doc, "clusters", "centers", (k, d))
    projections = _array(doc, "clusters", "projections", (k,)).tolist()
    # the fit's own products, to a tolerance for another BLAS's rounding
    fitted = [project_center(c, model.Lambda) for c in centers]
    if not np.allclose(projections, fitted, rtol=1e-12, atol=0.0):
        raise ValidationError(
            f"'clusters.projections' {projections} disagree with {fitted}, "
            f"the centers' projections on Lambda"
        )
    per_cluster = bind_categories(projections, config.labels)
    stored = doc["clusters"]["categories"]
    bound = [c.category for c in sorted(per_cluster, key=lambda c: c.cluster)]
    if bound != stored:
        got = listed(stored) if isinstance(stored, list) else shown(stored)
        raise ValidationError(
            f"stored cluster categories {got} disagree with "
            f"{listed(bound)}, the labels bound by descending projection"
        )
    column_min = _array(doc, "normalization", "column_min", (n,))
    column_max = _array(doc, "normalization", "column_max", (n,))
    for spec, lo, hi in zip(config.indicators, column_min.tolist(), column_max.tolist()):
        if not lo <= hi:
            raise ValidationError(
                f"'normalization.column_min' {lo!r} exceeds 'normalization.column_max' "
                f"{hi!r} for indicator {shown(spec.name)}"
            )
        with naming("'normalization'"):
            range_width(lo, hi, spec.name)
    return Snapshot(
        config=config,
        column_min=column_min,
        column_max=column_max,
        model=model,
        centers=centers,
        per_cluster=per_cluster,
    )


def normalize_with_snapshot(snapshot: Snapshot, values: np.ndarray) -> np.ndarray:
    """Scale the M x N raw ``values``, columns in the snapshot's indicator
    order, using the ranges frozen at fit time: the normalized matrix, held
    column by column, so that the map reads each indicator as one
    contiguous row."""
    rows = np.empty((values.shape[1], values.shape[0]))
    return scale_values(
        values, snapshot.config.indicators, snapshot.column_min, snapshot.column_max, rows.T
    )


def score_rows(snapshot: Snapshot, objects, values: np.ndarray) -> RatingResult:
    """Rate ``objects``, one per row of their raw ``values`` (columns in
    the snapshot's indicator order): normalize with the stored ranges, map
    through W, and give each the category of its nearest stored center.
    Every step is elementwise, with no BLAS routine, so a row's rating is
    the same whichever rows are scored with it."""
    coords = map_to_feature_space(normalize_with_snapshot(snapshot, values), snapshot.model)
    return assign_ratings(objects, coords, snapshot.centers, snapshot.per_cluster)


def score_with_snapshot(snapshot: Snapshot, raw: RawDataset) -> RatingResult:
    """Rate (possibly new) objects by :func:`score_rows`; the dataset's
    indicators must be the snapshot's."""
    check_indicators(raw.indicators, snapshot.config.indicators, "the snapshot")
    return score_rows(snapshot, raw.objects, raw.values)
