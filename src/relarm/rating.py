"""Category assignment by projecting cluster centers onto the rating
vector, plus agreement scoring against reference agency ratings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import nearest_center
from .errors import ValidationError, listed, shown

REPORT_FOOTER = (
    "The resulting category list is a recommendation to a rating agency's "
    "rating committee; the final decision on the rating level rests with "
    "the committee."
)


@dataclass(frozen=True)
class ClusterRating:
    cluster: int  # 1-based cluster id
    projection: float
    category: str


@dataclass(frozen=True)
class RatingResult:
    """Object ids and their 1-based cluster ids, column by column; an
    object's category is its cluster's in ``per_cluster`` (best first)."""

    objects: tuple[str, ...]
    clusters: tuple[int, ...]
    per_cluster: tuple[ClusterRating, ...]

    def __post_init__(self) -> None:
        if len(self.objects) != len(self.clusters):
            raise ValidationError("objects/clusters length mismatch")

    def categories(self) -> dict[str, str]:
        category_of = {c.cluster: c.category for c in self.per_cluster}
        return {o: category_of[c] for o, c in zip(self.objects, self.clusters)}


def project_center(center, rating_vector) -> float:
    """Absolute inner product of a cluster center with the rating vector,
    its products summed in the rating vector's order."""
    c = np.asarray(center, dtype=np.float64)
    lam = np.asarray(rating_vector, dtype=np.float64)
    if c.shape != lam.shape:
        raise ValidationError(
            f"dimension mismatch: center {c.shape} vs rating vector {lam.shape}"
        )
    total = 0.0
    for x, y in zip(c.tolist(), lam.tolist()):
        total += x * y
    return abs(total)


def bind_categories(projections, labels) -> tuple[ClusterRating, ...]:
    """The per-cluster table, best first: ``labels`` (best first) bound to
    clusters (``projections[q]`` is cluster q + 1's) in order of descending
    projection, equal projections lower cluster id first."""
    k = len(projections)
    if len(labels) != k:
        raise ValidationError(f"{k} projections and {len(labels)} labels")
    order = sorted(range(k), key=lambda q: (-projections[q], q))
    return tuple(
        ClusterRating(cluster=q + 1, projection=projections[q], category=label)
        for q, label in zip(order, labels)
    )


def assign_ratings(objects, coords, centers, per_cluster) -> RatingResult:
    """Rate ``objects``, one per column of the d x M ``coords``
    (``map_to_feature_space``'s layout): each takes the category, in
    ``per_cluster``, of its nearest of the k x d ``centers``, equal
    distances going to the lower cluster id."""
    objects = tuple(objects)
    if np.shape(coords) != (np.shape(centers)[1], len(objects)):
        raise ValidationError(
            f"coordinates of shape {np.shape(coords)} for {len(objects)} objects and "
            f"centers of shape {np.shape(centers)}: expected d x M"
        )
    nearest = nearest_center(coords, centers)[0]
    return RatingResult(objects, tuple((nearest + 1).tolist()), per_cluster)


def collapse_category(
    category: str, labels: tuple[str, ...], collapse_table: dict[str, str] | None = None
) -> str:
    """Map an agency subcategory (AA+, AA-) to its coarse category, which
    must be one of ``labels``, the scale's category labels, best first.

    An explicit collapse table wins; otherwise a trailing '+' or '-' is
    stripped.
    """
    cat = category.strip()
    if collapse_table and cat in collapse_table:
        coarse = collapse_table[cat]
    elif cat.endswith(("+", "-", "−")):
        coarse = cat[:-1]
    else:
        coarse = cat
    if coarse not in labels:
        raise ValidationError(
            f"reference category {shown(category)} does not collapse to any scale "
            f"label {listed(labels)}"
        )
    return coarse


@dataclass(frozen=True)
class ObjectAgreement:
    object_id: str
    model_category: str
    reference: tuple[tuple[str, str], ...]  # (agency, collapsed category)
    matched: bool


@dataclass(frozen=True)
class AgreementReport:
    per_object: tuple[ObjectAgreement, ...]
    matched: int
    compared: int
    skipped: tuple[str, ...] = ()  # reference objects absent from the result

    @property
    def fraction(self) -> float | None:
        """Overall match fraction; None when no object was comparable."""
        return self.matched / self.compared if self.compared else None


def score_agreement(
    result: RatingResult,
    reference: dict[str, dict[str, str]],
    labels: tuple[str, ...] | None = None,
    collapse_table: dict[str, str] | None = None,
) -> AgreementReport:
    """Compare model categories with agency reference ratings.

    ``reference`` maps object id -> {agency: category}.  Each agency
    category collapses (:func:`collapse_category`) to one of ``labels``, by
    default the result's own categories, best first.  An object matches
    when its model category equals the collapsed category of at least one
    agency.  Objects with no reference rating stay out of the denominator.
    """
    if labels is None:
        labels = tuple(dict.fromkeys(c.category for c in result.per_cluster))
    model = result.categories()
    skipped = tuple(sorted(o for o in reference if o not in model))
    rows = []
    matched = compared = 0
    for obj, category in model.items():
        agency_cats = reference.get(obj, {})
        collapsed = tuple(
            (agency, collapse_category(cat, labels, collapse_table))
            for agency, cat in sorted(agency_cats.items())
        )
        if not collapsed:
            continue
        hit = any(c == category for _, c in collapsed)
        rows.append(
            ObjectAgreement(
                object_id=obj,
                model_category=category,
                reference=collapsed,
                matched=hit,
            )
        )
        compared += 1
        matched += hit
    return AgreementReport(
        per_object=tuple(rows), matched=matched, compared=compared, skipped=skipped
    )
