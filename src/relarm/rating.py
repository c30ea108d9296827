"""Category assignment by projecting cluster centers onto the rating
vector, plus agreement scoring against reference agency ratings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusteringResult
from .errors import ValidationError

REPORT_FOOTER = (
    "The resulting category list is a recommendation to a rating agency's "
    "rating committee; the final decision on the rating level rests with "
    "the committee."
)


@dataclass(frozen=True)
class RatingScale:
    """Ordered category labels, best first (e.g. AAA ... CCC)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValidationError("rating scale must have at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("rating scale labels must be unique")


@dataclass(frozen=True)
class ClusterRating:
    cluster: int  # 1-based cluster id
    projection: float
    rank: int  # 1 = best
    category: str


@dataclass(frozen=True)
class RatingResult:
    """Object ids and their 1-based cluster ids, column by column; an
    object's category is its cluster's in ``per_cluster``."""

    objects: tuple[str, ...]
    clusters: tuple[int, ...]
    per_cluster: tuple[ClusterRating, ...]
    tie_flags: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.objects) != len(self.clusters):
            raise ValidationError("objects/clusters length mismatch")

    def categories(self) -> dict[str, str]:
        category_of = {c.cluster: c.category for c in self.per_cluster}
        return {o: category_of[c] for o, c in zip(self.objects, self.clusters)}


def project_center(center, rating_vector) -> float:
    """Absolute inner product of a cluster center with the rating vector."""
    c = np.asarray(center, dtype=np.float64)
    lam = np.asarray(rating_vector, dtype=np.float64)
    if c.shape != lam.shape:
        raise ValidationError(
            f"dimension mismatch: center {c.shape} vs rating vector {lam.shape}"
        )
    return abs(float(c @ lam))


def bind_categories(projections, labels) -> tuple[ClusterRating, ...]:
    """The per-cluster table, best first: ``labels`` (best first) bound to
    clusters (``projections[q]`` is cluster q + 1's) in order of descending
    projection, equal projections lower cluster id first."""
    k = len(projections)
    if len(labels) != k:
        raise ValidationError(f"{k} projections and {len(labels)} labels")
    order = sorted(range(k), key=lambda q: (-projections[q], q))
    return tuple(
        ClusterRating(
            cluster=q + 1,
            projection=projections[q],
            rank=rank + 1,
            category=labels[rank],
        )
        for rank, q in enumerate(order)
    )


def assign_ratings(
    objects, clusters: ClusteringResult, rating_vector, scale: RatingScale
) -> RatingResult:
    """Rate ``objects`` (one id per clustered point): bind scale labels to
    clusters in order of descending projection.

    Exact projection ties are flagged and broken by ascending cluster id,
    so the mapping cluster -> category stays a bijection.
    """
    projections = [project_center(c, rating_vector) for c in clusters.centers]
    per_cluster = bind_categories(projections, scale.labels)
    ties = tuple(
        (a.cluster, b.cluster)
        for i, a in enumerate(per_cluster)
        for b in per_cluster[i + 1 :]
        if a.projection == b.projection
    )
    return RatingResult(
        objects=tuple(objects),
        clusters=clusters.assignments,
        per_cluster=per_cluster,
        tie_flags=ties,
    )


def collapse_category(
    category: str, scale: RatingScale, collapse_table: dict[str, str] | None = None
) -> str:
    """Map an agency subcategory (AA+, AA-) to its coarse scale category.

    An explicit collapse table wins; otherwise a trailing '+' or '-' is
    stripped.  The result must be a label of the scale.
    """
    cat = category.strip()
    if collapse_table and cat in collapse_table:
        coarse = collapse_table[cat]
    elif cat.endswith(("+", "-", "−")):
        coarse = cat[:-1]
    else:
        coarse = cat
    if coarse not in scale.labels:
        raise ValidationError(
            f"reference category {category!r} does not collapse to any scale "
            f"label {list(scale.labels)}"
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
    note: str = REPORT_FOOTER

    @property
    def fraction(self) -> float | None:
        """Overall match fraction; None when no object was comparable."""
        return self.matched / self.compared if self.compared else None


def score_agreement(
    result: RatingResult,
    reference: dict[str, dict[str, str]],
    scale: RatingScale | None = None,
    collapse_table: dict[str, str] | None = None,
) -> AgreementReport:
    """Compare model categories with agency reference ratings.

    ``reference`` maps object id -> {agency: category}.  An object matches
    when its model category equals the collapsed category of at least one
    agency.  Objects with no reference rating stay out of the denominator.
    """
    if scale is None:
        scale = RatingScale(
            labels=tuple(
                dict.fromkeys(c.category for c in sorted(result.per_cluster, key=lambda c: c.rank))
            )
        )
    model = result.categories()
    skipped = tuple(sorted(o for o in reference if o not in model))
    rows = []
    matched = compared = 0
    for obj, category in model.items():
        agency_cats = reference.get(obj, {})
        collapsed = tuple(
            (agency, collapse_category(cat, scale, collapse_table))
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
