"""Pipeline configuration: indicator declarations plus run parameters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .dataset import IndicatorSpec, parse_indicator_specs, read_json, typed
from .errors import ValidationError
from .rating import RatingScale

DEFAULT_VARIANCE_THRESHOLD = 0.95
DEFAULT_RESTARTS = 50
DEFAULT_MAX_ITERATIONS = 300


@dataclass(frozen=True)
class PipelineConfig:
    indicators: tuple[IndicatorSpec, ...]
    k: int
    labels: tuple[str, ...]
    seed: int = 0
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD
    restarts: int = DEFAULT_RESTARTS
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    distance: str = "euclidean"
    center: bool = True
    collapse_table: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ValidationError(
                f"variance_threshold must be in (0, 1], got {self.variance_threshold}"
            )
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if len(self.labels) != self.k:
            raise ValidationError(
                f"rating scale has {len(self.labels)} labels but k={self.k}"
            )
        RatingScale(self.labels)  # uniqueness check
        if self.distance != "euclidean":
            raise ValidationError(
                f"unsupported distance {self.distance!r}; only 'euclidean'"
            )
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValidationError("restarts and max_iterations must be >= 1")

    @property
    def scale(self) -> RatingScale:
        return RatingScale(self.labels)

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


def config_from_dict(raw: dict) -> PipelineConfig:
    if "indicators" not in raw:
        raise ValidationError("config is missing the 'indicators' key")
    if "k" not in raw:
        raise ValidationError("config is missing the 'k' key")
    if "labels" not in raw:
        raise ValidationError("config is missing the 'labels' key")
    if not isinstance(raw["labels"], (list, tuple)):
        raise ValidationError(f"'labels' must be a list, got {raw['labels']!r}")
    if not isinstance(raw.get("collapse_table", {}), dict):
        raise ValidationError(
            f"'collapse_table' must be an object, got {raw['collapse_table']!r}"
        )
    return PipelineConfig(
        indicators=parse_indicator_specs(raw["indicators"]),
        k=typed(raw, "k", int),
        labels=tuple(str(x) for x in raw["labels"]),
        seed=typed(raw, "seed", int, 0),
        variance_threshold=typed(
            raw, "variance_threshold", float, DEFAULT_VARIANCE_THRESHOLD
        ),
        restarts=typed(raw, "restarts", int, DEFAULT_RESTARTS),
        max_iterations=typed(raw, "max_iterations", int, DEFAULT_MAX_ITERATIONS),
        distance=str(raw.get("distance", "euclidean")),
        center=typed(raw, "center", bool, True),
        collapse_table=dict(raw.get("collapse_table", {})),
    )


def load_config(path) -> PipelineConfig:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    try:
        return config_from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "indicators": [
            {
                "name": s.name,
                "direction": s.direction.value,
                "pre_normalized": s.pre_normalized,
            }
            for s in cfg.indicators
        ],
        "k": cfg.k,
        "labels": list(cfg.labels),
        "seed": cfg.seed,
        "variance_threshold": cfg.variance_threshold,
        "restarts": cfg.restarts,
        "max_iterations": cfg.max_iterations,
        "distance": cfg.distance,
        "center": cfg.center,
        "collapse_table": dict(cfg.collapse_table),
    }
