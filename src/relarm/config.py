"""Pipeline configuration: indicator declarations plus run parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dataset import IndicatorSpec, checked, parse_indicator_specs, read_json, typed
from .errors import ValidationError, naming, shown
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
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValidationError("restarts and max_iterations must be >= 1")
        for fine, coarse in self.collapse_table.items():
            if coarse not in self.labels:
                raise ValidationError(
                    f"'collapse_table.{fine}' must be one of the labels "
                    f"{list(self.labels)}, got {shown(coarse)}"
                )

    @property
    def scale(self) -> RatingScale:
        return RatingScale(self.labels)


_KEYS = ("indicators", "k", "labels", "seed", "variance_threshold", "restarts",
         "max_iterations", "collapse_table")
# settings with one value in the model, accepted only at it: format-1 and
# format-2 snapshots store them
_FIXED = {"distance": "euclidean", "center": True}


def config_from_dict(raw: dict) -> PipelineConfig:
    for key, value in raw.items():
        if key in _FIXED:
            fixed = _FIXED[key]
            if type(value) is not type(fixed) or value != fixed:
                raise ValidationError(
                    f"'{key}' must be {json.dumps(fixed)}, got {shown(value)}"
                )
        elif key not in _KEYS:
            raise ValidationError(f"unknown key {shown(key)}")
    if "indicators" not in raw:
        raise ValidationError("config is missing the 'indicators' key")
    if "k" not in raw:
        raise ValidationError("config is missing the 'k' key")
    if "labels" not in raw:
        raise ValidationError("config is missing the 'labels' key")
    if not isinstance(raw["labels"], (list, tuple)):
        raise ValidationError(f"'labels' must be a list, got {shown(raw['labels'])}")
    collapse_table = raw.get("collapse_table", {})
    if not isinstance(collapse_table, dict):
        raise ValidationError(
            f"'collapse_table' must be an object, got {shown(collapse_table)}"
        )
    for fine, coarse in collapse_table.items():
        checked(fine, str, "collapse_table key")
        checked(coarse, str, f"collapse_table.{fine}")
    return PipelineConfig(
        indicators=parse_indicator_specs(raw["indicators"]),
        k=typed(raw, "k", int),
        labels=tuple(checked(x, str, f"labels[{i}]") for i, x in enumerate(raw["labels"])),
        seed=typed(raw, "seed", int, 0),
        variance_threshold=typed(
            raw, "variance_threshold", float, DEFAULT_VARIANCE_THRESHOLD
        ),
        restarts=typed(raw, "restarts", int, DEFAULT_RESTARTS),
        max_iterations=typed(raw, "max_iterations", int, DEFAULT_MAX_ITERATIONS),
        collapse_table=dict(collapse_table),
    )


def load_config(path) -> PipelineConfig:
    with naming(path):
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        return config_from_dict(raw)


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
        "collapse_table": dict(cfg.collapse_table),
    }
