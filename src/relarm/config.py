"""Pipeline configuration: indicator declarations plus run parameters."""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .dataset import IndicatorSpec, checked, parse_indicator_specs, read_json, typed
from .errors import ValidationError, listed, naming, shown
from .rating import RatingScale


@dataclass(frozen=True)
class PipelineConfig:
    """The run settings: the config file's keys, with the default of each it may omit."""

    indicators: tuple[IndicatorSpec, ...]
    k: int
    labels: tuple[str, ...]
    seed: int = 0
    variance_threshold: float = 0.95
    restarts: int = 50
    max_iterations: int = 300
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
        for key in ("restarts", "max_iterations"):
            if getattr(self, key) < 1:
                raise ValidationError(f"'{key}' must be >= 1, got {getattr(self, key)}")
        for fine, coarse in self.collapse_table.items():
            if coarse not in self.labels:
                raise ValidationError(
                    f"{shown(f'collapse_table.{fine}')} must be one of the labels "
                    f"{listed(self.labels)}, got {shown(coarse)}"
                )

    @property
    def scale(self) -> RatingScale:
        return RatingScale(self.labels)


# settings with one value in the model, accepted only at it: format-1 and
# format-2 snapshots store them
_FIXED = {"distance": "euclidean", "center": True}


def config_from_dict(raw: dict) -> PipelineConfig:
    settings = fields(PipelineConfig)
    for key, value in raw.items():
        if key in _FIXED:
            fixed = _FIXED[key]
            if type(value) is not type(fixed) or value != fixed:
                raise ValidationError(
                    f"'{key}' must be {json.dumps(fixed)}, got {shown(value)}"
                )
        elif key not in (f.name for f in settings):
            raise ValidationError(f"unknown key {shown(key)}")
    for f in settings:
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ValidationError(f"config is missing the '{f.name}' key")
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
        parse_indicator_specs(raw["indicators"]),
        typed(raw, "k", int),
        tuple(checked(x, str, f"labels[{i}]") for i, x in enumerate(raw["labels"])),
        # the scalar settings, each of its default's type
        **{
            f.name: typed(raw, f.name, type(f.default), f.default)
            for f in settings
            if f.default is not MISSING
        },
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
        **{f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "indicators": [{**asdict(s), "direction": s.direction.value} for s in cfg.indicators],
        "labels": list(cfg.labels),
        "collapse_table": dict(cfg.collapse_table),
    }
