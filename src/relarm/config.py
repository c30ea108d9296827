"""Pipeline configuration: the run settings, and the keys and JSON types a
config file, or a snapshot's ``config``, may hold, decided here alone."""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .dataset import Direction, IndicatorSpec, _read_text
from .errors import ValidationError, listed, naming, shown


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
                f"'variance_threshold' must be in (0, 1], got {self.variance_threshold}"
            )
        if self.k < 1:
            raise ValidationError(f"'k' must be >= 1, got {self.k}")
        if len(self.labels) != self.k:
            raise ValidationError(
                f"'labels' holds {len(self.labels)} labels but 'k' is {self.k}"
            )
        seen = set()
        for i, label in enumerate(self.labels):
            if label in seen:
                raise ValidationError(f"'labels[{i}]' repeats {shown(label)}")
            seen.add(label)
        for key in ("restarts", "max_iterations"):
            if getattr(self, key) < 1:
                raise ValidationError(f"'{key}' must be >= 1, got {getattr(self, key)}")
        for fine, coarse in self.collapse_table.items():
            if coarse not in self.labels:
                raise ValidationError(
                    f"{shown(f'collapse_table.{fine}')} must be one of the labels "
                    f"{listed(self.labels)}, got {shown(coarse)}"
                )


# settings with one value in the model, accepted only at it: format-1 and
# format-2 snapshots store them
_FIXED = {"distance": "euclidean", "center": True}

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def checked(value, kind, label: str):
    """``value`` checked to be a JSON ``kind``: an integer (not a boolean)
    for int, any number for float, true or false for bool, a string for
    str.  Anything else is a ``ValidationError`` naming ``label``."""
    if kind is int or kind is float:
        ok = isinstance(value, int if kind is int else (int, float))
        ok = ok and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValidationError(f"{shown(label)} must be {_KINDS[kind]}, got {shown(value)}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{shown(label)} is too large, got {shown(value)}") from None


def parse_indicator_specs(obj) -> tuple[IndicatorSpec, ...]:
    """A config's decoded ``indicators``: a non-empty list of objects, each
    with a ``name``, a ``direction`` and, optionally, ``pre_normalized``."""
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"'indicators' must be a non-empty list, got {shown(obj)}")
    specs = []
    for i, entry in enumerate(obj):
        at = f"indicators[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValidationError(f"{at} must be an object with a 'name', got {shown(entry)}")
        for key in entry:
            if key not in ("name", "direction", "pre_normalized"):
                raise ValidationError(f"unknown key {shown(f'{at}.{key}')}")
        value = entry.get("direction")
        try:
            direction = Direction(str(value).lower())
        except ValueError:
            raise ValidationError(
                f"'{at}.direction' must be 'positive' or 'negative', got {shown(value)}"
            ) from None
        name = checked(entry["name"], str, f"{at}.name")
        if name in (s.name for s in specs):
            raise ValidationError(f"'{at}.name' repeats {shown(name)}")
        flag = checked(entry.get("pre_normalized", False), bool, f"{at}.pre_normalized")
        specs.append(IndicatorSpec(name, direction, flag))
    return tuple(specs)


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
        checked(raw["k"], int, "k"),
        tuple(checked(x, str, f"labels[{i}]") for i, x in enumerate(raw["labels"])),
        # the scalar settings, each of its default's type
        **{
            f.name: checked(raw.get(f.name, f.default), type(f.default), f.name)
            for f in settings
            if f.default is not MISSING
        },
        collapse_table=dict(collapse_table),
    )


def read_json(path):
    """Decode a JSON file; a file that is not UTF-8 JSON, or that ``json``
    cannot decode (nested past the recursion limit, an integer past the
    digit limit), is a ``ValidationError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None


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
