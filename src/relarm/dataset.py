"""Loading and validation of the raw rating-object/indicator table."""

from __future__ import annotations

import csv
import enum
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


class Direction(enum.Enum):
    """How an indicator's growth influences the rated property."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class IndicatorSpec:
    """One indicator: its name and declared direction of influence.

    ``pre_normalized`` marks a column that already lives in [0, 1]
    (e.g. an expert score) and must be passed through untouched.
    """

    name: str
    direction: Direction
    pre_normalized: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("indicator name must be non-empty")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _duplicates(items) -> list[str]:
    return sorted(x for x, c in Counter(items).items() if c > 1)


@dataclass(frozen=True)
class RawDataset:
    """An M x N table of raw indicator values, one row per rating object."""

    objects: tuple[str, ...]
    indicators: tuple[IndicatorSpec, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        m, n = self.values.shape
        if len(self.objects) != m or len(self.indicators) != n:
            raise ValidationError("values shape does not match objects/indicators")
        if m < 2:
            raise ValidationError(f"need at least 2 rating objects, got {m}")
        if n < 1:
            raise ValidationError("need at least 1 indicator")
        if len(set(self.objects)) != m:
            raise ValidationError(f"duplicate object ids: {_duplicates(self.objects)}")
        names = [s.name for s in self.indicators]
        if len(set(names)) != n:
            raise ValidationError(f"duplicate indicator names: {_duplicates(names)}")
        if not np.isfinite(self.values).all():
            i, j = map(int, np.argwhere(~np.isfinite(self.values))[0])
            raise ValidationError(
                f"non-finite value at row {i + 1} ({self.objects[i]!r}), "
                f"column {names[j]!r}"
            )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_indicators(self) -> int:
        return len(self.indicators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawDataset):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.indicators == other.indicators
            and np.array_equal(self.values, other.values)
        )


def parse_indicator_specs(obj) -> tuple[IndicatorSpec, ...]:
    """Parse indicator declarations from decoded JSON.

    Accepts either a bare list of indicator dicts or a config object
    with an ``indicators`` key.
    """
    if isinstance(obj, dict):
        if "indicators" not in obj:
            raise ValidationError("config file has no 'indicators' key")
        obj = obj["indicators"]
    if not isinstance(obj, list) or not obj:
        raise ValidationError("indicator spec must be a non-empty list")
    specs = []
    for entry in obj:
        try:
            direction = Direction(str(entry["direction"]).lower())
        except (KeyError, ValueError):
            raise ValidationError(
                f"indicator {entry.get('name', '?')!r}: direction must be "
                f"'positive' or 'negative'"
            ) from None
        specs.append(
            IndicatorSpec(
                name=str(entry["name"]),
                direction=direction,
                pre_normalized=bool(entry.get("pre_normalized", False)),
            )
        )
    return tuple(specs)


def load_indicator_specs(spec_path) -> tuple[IndicatorSpec, ...]:
    with open(spec_path, encoding="utf-8") as fh:
        return parse_indicator_specs(json.load(fh))


def load_dataset(path, spec) -> RawDataset:
    """Read a CSV data table against its indicator declarations.

    ``spec`` is either the declarations themselves or a JSON file holding
    them (see :func:`parse_indicator_specs`).  The CSV has a header row of
    indicator names and one object id in the first column of each row.
    Columns are reordered to the spec's order.
    """
    if isinstance(spec, (str, os.PathLike)):
        specs = load_indicator_specs(spec)
    else:
        specs = tuple(spec)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return dataset_from_rows(rows, specs, source=str(path))


def dataset_from_rows(
    rows: list[list[str]],
    specs: tuple[IndicatorSpec, ...],
    source: str = "<memory>",
) -> RawDataset:
    if not rows:
        raise ValidationError(f"{source}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise ValidationError(f"{source}: header must have an id column plus data")
    data_names = header[1:]
    spec_names = [s.name for s in specs]
    missing = [n for n in spec_names if n not in data_names]
    extra = [n for n in data_names if n not in spec_names]
    if missing:
        raise ValidationError(f"{source}: columns declared but absent: {missing}")
    if extra:
        raise ValidationError(f"{source}: columns present but undeclared: {extra}")
    col_of = {n: data_names.index(n) + 1 for n in spec_names}

    objects: list[str] = []
    values = np.empty((len(rows) - 1, len(specs)), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{source}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        objects.append(row[0].strip())
        for j, name in enumerate(spec_names):
            cell = row[col_of[name]].strip()
            if not cell:
                raise ValidationError(f"{source}: row {r}, column {name!r}: missing value")
            try:
                values[r - 2, j] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{source}: row {r}, column {name!r}: non-numeric value {cell!r}"
                ) from None
    return RawDataset(objects=tuple(objects), indicators=specs, values=values)


def save_dataset(dataset: RawDataset, path, id_header: str = "object") -> None:
    """Write a dataset back to CSV losslessly (shortest round-trip floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([id_header] + [s.name for s in dataset.indicators])
        for obj, row in zip(dataset.objects, dataset.values):
            w.writerow([obj] + [repr(float(v)) for v in row])
