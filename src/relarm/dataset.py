"""Loading and validation of the raw rating-object/indicator table."""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import _fork
from .errors import ValidationError

# ``_parse_plain`` forks, one share per usable CPU, when the text reaches
# this size; each child adds a fixed cost (fork, copy-on-write page
# faults, exit and reap) and a cost per row it hands back.  The value is
# carried over from unpinned shares: pinned, nothing between 0.9 MB (one
# process) and 4.5 MB was measured.  At 4.5 MB (the first 25k rows of a
# 100k x 9 table), a fresh process's first ``relarm assign`` on 2 CPUs took
# a median 100 ms forked against 137 ms in one process, faster in 22 of 24.
FORK_MIN_BYTES = 3_500_000


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
    """An M x N table of raw indicator values, one row per rating object;
    every value is finite, and those of a pre-normalized column lie in
    [0, 1]."""

    objects: tuple[str, ...]
    indicators: tuple[IndicatorSpec, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        m, n = self.values.shape
        if len(self.objects) != m or len(self.indicators) != n:
            raise ValidationError("values shape does not match objects/indicators")
        if m < 1:
            raise ValidationError("need at least 1 rating object, got 0")
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
        for j, spec in enumerate(self.indicators):
            if spec.pre_normalized:
                col = self.values[:, j]
                bad = (col < 0.0) | (col > 1.0)
                if bad.any():
                    i = int(np.argmax(bad))
                    raise ValidationError(
                        f"pre-normalized column {spec.name!r} has value {col[i]} "
                        f"outside [0, 1] for object {self.objects[i]!r}"
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


def check_indicators(got, want, source: str) -> None:
    """Raise a ``ValidationError`` unless the dataset's indicator specs
    ``got`` equal ``want``, those of ``source``, in name, direction and
    pre-normalized flag; it names the first indicator that differs."""
    for i, (g, w) in enumerate(zip_longest(got, want)):
        if g != w:
            raise ValidationError(
                f"dataset indicator {i + 1} is {_describe(g)}, but {source} "
                f"declares {_describe(w)}"
            )


def _describe(spec: IndicatorSpec | None) -> str:
    if spec is None:
        return "absent"
    flag = ", pre-normalized" if spec.pre_normalized else ""
    return f"{spec.name!r} ({spec.direction.value}{flag})"


_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def typed(obj: dict, key: str, kind, default=None, label=None):
    """``obj[key]``, or ``default`` when absent, checked by :func:`checked`
    under ``label`` (default: the key)."""
    return checked(obj.get(key, default), kind, label or key)


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
        raise ValidationError(f"'{label}' must be {_KINDS[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"'{label}' is too large, got {value!r}") from None


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
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValidationError(
                f"indicators[{i}] must be an object with a 'name', got {entry!r}"
            )
        for key in entry:
            if key not in ("name", "direction", "pre_normalized"):
                raise ValidationError(f"unknown key 'indicators[{i}].{key}'")
        try:
            direction = Direction(str(entry["direction"]).lower())
        except (KeyError, ValueError):
            raise ValidationError(
                f"indicator {entry['name']!r}: direction must be "
                f"'positive' or 'negative'"
            ) from None
        name = typed(entry, "name", str, label=f"indicators[{i}].name")
        if name in (s.name for s in specs):
            raise ValidationError(f"'indicators[{i}].name' repeats {name!r}")
        flag = typed(entry, "pre_normalized", bool, False, f"indicators[{i}].pre_normalized")
        specs.append(IndicatorSpec(name, direction, flag))
    return tuple(specs)


def load_dataset(path, spec) -> RawDataset:
    """Read a CSV data table against its indicator declarations.

    ``spec`` is either the declarations themselves or a JSON file holding
    them (see :func:`parse_indicator_specs`).  The CSV has a header row of
    indicator names and one object id in the first column of each row.
    Columns are reordered to the spec's order.

    The header must name each declared indicator exactly once.  A plain
    table (no quotes, no blank lines, every row as wide as the header) is
    parsed by numpy's C parser; anything else, and any value that parser
    rejects or reads as non-finite, goes through ``csv`` and per-cell
    ``float()``, which gives the same values and names the offending cell,
    by file line, in its errors.
    """
    if isinstance(spec, (str, os.PathLike)):
        declared = read_json(spec)
        try:
            specs = parse_indicator_specs(declared)
        except ValidationError as exc:
            raise ValidationError(f"{spec}: {exc}") from None
    else:
        specs = tuple(spec)
    text = _read_text(path)
    try:
        table = _parse_plain(text, specs)
        if table is None:
            table = _parse_rows(list(csv.reader(io.StringIO(text, newline=""))), specs)
        objects, values = table
        return RawDataset(objects=tuple(objects), indicators=specs, values=values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def read_json(path):
    """Decode a JSON file; a file that is not UTF-8 JSON is a
    ``ValidationError`` naming it."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _read_text(path) -> str:
    """The file decoded as UTF-8; an undecodable byte is a
    ``ValidationError`` naming the file, line and offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}: line {line}: byte {data[exc.start]:#04x} at offset "
            f"{exc.start} is not UTF-8 text"
        ) from None


def _parse_plain(
    text: str, specs: tuple[IndicatorSpec, ...]
) -> tuple[list[str], np.ndarray] | None:
    """Ids and values of a plain table by numpy's C parser, or None when
    the text needs the per-cell path (see :func:`load_dataset`); a bad
    header raises here, as it would there.

    Lines end as ``csv`` ends them: at ``\\r\\n``, ``\\r`` or ``\\n``.  A
    text of :data:`FORK_MIN_BYTES` or more is cut at line ends into one share
    per usable CPU, parsed in forked processes and joined in order.
    """
    if '"' in text or not text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = text.find("\n") + 1 or len(text)
    header = [c.strip() for c in text[:start].split(",")]
    usecols = _columns(header, specs)
    if start == len(text):  # no data line
        return None
    workers = _fork.cpus() if len(text) >= FORK_MIN_BYTES else 1
    size = len(text) - start
    cuts = {text.find("\n", start + size * i // workers) + 1 for i in range(1, workers)}
    bounds = sorted(cuts - {0} | {start, len(text)})  # find gives -1 past the last end
    shares = list(zip(bounds, bounds[1:]))
    parts = _fork.fork_map(
        lambda share: _parse_share(text, *share, usecols, len(header) - 1), shares
    )
    if None in parts:
        return None
    # every share holds a line, so none joins to "" and splits to a phantom id
    ids = "\n".join(ids for ids, _ in parts).split("\n")
    values = parts[0][1] if len(parts) == 1 else np.concatenate([v for _, v in parts])
    return ids, values


def _parse_share(
    text: str, start: int, end: int, usecols: list[int], commas: int
) -> tuple[str, np.ndarray] | None:
    """The ids, joined by ``"\\n"``, and the values of the data lines
    ``text[start:end]``, or None as for :func:`_parse_plain`.  One string
    of ids pickles back from a forked share faster than a list of them."""
    lines = text[start:end].split("\n")
    if lines[-1] == "":
        lines.pop()
    # loadtxt reads every column up to the last, and raises on a row
    # narrower than that, so when the total matches, every row has exactly
    # ``commas`` commas
    if text.count(",", start, end) != commas * len(lines):
        return None
    try:
        values = np.loadtxt(
            lines,
            delimiter=",",
            comments=None,
            usecols=usecols,
            dtype=np.float64,
            ndmin=2,
        )
    except ValueError:
        return None
    if values.shape[0] != len(lines):  # loadtxt skips blank lines
        return None
    if not np.isfinite(values).all():  # the per-cell path names the cell
        return None
    return "\n".join([line.partition(",")[0].strip() for line in lines]), values


def _columns(header: list[str], specs: tuple[IndicatorSpec, ...]) -> list[int]:
    """The column of each declared indicator in ``header``, the stripped
    first row; a header with no data column, or a missing, undeclared or
    repeated name, is a ``ValidationError``."""
    if len(header) < 2:
        raise ValidationError("header must have an id column plus data")
    data_names = header[1:]
    column_of = {n: c for c, n in enumerate(data_names, start=1)}
    declared = {s.name for s in specs}
    missing = [s.name for s in specs if s.name not in column_of]
    extra = [n for n in data_names if n not in declared]
    if missing:
        raise ValidationError(f"columns declared but absent: {missing}")
    if extra:
        raise ValidationError(f"columns present but undeclared: {extra}")
    if len(column_of) != len(data_names):
        raise ValidationError(f"columns repeated in the header: {_duplicates(data_names)}")
    return [column_of[s.name] for s in specs]


def _parse_rows(
    rows: list[list[str]], specs: tuple[IndicatorSpec, ...]
) -> tuple[list[str], np.ndarray]:
    """Ids and values of CSV rows, cell by cell."""
    if not rows:
        raise ValidationError("empty file")
    width = len(rows[0])
    columns = list(zip(_columns([c.strip() for c in rows[0]], specs), specs))
    objects: list[str] = []
    values = np.empty((len(rows) - 1, len(specs)), dtype=np.float64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValidationError(f"row {r} has {len(row)} cells, expected {width}")
        objects.append(row[0].strip())
        for j, (c, spec) in enumerate(columns):
            cell = row[c].strip()
            if not cell:
                raise ValidationError(f"row {r}, column {spec.name!r}: missing value")
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"row {r}, column {spec.name!r}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"row {r}, column {spec.name!r}: non-finite value {cell!r}"
                )
            values[r - 2, j] = value
    return objects, values
