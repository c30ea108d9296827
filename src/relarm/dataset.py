"""Loading and validation of the raw rating-object/indicator table, read
against indicator declarations that ``config`` has parsed."""

from __future__ import annotations

import csv
import enum
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, zip_longest

import numpy as np

from . import _fork
from .errors import ValidationError, listed, naming, shown


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
        _check_names(self.objects, self.indicators)
        if not np.isfinite(self.values).all():
            i, j = map(int, np.argwhere(~np.isfinite(self.values))[0])
            raise ValidationError(
                f"non-finite value at row {i + 1} ({shown(self.objects[i])}), "
                f"column {shown(self.indicators[j].name)}"
            )
        _check_unit_range(self.objects, self.indicators, _outside(self.values, self.indicators))

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


def _check_names(objects, specs) -> None:
    """The checks of a whole table that read no value: at least one object
    and one indicator, and no id or indicator name repeated."""
    if len(objects) < 1:
        raise ValidationError("need at least 1 rating object, got 0")
    if len(specs) < 1:
        raise ValidationError("need at least 1 indicator")
    if len(set(objects)) != len(objects):
        raise ValidationError(f"duplicate object ids: {shown(_duplicates(objects))}")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate indicator names: {shown(_duplicates(names))}")


def _outside(values: np.ndarray, specs) -> list:
    """For each column of ``values``, the (row, value) of its first value
    outside [0, 1] when ``specs`` declares it pre-normalized, else None."""
    first = []
    for j, spec in enumerate(specs):
        hit = None
        if spec.pre_normalized:
            col = values[:, j]
            bad = (col < 0.0) | (col > 1.0)
            if bad.any():
                i = int(np.argmax(bad))
                hit = (i, col[i])
        first.append(hit)
    return first


def _check_unit_range(objects, specs, outside) -> None:
    """Raise for the first column, in ``specs``' order, that
    :func:`_outside` found a value outside [0, 1] in."""
    for spec, hit in zip(specs, outside):
        if hit is not None:
            i, value = hit
            raise ValidationError(
                f"pre-normalized column {shown(spec.name)} has value {value} "
                f"outside [0, 1] for object {shown(objects[i])}"
            )


@dataclass(frozen=True)
class Shares:
    """What :func:`load_dataset` gives with ``each``: the number of rows
    of a table that passed every check of a :class:`RawDataset`, and
    ``each``'s result for every share of its parse, in file order."""

    n_objects: int
    results: tuple


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
    return f"{shown(spec.name)} ({spec.direction.value}{flag})"


def load_dataset(path, specs, each=None) -> RawDataset | Shares:
    """Read a CSV data table against the indicator declarations ``specs``,
    a config's ``indicators`` (``load_config(p).indicators``).  The CSV has
    a header row of indicator names and one object id in the first column
    of each row.  Columns are reordered to the declarations' order.
    ``specs`` that holds anything else, a config's path or its raw
    ``indicators`` entries, is a ``TypeError``.

    The header must name each declared indicator exactly once.  The data
    lines are parsed share by share (see :func:`_parse_plain`); a share
    that numpy's C parser declines or reads as non-finite is parsed cell by
    cell, which gives the same values and names a bad cell by its file row.
    Without ``each``, the table is a :class:`RawDataset`.

    With ``each``, ``each(ids, values)`` is called on the rows of every
    share, a list of ids and their read-only values, columns in the
    declarations' order, in the process that parsed the share: a forked
    child for each share but the first, unless the child failed or
    numpy's parser declined the share (:func:`_parse_plain`).  So ``each``
    must call no BLAS routine, and only what it returns reaches the caller.
    The table is then checked as a :class:`RawDataset` is, with the same
    errors in the same order, and :class:`Shares` holds the results in
    file order.  The check comes after the last share, so ``each`` may see
    rows that the check then rejects.
    """
    specs = tuple(specs)
    if not all(isinstance(s, IndicatorSpec) for s in specs):
        raise TypeError(
            "specs must be IndicatorSpec declarations, such as load_config(path).indicators"
        )
    with naming(path):
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            _decoded(data)  # an undecodable byte is reported before any other fault
        if each is None:
            parts = _parse_plain(data, specs, lambda ids, values: values)
            objects = tuple(chain.from_iterable(ids for ids, _ in parts))
            values = parts[0][1] if len(parts) == 1 else np.concatenate([v for _, v in parts])
            return RawDataset(objects=objects, indicators=specs, values=values)
        parts = _parse_plain(
            data, specs, lambda ids, values: (_outside(values, specs), each(ids, values))
        )
        objects = tuple(chain.from_iterable(ids for ids, _ in parts))
        _check_names(objects, specs)
        outside = [None] * len(specs)  # the table's first (row, value) per column
        offset = 0
        for ids, (found, _) in parts:
            for j, hit in enumerate(found):
                if outside[j] is None and hit is not None:
                    outside[j] = (offset + hit[0], hit[1])
            offset += len(ids)
        _check_unit_range(objects, specs, outside)
        return Shares(len(objects), tuple(result for _, (_, result) in parts))


def _read_text(path) -> str:
    """The file decoded by :func:`_decoded`."""
    with open(path, "rb") as fh:
        return _decoded(fh.read())


def _decoded(data: bytes) -> str:
    """``data`` decoded as UTF-8; an undecodable byte is a
    ``ValidationError`` naming the line and offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"line {line}: byte {data[exc.start]:#04x} at offset "
            f"{exc.start} is not UTF-8 text"
        ) from None


def _parse_plain(data: bytes, specs: tuple[IndicatorSpec, ...], fn) -> list:
    """``(ids, fn(ids, values))`` of each share of the UTF-8 table ``data``,
    in file order, ``fn`` called in the process that parsed the share on a
    list of its ids and their read-only values.  A text that the cut at
    line ends cannot serve, one with a quote (a quoted cell may hold a line
    end), an empty one or a header alone, is one share, parsed whole, cell
    by cell, by :func:`_parse_rows`.

    Lines end as ``csv`` ends them: at ``\\r\\n``, ``\\r`` or ``\\n``.  The
    bytes are cut at line ends into ``_fork.processes(len(data))`` shares,
    each of which decodes its own and parses it with numpy's C parser in
    its own process (:func:`_fork.fork_map`).  A share that parser declines
    is parsed on its own in this process by the per-cell path, which names
    a bad cell by its file row, in file order as the results come in.
    """
    quoted = b'"' in data
    if b"\r" in data and not quoted:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = data.find(b"\n") + 1 or len(data)
    if quoted or start == len(data):  # no share to cut: the whole text, cell by cell
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        ids, values = _parse_rows(rows, specs)
        return [(ids, fn(ids, _freeze(values)))]
    header = [c.strip() for c in data[:start].decode("utf-8").split(",")]
    usecols = _columns(header, specs)
    workers = _fork.processes(len(data))
    size = len(data) - start
    cuts = {data.find(b"\n", start + size * i // workers) + 1 for i in range(1, workers)}
    bounds = sorted(cuts - {0} | {start, len(data)})  # find gives -1 past the last end
    shares = list(zip(bounds, bounds[1:]))

    def parse(share):
        part = _parse_share(data, *share, usecols, len(header) - 1)
        if part is None:
            return None
        ids, values = part
        # one string of ids pickles back from a forked share faster than a list
        return "\n".join(ids), fn(ids, _freeze(values))

    def take(i, part):  # in this process, share by share in file order
        if part is None:  # this share alone, cell by cell
            lo, hi = shares[i]
            rows = list(csv.reader(io.StringIO(data[lo:hi].decode("utf-8"), newline="")))
            ids, values = _parse_cells(rows, header, specs, data.count(b"\n", 0, lo) + 1)
            return ids, fn(ids, _freeze(values))
        # every share holds a line, so none splits to a phantom id
        return part[0].split("\n"), part[1]

    return _fork.fork_map(parse, shares, take)


def _parse_share(
    data: bytes, start: int, end: int, usecols: list[int], commas: int
) -> tuple[list[str], np.ndarray] | None:
    """The ids and the values of the data lines ``data[start:end]``, or
    None when numpy's C parser declines them or reads a value as
    non-finite."""
    lines = str(memoryview(data)[start:end], "utf-8").split("\n")  # no copy of the bytes
    if lines[-1] == "":
        lines.pop()
    # loadtxt reads every column up to the last, and raises on a row
    # narrower than that, so when the total matches, every row has exactly
    # ``commas`` commas (counted by numpy, ~6x faster than bytes.count)
    found = np.count_nonzero(np.frombuffer(data, np.uint8, end - start, start) == ord(","))
    if found != commas * len(lines):
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
    return [line.partition(",")[0].strip() for line in lines], values


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
        raise ValidationError(f"columns declared but absent: {listed(missing)}")
    if extra:
        raise ValidationError(f"columns present but undeclared: {listed(extra)}")
    if len(column_of) != len(data_names):
        repeated = listed(_duplicates(data_names))
        raise ValidationError(f"columns repeated in the header: {repeated}")
    return [column_of[s.name] for s in specs]


def _parse_rows(
    rows: list[list[str]], specs: tuple[IndicatorSpec, ...]
) -> tuple[list[str], np.ndarray]:
    """Ids and values of CSV rows, the header first, cell by cell."""
    if not rows:
        raise ValidationError("empty file")
    return _parse_cells(rows[1:], [c.strip() for c in rows[0]], specs, 2)


def _parse_cells(
    rows: list[list[str]], header: list[str], specs: tuple[IndicatorSpec, ...], first: int
) -> tuple[list[str], np.ndarray]:
    """Ids and values of the CSV data ``rows``, cell by cell, under the
    stripped ``header``; the first is file row ``first``."""
    width = len(header)
    columns = list(zip(_columns(header, specs), specs))
    objects: list[str] = []
    values = np.empty((len(rows), len(specs)), dtype=np.float64)
    for r, row in enumerate(rows, start=first):
        if len(row) != width:
            raise ValidationError(f"row {r} has {len(row)} cells, expected {width}")
        objects.append(row[0].strip())
        for j, (c, spec) in enumerate(columns):
            cell = row[c].strip()
            if not cell:
                raise ValidationError(f"row {r}, column {shown(spec.name)}: missing value")
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"row {r}, column {shown(spec.name)}: non-numeric value {shown(cell)}"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"row {r}, column {shown(spec.name)}: non-finite value {shown(cell)}"
                )
            values[r - first, j] = value
    return objects, values
