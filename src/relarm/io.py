"""CSV/JSON readers and writers for pipeline artifacts.

All floats serialize via ``repr`` (shortest round-trip form), so re-reading
a written file reproduces the exact double.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from io import StringIO
from pathlib import Path

import numpy as np

from .dataset import _read_text
from .errors import ValidationError
from .rating import AgreementReport, ClusterRating, RatingResult


def _fmt(v: float) -> str:
    return repr(float(v))


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """A UTF-8 text file to write ``path``'s new content to.  It is a
    temporary file in ``path``'s directory that replaces ``path`` when the
    block ends, so readers see the old file or the whole new one; when the
    block raises, it is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_line(cells) -> str:
    buf = StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def write_matrix_csv(path, values: np.ndarray, header: list[str], row_ids=None) -> None:
    values = np.atleast_2d(values)
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, row in enumerate(values):
            cells = [_fmt(v) for v in row]
            if row_ids is not None:
                cells = [row_ids[i]] + cells
            w.writerow(cells)


def write_ratings_csv(path, ratings: RatingResult) -> None:
    """One row per object: its id and its cluster's id, projection and
    category, quoted as ``csv.writer`` quotes them.  Each cluster's part of
    a row is formatted once; only when some id needs quoting, or is not a
    string, does every row go through ``csv.writer``."""
    cells = {
        c.cluster: (c.cluster, _fmt(c.projection), c.category) for c in ratings.per_cluster
    }
    try:
        plain = not any(ch in "".join(ratings.objects) for ch in ',"\r\n')
    except TypeError:  # an id that is not a string: csv.writer formats it
        plain = False
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["object", "cluster", "projection", "category"])
        if plain:
            suffix = {c: "," + _csv_line(row) for c, row in cells.items()}
            fh.write(
                "".join(obj + suffix[c] for obj, c in zip(ratings.objects, ratings.clusters))
            )
        else:
            w.writerows((obj, *cells[c]) for obj, c in zip(ratings.objects, ratings.clusters))


def _cell(path, r: int, row: dict, column: str, kind):
    """``row[column]`` parsed as ``kind`` (an int, or a finite float);
    anything else is a ``ValidationError`` naming the file, row and column."""
    try:
        value = kind(row[column])
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        raise ValidationError(
            f"{path}: row {r}, column {column!r}: {row[column]!r} is not "
            f"{'an integer' if kind is int else 'a finite number'}"
        )
    return value


def read_ratings_csv(path) -> RatingResult:
    """Rebuild a rating result from CSV.  Each object appears once, and
    every row of a cluster must give the projection and category of its
    first row.  Rows are numbered by the line they end on, the header being
    row 1."""
    reader = csv.DictReader(StringIO(_read_text(path), newline=""))
    rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise ValidationError(f"{path}: empty ratings file")
    needed = ("object", "cluster", "projection", "category")
    if not set(needed).issubset(rows[0][1]):
        raise ValidationError(f"{path}: ratings file must have columns {sorted(needed)}")
    row_of: dict[str, int] = {}  # object -> row
    clusters = []
    first: dict[int, tuple[int, float, str]] = {}  # cluster -> (row, projection, category)
    for r, row in rows:
        if None in (row[c] for c in needed):
            raise ValidationError(f"{path}: row {r} has fewer cells than the header")
        if row_of.setdefault(row["object"], r) != r:
            raise ValidationError(
                f"{path}: row {r}: object {row['object']!r} is already rated "
                f"at row {row_of[row['object']]}"
            )
        q = _cell(path, r, row, "cluster", int)
        p = _cell(path, r, row, "projection", float)
        r0, p0, c0 = first.setdefault(q, (r, p, row["category"]))
        if (p0, c0) != (p, row["category"]):
            raise ValidationError(
                f"{path}: row {r}: cluster {q} has projection {p!r} and category "
                f"{row['category']!r}, but row {r0} gave it {p0!r} and {c0!r}"
            )
        clusters.append(q)
    ranked = sorted(first.items(), key=lambda item: (-item[1][1], item[0]))
    per_cluster = tuple(
        ClusterRating(cluster=q, projection=p, rank=rank + 1, category=c)
        for rank, (q, (_, p, c)) in enumerate(ranked)
    )
    return RatingResult(tuple(row_of), tuple(clusters), per_cluster)


def read_reference_csv(path) -> dict[str, dict[str, str]]:
    """Reference agency ratings: columns object, agency, category, one row
    per (object, agency) pair."""
    reader = csv.DictReader(StringIO(_read_text(path), newline=""))
    if reader.fieldnames is None or not {"object", "agency", "category"}.issubset(
        reader.fieldnames
    ):
        raise ValidationError(
            f"{path}: reference file must have columns object, agency, category"
        )
    out: dict[str, dict[str, str]] = {}
    row_of: dict[tuple[str, str], int] = {}  # (object, agency) -> row
    for row in reader:
        r = reader.line_num
        obj, agency, cat = row["object"], row["agency"], row["category"]
        if None in (obj, agency, cat):
            raise ValidationError(f"{path}: row {r} has fewer cells than the header")
        if row_of.setdefault((obj, agency), r) != r:
            raise ValidationError(
                f"{path}: row {r}: object {obj!r} is already rated by agency "
                f"{agency!r} at row {row_of[obj, agency]}"
            )
        cat = cat.strip()
        if not cat or cat.lower() == "not rated":
            continue
        out.setdefault(obj, {})[agency] = cat
    return out


def write_agreement_json(path, report: AgreementReport) -> None:
    doc = {
        "matched": report.matched,
        "compared": report.compared,
        "fraction": report.fraction,
        "no_comparable_objects": report.compared == 0,
        "skipped_reference_objects": list(report.skipped),
        "per_object": [
            {
                "object": a.object_id,
                "model_category": a.model_category,
                "reference": {agency: cat for agency, cat in a.reference},
                "matched": a.matched,
            }
            for a in report.per_object
        ],
        "note": report.note,
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
