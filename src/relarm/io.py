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
import shutil
import tempfile
from io import StringIO
from itertools import chain
from pathlib import Path

import numpy as np

from .dataset import _duplicates, _read_text
from .errors import ValidationError, listed, naming, shown
from .rating import REPORT_FOOTER, AgreementReport, ClusterRating, RatingResult


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


@contextlib.contextmanager
def written_together(out_dir):
    """A directory to write several outputs into.  It is a temporary
    directory in ``out_dir`` whose files replace those of the same names in
    ``out_dir`` when the block ends, so a failed write leaves every earlier
    output as it was, not those of two runs; when the block raises, it is
    removed with all it holds."""
    stage = Path(tempfile.mkdtemp(prefix=".staged-", dir=out_dir))
    try:
        yield stage
        for name in sorted(os.listdir(stage)):
            os.replace(stage / name, Path(out_dir) / name)
    finally:
        shutil.rmtree(stage)


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
    """The ratings file of ``ratings``: a header, then one row per object
    (:func:`rating_rows`)."""
    write_rating_rows(path, [rating_rows(ratings)])


def write_rating_rows(path, blocks) -> None:
    """A ratings file of the header and then ``blocks``, each the text of
    some rows from :func:`rating_rows`, in order."""
    with atomic_write(path, newline="") as fh:
        fh.write(_csv_line(["object", "cluster", "projection", "category"]))
        fh.writelines(blocks)


def rating_rows(ratings: RatingResult) -> str:
    """The rows of ``ratings`` in a ratings file, one per object: its id
    and its cluster's id, projection and category, quoted as
    ``csv.writer`` quotes them.  Each cluster's part of a row is formatted
    once; only when some id needs quoting, or is not a string, does every
    row go through ``csv.writer``."""
    cells = {
        c.cluster: (c.cluster, _fmt(c.projection), c.category) for c in ratings.per_cluster
    }
    try:
        plain = not any(ch in "".join(ratings.objects) for ch in ',"\r\n')
    except TypeError:  # an id that is not a string: csv.writer formats it
        plain = False
    if plain:
        suffix = {c: "," + _csv_line(row) for c, row in cells.items()}
        rows = zip(ratings.objects, map(suffix.__getitem__, ratings.clusters))
        return "".join(chain.from_iterable(rows))
    buf = StringIO()
    csv.writer(buf).writerows(
        (obj, *cells[c]) for obj, c in zip(ratings.objects, ratings.clusters)
    )
    return buf.getvalue()


def _cell(r: int, row: dict, column: str, kind):
    """``row[column]`` parsed as ``kind`` (an int, or a finite float);
    anything else is a ``ValidationError`` naming the row and column."""
    try:
        value = kind(row[column])
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        raise ValidationError(
            f"row {r}, column {column!r}: {shown(row[column])} is not "
            f"{'an integer' if kind is int else 'a finite number'}"
        )
    return value


def _rows(path, needed):
    """The rows of the CSV file ``path``, each as the line it ends on (the
    header's being 1) and a dict of its cells by column; blank lines are
    skipped.  The header must repeat no name and hold every column of
    ``needed``, and each row must have a cell for each column."""
    reader = csv.DictReader(StringIO(_read_text(path), newline=""))
    header = reader.fieldnames or ()
    repeated = _duplicates(header)
    if repeated:
        raise ValidationError(f"columns repeated in the header: {listed(repeated)}")
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValidationError(f"columns missing from the header: {listed(missing)}")
    for row in reader:
        if None in row:  # DictReader files the cells past the header under None
            raise ValidationError(f"row {reader.line_num} has more cells than the header")
        if None in row.values():  # and gives None for those a short row lacks
            raise ValidationError(f"row {reader.line_num} has fewer cells than the header")
        yield reader.line_num, row


def read_ratings_csv(path) -> RatingResult:
    """Rebuild a rating result from CSV.  Each object appears once, and
    every row of a cluster must give the projection and category of its
    first row.  Rows are numbered by the line they end on, the header being
    row 1."""
    with naming(path):
        row_of: dict[str, int] = {}  # object -> row
        clusters = []
        # cluster -> (row, projection, category) of its first row
        first: dict[int, tuple[int, float, str]] = {}
        for r, row in _rows(path, ("object", "cluster", "projection", "category")):
            if row_of.setdefault(row["object"], r) != r:
                raise ValidationError(
                    f"row {r}: object {shown(row['object'])} is already rated "
                    f"at row {row_of[row['object']]}"
                )
            q = _cell(r, row, "cluster", int)
            p = _cell(r, row, "projection", float)
            r0, p0, c0 = first.setdefault(q, (r, p, row["category"]))
            if (p0, c0) != (p, row["category"]):
                raise ValidationError(
                    f"row {r}: cluster {q} has projection {p!r} and category "
                    f"{shown(row['category'])}, but row {r0} gave it {p0!r} and {shown(c0)}"
                )
            clusters.append(q)
        if not clusters:
            raise ValidationError("empty ratings file")
    # best first: descending projection, equal projections lower id first
    ranked = sorted(first.items(), key=lambda item: (-item[1][1], item[0]))
    per_cluster = tuple(
        ClusterRating(cluster=q, projection=p, category=c) for q, (_, p, c) in ranked
    )
    return RatingResult(tuple(row_of), tuple(clusters), per_cluster)


def read_reference_csv(path) -> dict[str, dict[str, str]]:
    """Reference agency ratings: columns object, agency, category, one row
    per (object, agency) pair."""
    with naming(path):
        out: dict[str, dict[str, str]] = {}
        row_of: dict[tuple[str, str], int] = {}  # (object, agency) -> row
        for r, row in _rows(path, ("object", "agency", "category")):
            obj, agency, cat = row["object"], row["agency"], row["category"].strip()
            if row_of.setdefault((obj, agency), r) != r:
                raise ValidationError(
                    f"row {r}: object {shown(obj)} is already rated by agency "
                    f"{shown(agency)} at row {row_of[obj, agency]}"
                )
            if cat and cat.lower() != "not rated":
                out.setdefault(obj, {})[agency] = cat
    return out


def write_json(path, doc) -> None:
    """``doc`` as JSON, indented and with sorted keys, ending in a newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        "note": REPORT_FOOTER,
    }
    write_json(path, doc)
