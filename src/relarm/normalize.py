"""Direction-aware min-max scaling onto [0, 1]."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import Direction, IndicatorSpec, RawDataset, _freeze
from .errors import ValidationError


class ConstantColumnWarning(UserWarning):
    """A column carried no information; all its entries were mapped to 0.5."""


def scale_column(col: np.ndarray, lo, hi, spec: IndicatorSpec) -> np.ndarray:
    """Min-max scale one column onto [0, 1] over the range [lo, hi].

    Positive direction maps (p - lo) / (hi - lo); negative maps
    (hi - p) / (hi - lo); values outside the range clip to the endpoints.
    A range with no spread maps to 0.5, and one whose width overflows is a
    ``ValidationError``.  A pre-normalized column is returned as it is
    after a check that it lies in [0, 1].
    """
    if spec.pre_normalized:
        bad = (col < 0.0) | (col > 1.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"pre-normalized column {spec.name!r} has value "
                f"{col[i]} outside [0, 1] at row {i + 1}"
            )
        return col
    if lo == hi:
        return np.full(col.shape, 0.5)
    width = float(hi) - float(lo)  # Python floats overflow to inf silently
    if not math.isfinite(width):
        raise ValidationError(
            f"column {spec.name!r}: the width hi - lo of its range "
            f"[{float(lo)!r}, {float(hi)!r}] is not a finite number"
        )
    # a value far outside the range may overflow to inf, which clips exactly
    with np.errstate(over="ignore"):
        if spec.direction is Direction.POSITIVE:
            out = (col - lo) / width
        else:
            out = (hi - col) / width
    # guard against rounding just past the endpoints
    return np.clip(out, 0.0, 1.0)


def scale_dataset(raw: RawDataset, lo, hi) -> np.ndarray:
    """Scale every column of ``raw`` with :func:`scale_column` over the
    per-column ranges ``lo``/``hi``: the frozen M x N matrix, columns in
    the declared order."""
    values = np.empty_like(raw.values)
    for j, spec in enumerate(raw.indicators):
        values[:, j] = scale_column(raw.values[:, j], lo[j], hi[j], spec)
    return _freeze(values)


def normalize_dataset(raw: RawDataset) -> np.ndarray:
    """Scale every column over its range in ``raw``, with each indicator's
    direction; one :class:`ConstantColumnWarning` names each constant
    column.  Columns flagged pre-normalized are copied verbatim after a
    range check.
    """
    lo, hi = raw.values.min(axis=0), raw.values.max(axis=0)
    out = scale_dataset(raw, lo, hi)
    for j, spec in enumerate(raw.indicators):
        if not spec.pre_normalized and lo[j] == hi[j]:
            warnings.warn(
                f"column {spec.name!r} is constant; mapped to 0.5",
                ConstantColumnWarning,
                stacklevel=2,
            )
    return out
