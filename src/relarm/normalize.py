"""Direction-aware min-max scaling onto [0, 1]."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import Direction, IndicatorSpec, RawDataset
from .errors import ValidationError, shown


class ConstantColumnWarning(UserWarning):
    """A column carried no information; all its entries were mapped to 0.5."""


def range_width(lo, hi, name: str) -> float:
    """The width ``hi - lo`` of column ``name``'s range, taken on Python
    floats; a width that is not finite is a ``ValidationError``."""
    width = float(hi) - float(lo)  # Python floats overflow to inf silently
    if not math.isfinite(width):
        raise ValidationError(
            f"column {shown(name)}: the width hi - lo of its range "
            f"[{float(lo)!r}, {float(hi)!r}] is not a finite number"
        )
    return width


def scale_column(col: np.ndarray, lo, hi, spec: IndicatorSpec) -> np.ndarray:
    """Min-max scale one column onto [0, 1] over the range [lo, hi].

    Positive direction maps (p - lo) / (hi - lo); negative maps
    (hi - p) / (hi - lo); values outside the range clip to the endpoints.
    A range with no spread maps to 0.5, and one whose width overflows is a
    ``ValidationError``.  A pre-normalized column, which
    :class:`RawDataset` has checked to lie in [0, 1], is returned as it is.
    """
    if spec.pre_normalized:
        return col
    if lo == hi:
        return np.full(col.shape, 0.5)
    width = range_width(lo, hi, spec.name)
    # a value far outside the range may overflow to inf, which clips exactly
    with np.errstate(over="ignore"):
        if spec.direction is Direction.POSITIVE:
            out = (col - lo) / width
        else:
            out = (hi - col) / width
    # guard against rounding just past the endpoints
    return np.clip(out, 0.0, 1.0)


def scale_values(raw: np.ndarray, specs, lo, hi, out: np.ndarray) -> np.ndarray:
    """Scale every column of the M x N raw values ``raw``, that of
    ``specs[j]`` for column j, with :func:`scale_column` over the
    per-column ranges ``lo``/``hi``, into the M x N array ``out``, which
    is returned read-only.  An ``out`` held column by column (the
    transpose of a C-contiguous array) gives the map each indicator as
    one contiguous row."""
    for j, spec in enumerate(specs):
        out[:, j] = scale_column(raw[:, j], lo[j], hi[j], spec)
    out.setflags(write=False)
    return out


def normalize_dataset(raw: RawDataset) -> np.ndarray:
    """Scale every column over its range in ``raw``, with each indicator's
    direction; one :class:`ConstantColumnWarning` names each constant
    column.  Columns flagged pre-normalized are copied verbatim.  A range
    needs at least 2 objects.
    """
    if raw.n_objects < 2:
        raise ValidationError(
            f"need at least 2 rating objects to take column ranges, got {raw.n_objects}"
        )
    lo, hi = raw.values.min(axis=0), raw.values.max(axis=0)
    # C-contiguous, the layout whose column means the fit has always summed
    out = scale_values(raw.values, raw.indicators, lo, hi, np.empty_like(raw.values))
    for j, spec in enumerate(raw.indicators):
        if not spec.pre_normalized and lo[j] == hi[j]:
            warnings.warn(
                f"column {shown(spec.name)} is constant; mapped to 0.5",
                ConstantColumnWarning,
                stacklevel=2,
            )
    return out
