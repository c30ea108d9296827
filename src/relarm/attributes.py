"""The map from the normalized matrix into ranking-function space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import _freeze
from .errors import ValidationError
from .normalize import NormalizedMatrix
from .pca import PcaModel


@dataclass(frozen=True)
class RankedFeatureMatrix:
    """M x d matrix; row i holds object i's d ranking-function values."""

    objects: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if len(self.objects) != self.values.shape[0]:
            raise ValidationError("objects/values length mismatch")


def map_to_feature_space(
    B: NormalizedMatrix | np.ndarray, model: PcaModel
) -> RankedFeatureMatrix:
    """Map every normalized row into ranking-function space: B @ W, so
    entry (i, p) is the p-th ranking function sum_k |w_kp| * b_ik of
    object i."""
    if isinstance(B, NormalizedMatrix):
        objects, x = B.objects, B.values
    else:
        x = np.asarray(B, dtype=np.float64)
        objects = tuple(str(i) for i in range(x.shape[0]))
    if x.ndim != 2 or x.shape[1] != model.n_indicators:
        raise ValidationError(
            f"matrix has {x.shape[1] if x.ndim == 2 else '?'} columns, "
            f"model expects {model.n_indicators}"
        )
    return RankedFeatureMatrix(objects=objects, values=x @ model.W)
