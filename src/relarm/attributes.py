"""The map from the normalized matrix into ranking-function space."""

from __future__ import annotations

import numpy as np

from .dataset import _freeze
from .errors import ValidationError
from .normalize import NormalizedMatrix
from .pca import PcaModel


def map_to_feature_space(B: NormalizedMatrix | np.ndarray, model: PcaModel) -> np.ndarray:
    """Map every normalized row into ranking-function space: the frozen
    M x d array B @ W, whose entry (i, p) is the p-th ranking function
    sum_k |w_kp| * b_ik of object i."""
    x = B.values if isinstance(B, NormalizedMatrix) else np.asarray(B, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_indicators:
        raise ValidationError(
            f"matrix has {x.shape[1] if x.ndim == 2 else '?'} columns, "
            f"model expects {model.n_indicators}"
        )
    return _freeze(x @ model.W)
