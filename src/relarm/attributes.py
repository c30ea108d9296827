"""The map from the normalized matrix B into ranking-function space,
B @ W, summed in a fixed order."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .pca import PcaModel


def map_to_feature_space(B: np.ndarray, model: PcaModel) -> np.ndarray:
    """Map every row of the M x N normalized matrix ``B`` into
    ranking-function space: the frozen d x M coordinate-major array whose
    entry (p, i) is the p-th ranking function sum_j |w_jp| * b_ij of
    object i, which ``clustering.nearest_center`` takes as it is.

    Each sum runs over the indicators in their order, one elementwise
    numpy pass per term, as ``clustering._sq_dists`` sums its squares, so
    no BLAS routine runs and an object's coordinates depend on its own row
    alone, not on the rows beside it.  The columns of ``B`` are read as
    contiguous rows: free when ``B`` is the transpose of a C-contiguous
    array, as ``snapshot.normalize_with_snapshot`` gives it, and one copy
    otherwise.
    """
    x = np.asarray(B, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_indicators:
        raise ValidationError(
            f"matrix has {x.shape[1] if x.ndim == 2 else '?'} columns, "
            f"model expects {model.n_indicators}"
        )
    rows = np.ascontiguousarray(x.T)  # indicator-major
    w = model.W
    coords = np.empty((model.d, x.shape[0]))
    term = np.empty(x.shape[0])
    for p, f in enumerate(coords):
        np.multiply(rows[0], w[0, p], out=f)
        for j in range(1, len(rows)):
            np.multiply(rows[j], w[j, p], out=term)
            f += term
    coords.setflags(write=False)
    return coords
