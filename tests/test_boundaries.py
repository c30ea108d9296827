"""The checks at the library's own entry points, which no command reaches:
each misuse is a ``ValidationError`` that says what is wrong."""

import re

import numpy as np
import pytest

from relarm.clustering import kmeans
from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.errors import ValidationError
from relarm.pca import derive_weights, fit_pca
from relarm.rating import RatingResult

X = (IndicatorSpec("x", Direction.POSITIVE),)


@pytest.mark.parametrize("call, message", [
    (lambda: RawDataset(("a", "b"), X, np.zeros((3, 1))),
     "values shape does not match objects/indicators"),
    (lambda: RawDataset(("a",), (), np.zeros((1, 0))), "need at least 1 indicator"),
    (lambda: kmeans(np.empty((0, 2)), 1, 0), "points must be a non-empty 2-D matrix"),
    (lambda: kmeans(np.array([1.0, 2.0, 3.0]), 1, 0), "points must be a non-empty 2-D matrix"),
    (lambda: kmeans(np.ones((3, 2)), 1, 0, max_iterations=0), "max_iterations must be >= 1, got 0"),
    (lambda: kmeans(np.array([[0.0], [np.nan], [1.0]]), 1, 0), "points hold a non-finite number"),
    (lambda: fit_pca(np.array([[1.0, 2.0]])), "need an M x N matrix with M >= 2"),
    (lambda: fit_pca(np.array([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]])),
     "matrix holds a non-finite number"),
    (lambda: RatingResult(("a", "b"), (1,), ()), "objects/clusters length mismatch"),
    (lambda: derive_weights(np.eye(2), np.zeros(2), 0.95),
     "data has zero total variance; cannot fit"),
], ids=["dataset-shape", "dataset-no-indicator", "kmeans-empty", "kmeans-1-d",
        "kmeans-no-iteration", "kmeans-nan", "pca-one-row", "pca-nan", "result-lengths",
        "weights-zero-variance"])
def test_library_misuse_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
