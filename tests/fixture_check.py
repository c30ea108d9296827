"""Arithmetic self-check of the published weight and variance fixtures
(Tables 5 and 6 of the paper), used by the tests that load them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relarm.errors import ValidationError


@dataclass(frozen=True)
class FixtureReport:
    """Arithmetic self-check of a shipped weight/variance fixture."""

    column_sums: tuple[float, ...]
    lambda_sum: float | None
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_fixture_w(
    w_fixture: np.ndarray,
    lambda_fixture: np.ndarray | None = None,
    column_tol: float = 1e-3,
    lambda_expected: float = 0.96,
    lambda_tol: float = 5e-3,
) -> FixtureReport:
    """Check a published weight matrix (and optionally its variance vector)
    for internal arithmetic consistency: each W column sums to 1 within
    ``column_tol``; the variance entries sum to ``lambda_expected`` within
    ``lambda_tol``."""
    w = np.asarray(w_fixture, dtype=np.float64)
    if w.ndim != 2:
        raise ValidationError("weight fixture must be a 2-D matrix")
    sums = tuple(float(s) for s in w.sum(axis=0))
    failures = [
        f"column {k + 1} sums to {s:.6f}, expected 1 within {column_tol}"
        for k, s in enumerate(sums)
        if abs(s - 1.0) > column_tol
    ]
    lam_sum = None
    if lambda_fixture is not None:
        lam_sum = float(np.asarray(lambda_fixture, dtype=np.float64).sum())
        if abs(lam_sum - lambda_expected) > lambda_tol:
            failures.append(
                f"variance vector sums to {lam_sum:.6f}, expected "
                f"{lambda_expected} within {lambda_tol}"
            )
    return FixtureReport(
        column_sums=sums, lambda_sum=lam_sum, failures=tuple(failures)
    )
