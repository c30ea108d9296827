"""Principal components of the normalized M x N matrix B, l1-scaled,
with the N x d weight matrix W and the rating vector Lambda of retained
variance fractions.

``fit_pca`` solves the eigenproblem with ``np.linalg.eigh``;
``jacobi_eigh`` is the pure-Python reference solver it replaced, kept for
comparison and no longer called by the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import _freeze
from .errors import NumericalError, ValidationError

_RANK_EPS = 1e-12  # eigenvalues below this fraction of the trace count as zero


def jacobi_eigh(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row, zeroing each off-diagonal entry in turn, until the
    off-diagonal Frobenius norm falls below ``tol`` times the matrix
    Frobenius norm (or below ``tol`` absolutely for a near-zero matrix).

    Returns (eigenvalues, eigenvectors); eigenvectors are the columns of
    the second array, unsorted.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValidationError("matrix must be symmetric")
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    limit = tol * max(1.0, float(np.linalg.norm(a)))

    def off_norm() -> float:
        return float(np.linalg.norm(a - np.diag(a.diagonal())))

    for _ in range(max_sweeps):
        if off_norm() <= limit:
            return a.diagonal().copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = -apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = -1.0 / (abs(theta) + np.hypot(theta, 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
                a[p, q] = a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ rot.T

    off = off_norm()
    if off <= limit:
        return a.diagonal().copy(), v
    raise NumericalError(
        f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
        f"(off-diagonal norm {off:.3e})"
    )


@dataclass(frozen=True)
class PcaModel:
    """Fitted components plus the derived ranking weights.

    components   : N x N, column k is the l1-normalized k-th component;
                   None when loaded from a snapshot, which does not store it
    variance_fractions : length-N, eigenvalue_k / trace, descending
    d            : retained component count (cumulative fraction rule)
    W            : N x d entrywise |components[:, :d]|, columns sum to 1
    Lambda       : the first d variance fractions
    """

    components: np.ndarray | None = field(repr=False)
    variance_fractions: np.ndarray = field(repr=False)
    d: int
    W: np.ndarray = field(repr=False)
    Lambda: np.ndarray = field(repr=False)
    variance_threshold: float
    centered: bool = True

    @property
    def n_indicators(self) -> int:
        return self.W.shape[0]


def _l1_columns(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column to unit l1 norm, sign-canonicalized so the
    largest-magnitude entry is positive (first such entry on ties)."""
    out = np.array(vectors, dtype=np.float64)
    for k in range(out.shape[1]):
        col = out[:, k]
        norm = np.abs(col).sum()
        if norm == 0.0:
            continue
        lead = int(np.argmax(np.abs(col)))
        sign = 1.0 if col[lead] >= 0.0 else -1.0
        out[:, k] = sign * col / norm
    return out


def derive_weights(
    components: np.ndarray,
    variance_fractions: np.ndarray,
    variance_threshold: float,
    centered: bool = True,
) -> PcaModel:
    """Pick d by the cumulative-variance rule and build W and Lambda.

    d is the smallest count whose cumulative fraction reaches the
    threshold, capped at the numerical rank.
    """
    fractions = np.asarray(variance_fractions, dtype=np.float64)
    rank = int(np.sum(fractions > _RANK_EPS))
    if rank == 0:
        raise ValidationError("data has zero total variance; cannot fit")
    cumulative = np.cumsum(fractions)
    d = int(np.searchsorted(cumulative, variance_threshold - 1e-15) + 1)
    d = min(d, rank)
    w = np.abs(components[:, :d])
    return PcaModel(
        components=_freeze(components),
        variance_fractions=_freeze(fractions),
        d=d,
        W=_freeze(w),
        Lambda=_freeze(fractions[:d]),
        variance_threshold=float(variance_threshold),
        centered=centered,
    )


def fit_pca(
    B: np.ndarray, variance_threshold: float = 0.95, center: bool = True
) -> PcaModel:
    """Fit principal components to the M x N normalized matrix ``B``.

    Components are eigenvectors of the sample covariance matrix
    (divisor M - 1) of the mean-centered data, computed by LAPACK's
    symmetric eigensolver (``np.linalg.eigh``), each rescaled to unit l1
    norm.  ``center=False`` skips the mean subtraction for comparison
    runs.
    """
    if not 0.0 < variance_threshold <= 1.0:
        raise ValidationError(
            f"variance threshold must be in (0, 1], got {variance_threshold}"
        )
    x = np.asarray(B, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValidationError("need an M x N matrix with M >= 2")
    m = x.shape[0]
    centered_x = x - x.mean(axis=0) if center else np.array(x)
    cov = centered_x.T @ centered_x / (m - 1)

    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from None
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise ValidationError("data has zero total variance; cannot fit")
    eigvals = np.maximum(eigvals, 0.0)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    fractions = eigvals / eigvals.sum()
    components = _l1_columns(eigvecs)
    return derive_weights(components, fractions, variance_threshold, centered=center)
