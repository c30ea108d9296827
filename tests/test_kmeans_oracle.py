"""The coordinate-major k-means kernel against the point-major kernel it
replaced.

The ``_oracle_*`` functions are the earlier implementation, kept verbatim:
an M x k x d difference tensor reduced by ``einsum``, ``argmin(axis=1)``,
one mask pass per cluster for empties and for the center means.  The two
kernels sum a point's d squares in a different order (``einsum`` in SIMD
lane order, the new kernel in coordinate order), so a distance may differ
by a few ulps; every other step performs the same arithmetic.  Hence:
assignments, the winning restart and the centers must be equal, and the
SSE history may differ by 1e-12 relative.

One exception is set beforehand: for d = 1 numpy's ``mean(axis=0)`` of an
M x 1 array takes its pairwise-summation path, while ``bincount`` (and the
d >= 2 mean) adds in index order.  For d = 1 the centers are therefore
compared to the bound of that summation difference, M * eps * max|x|.
"""

from __future__ import annotations

import numpy as np

from relarm.clustering import (
    Xorshift64Star,
    _MASK64,
    _coords,
    _kmeanspp_init,
    _lloyd,
    _splitmix64,
    kmeans,
    nearest_center,
)

SSE_RTOL = 1e-12
EPS = np.finfo(np.float64).eps


# --- earlier kernel, verbatim -------------------------------------------------


def _oracle_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _oracle_kmeanspp_init(points: np.ndarray, k: int, rng: Xorshift64Star) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.randint(n)]
    d2 = _oracle_sq_dists(points, centers[:1]).min(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at existing centers; fall back to uniform
            idx = rng.randint(n)
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[i] = points[idx]
        d2 = np.minimum(d2, _oracle_sq_dists(points, centers[i : i + 1]).min(axis=1))
    return centers


def _oracle_lloyd(
    points: np.ndarray, centers: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    k = centers.shape[0]
    prev = None
    history: list[float] = []
    for _ in range(max_iterations):
        d2 = _oracle_sq_dists(points, centers)
        assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(points.shape[0]), assign]

        empties = [q for q in range(k) if not np.any(assign == q)]
        if empties:
            taken: set[int] = set()
            for q in empties:
                order = np.argsort(-point_d2, kind="stable")
                idx = next(int(i) for i in order if int(i) not in taken)
                taken.add(idx)
                centers[q] = points[idx]
                assign[idx] = q
                point_d2[idx] = 0.0

        sse = float(point_d2.sum())
        history.append(sse)
        if prev is not None and np.array_equal(assign, prev) and not empties:
            break
        prev = assign
        for q in range(k):
            centers[q] = points[assign == q].mean(axis=0)
    return assign, centers, history[-1], history


# --- comparison helpers ---------------------------------------------------------


def _assert_centers_match(new, ref, points):
    if points.shape[1] == 1:
        atol = points.shape[0] * EPS * float(np.abs(points).max())
        np.testing.assert_allclose(new, ref, rtol=0, atol=atol)
    else:
        assert np.array_equal(new, ref)


def _assert_history_match(new, ref):
    assert len(new) == len(ref)
    np.testing.assert_allclose(new, ref, rtol=SSE_RTOL, atol=0)


def _assert_lloyd_match(points, centers, max_iterations=300):
    a_new, c_new, _, h_new = _lloyd(_coords(points), centers.copy(), max_iterations)
    a_ref, c_ref, _, h_ref = _oracle_lloyd(points, centers.copy(), max_iterations)
    assert np.array_equal(a_new, a_ref)
    _assert_centers_match(c_new, c_ref, points)
    _assert_history_match(h_new, h_ref)


def _assert_kmeans_match(points, k, seed, restarts):
    """Every restart agrees with the oracle, so the winner (first minimal
    SSE) is the same restart, and ``kmeans`` returns that restart."""
    ref_sse = []
    new_runs = []
    for r in range(restarts):
        stream = _splitmix64(seed & _MASK64) ^ r
        c_new = _kmeanspp_init(_coords(points), k, Xorshift64Star(stream))
        c_ref = _oracle_kmeanspp_init(points, k, Xorshift64Star(stream))
        assert np.array_equal(c_new, c_ref)
        a_new, c_new, s_new, h_new = _lloyd(_coords(points), c_new, 300)
        a_ref, c_ref, s_ref, h_ref = _oracle_lloyd(points, c_ref, 300)
        assert np.array_equal(a_new, a_ref)
        _assert_centers_match(c_new, c_ref, points)
        _assert_history_match(h_new, h_ref)
        new_runs.append((s_new, a_new, c_new, h_new))
        ref_sse.append(s_ref)
    winner = min(range(restarts), key=lambda r: (ref_sse[r], r))
    assert winner == min(range(restarts), key=lambda r: (new_runs[r][0], r))

    res = kmeans(points, k=k, seed=seed, restarts=restarts)
    s_win, a_win, c_win, h_win = new_runs[winner]
    assert res.assignments == tuple(int(a) + 1 for a in a_win)
    assert np.array_equal(res.centers, c_win)
    assert res.sse_history == tuple(h_win)


# --- tests -----------------------------------------------------------------------


def test_matches_oracle_on_continuous_instances():
    rng = np.random.default_rng(20161)
    for _ in range(100):
        m = int(np.exp(rng.uniform(np.log(20), np.log(2000))))  # log-uniform
        d = int(rng.integers(1, 10))
        k = int(rng.integers(2, 9))
        points = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0, size=d)
        _assert_kmeans_match(points, k, seed=int(rng.integers(0, 2**32)), restarts=3)


def test_matches_oracle_on_integer_grid_with_duplicates():
    """Exact squares make every distance tie real, so the lowest-index rule
    decides; centers drawn with replacement start with duplicate centers,
    so the first iteration always repairs an empty cluster."""
    rng = np.random.default_rng(20162)
    repaired = 0
    for _ in range(50):
        m = int(rng.integers(10, 301))
        d = int(rng.integers(1, 5))
        points = rng.integers(0, 4, size=(m, d)).astype(np.float64)
        distinct = np.unique(points, axis=0).shape[0]
        k = int(rng.integers(2, min(8, distinct) + 1))
        _assert_kmeans_match(points, k, seed=int(rng.integers(0, 2**32)), restarts=3)

        centers = points[rng.integers(0, m, size=k)]
        repaired += np.unique(centers, axis=0).shape[0] < k
        _assert_lloyd_match(points, centers)
    assert repaired >= 10


def test_nearest_center_matches_einsum_argmin():
    rng = np.random.default_rng(20163)
    points = rng.uniform(size=(100_000, 4))
    centers = rng.uniform(size=(7, 4))
    centers[5] = centers[2]  # exact duplicate: ties must go to index 2
    idx, best, tied = nearest_center(np.ascontiguousarray(points.T), centers)
    d2 = _oracle_sq_dists(points, centers)
    ref = d2.argmin(axis=1)
    assert np.array_equal(idx, ref)
    assert not np.any(idx == 5) and tied
    assert not nearest_center(np.ascontiguousarray(points.T), centers[:5])[2]
    np.testing.assert_allclose(best, d2[np.arange(len(points)), ref], rtol=4 * EPS, atol=0)
