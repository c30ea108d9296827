"""Deterministic k-means with careful seeding over the ranked feature space."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .dataset import _freeze
from .errors import ValidationError

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """Deterministic 64-bit generator, identical on every platform.

    State update (Marsaglia xorshift with Vigna's star multiplier), all
    arithmetic mod 2**64:

        x ^= x >> 12
        x ^= x << 25
        x ^= x >> 27
        output = x * 2685821657736338717

    The seed is whitened through one splitmix64 step so that seed 0 is
    usable and nearby seeds give unrelated streams.
    """

    def __init__(self, seed: int) -> None:
        self._x = _splitmix64(seed & _MASK64)
        if self._x == 0:
            self._x = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._x = x
        return (x * 2685821657736338717) & _MASK64

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.random() * n) % n


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of the best restart: assignments are 1-based cluster ids.
    ``converged`` is False when ``max_iterations`` stopped it short of a
    Lloyd fixed point."""

    assignments: tuple[int, ...]
    centers: np.ndarray = field(repr=False)
    sse: float
    restarts_used: int
    seed: int
    sse_history: tuple[float, ...] = ()
    converged: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", _freeze(self.centers))

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _sq_dists(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances, k x M, from ``centers`` (k x d) to the points of
    ``coords`` (d x M, coordinate-major).  The d squares are summed in
    coordinate order, one contiguous pass per coordinate."""
    d2 = np.subtract(coords[0], centers[:, 0, None])
    d2 *= d2
    t = np.empty_like(d2)
    for j in range(1, coords.shape[0]):
        np.subtract(coords[j], centers[:, j, None], out=t)
        t *= t
        d2 += t
    return d2


def nearest_center(
    coords: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index of each point's nearest center (ties to the lowest index) and
    the squared distance to it; ``coords`` is d x M, ``centers`` k x d."""
    d2 = _sq_dists(coords, centers)
    best = d2.min(axis=0)
    idx = np.full(best.shape, centers.shape[0] - 1, dtype=np.intp)
    for q in range(centers.shape[0] - 2, -1, -1):
        idx = np.where(d2[q] == best, q, idx)
    return idx, best


def _coords(points: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(points.T, dtype=np.float64)


def _kmeanspp_init(points: np.ndarray, k: int, rng: Xorshift64Star) -> np.ndarray:
    coords = _coords(points)
    n = coords.shape[1]
    centers = np.empty((k, coords.shape[0]))
    centers[0] = points[rng.randint(n)]
    d2 = _sq_dists(coords, centers[:1])[0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at existing centers; fall back to uniform
            idx = rng.randint(n)
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[i] = points[idx]
        np.minimum(d2, _sq_dists(coords, centers[i : i + 1])[0], out=d2)
    return centers


def _lloyd(
    points: np.ndarray, centers: np.ndarray, max_iterations: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Lloyd iterations to an assignment fixed point (or the cap).

    Returns (assignments 0-based, centers, sse, per-iteration sse).  The
    returned assignment is the last one made and the centers are the ones
    it was made against, also when the cap stops the iterations.  Empty
    clusters are repaired by promoting the points farthest from their
    current centers to singleton centers, skipping any point that is the
    only one of its cluster.  A center moves to the mean of its points,
    summed in index order.
    """
    coords = _coords(points)
    k = centers.shape[0]
    prev = None
    history: list[float] = []
    for it in range(max_iterations):
        assign, point_d2 = nearest_center(coords, centers)
        counts = np.bincount(assign, minlength=k)

        empties = np.flatnonzero(counts == 0)
        if empties.size:
            donors = iter(np.argsort(-point_d2, kind="stable"))
            for q in empties:
                idx = next(i for i in donors if counts[assign[i]] > 1)
                centers[q] = points[idx]
                counts[assign[idx]] -= 1
                counts[q] += 1
                assign[idx] = q
                point_d2[idx] = 0.0

        sse = float(point_d2.sum())
        history.append(sse)
        if prev is not None and np.array_equal(assign, prev) and not empties.size:
            break
        if it == max_iterations - 1:
            break  # the cap: keep the centers this assignment was made against
        prev = assign
        _means(coords, assign, counts, out=centers)
    return assign, centers, history[-1], history


def _means(coords, assign, counts, out: np.ndarray) -> np.ndarray:
    """The cluster means of the points into ``out`` (k x d), each summed
    in index order."""
    for j, c in enumerate(coords):
        out[:, j] = np.bincount(assign, weights=c, minlength=counts.size) / counts
    return out


def _is_fixed_point(points: np.ndarray, assign: np.ndarray, centers: np.ndarray) -> bool:
    """Whether another Lloyd iteration would leave ``assign`` and ``centers``
    as they are, as it does once ``_lloyd`` has converged."""
    coords = _coords(points)
    counts = np.bincount(assign, minlength=centers.shape[0])
    return (
        bool(counts.all())
        and np.array_equal(nearest_center(coords, centers)[0], assign)
        and np.array_equal(_means(coords, assign, counts, np.empty_like(centers)), centers)
    )


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 50,
    max_iterations: int = 300,
) -> ClusteringResult:
    """Best of ``restarts`` independently seeded k-means++ runs over the
    rows of ``points``.

    Each restart draws from its own deterministic stream derived from
    (seed, restart index), so results are independent of execution order.
    Ties on the final sum of squared errors go to the earliest restart.

    Where ``os.fork`` exists (Linux), more than one CPU is usable and no
    other Python thread runs, the restarts run in up to one process per
    usable CPU (:func:`relarm._fork.cpus`); the result is byte-identical to
    running them in order.
    """
    x = np.array(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError("points must be a non-empty 2-D matrix")
    distinct = np.unique(x, axis=0).shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > distinct:
        raise ValidationError(
            f"k={k} exceeds the number of distinct points ({distinct})"
        )
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")

    workers = min(restarts, _fork.cpus())
    shares = _fork.fork_map(
        lambda share: _share_best(x, k, seed, restarts, max_iterations, share, workers),
        range(workers),
    )
    sse, _, assign, centers, history = min(shares, key=_rank)
    return ClusteringResult(
        assignments=tuple(int(a) + 1 for a in assign),
        centers=centers,
        sse=sse,
        restarts_used=restarts,
        seed=seed,
        sse_history=tuple(history),
        converged=_is_fixed_point(x, assign, centers),
    )


def _rank(result) -> tuple[float, int]:
    """Restart results compare by final SSE, an equal SSE going to the
    earlier restart."""
    return result[:2]


def _restart(x, k, seed, r, max_iterations):
    """(sse, r, assignments, centers, sse history) of restart ``r``."""
    rng = Xorshift64Star(_splitmix64(seed & _MASK64) ^ r)
    assign, centers, sse, history = _lloyd(x, _kmeanspp_init(x, k, rng), max_iterations)
    return sse, r, assign, centers, history


def _share_best(x, k, seed, restarts, max_iterations, share, workers):
    """The best result of restarts ``share``, ``share + workers``, ..."""
    results = (
        _restart(x, k, seed, r, max_iterations) for r in range(share, restarts, workers)
    )
    return min(results, key=_rank)
