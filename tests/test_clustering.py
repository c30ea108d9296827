import numpy as np
import pytest

from relarm.clustering import (
    Xorshift64Star,
    _kmeanspp_init,
    _lloyd,
    kmeans,
)
from relarm.errors import ValidationError


class TestRng:
    def test_known_stream_is_stable(self):
        rng = Xorshift64Star(1)
        stream = [rng.next_u64() for _ in range(3)]
        rng2 = Xorshift64Star(1)
        assert [rng2.next_u64() for _ in range(3)] == stream

    def test_uniform_range(self):
        rng = Xorshift64Star(123)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < sum(xs) / len(xs) < 0.6

    def test_seed_zero_usable(self):
        assert Xorshift64Star(0).next_u64() != Xorshift64Star(1).next_u64()


def test_two_blob_optimum():
    pts = np.array([[0.0], [0.1], [0.9], [1.0]])
    res = kmeans(pts, k=2, seed=5, restarts=10)
    assert sorted(c[0] for c in res.centers) == pytest.approx([0.05, 0.95])
    assert res.sse == pytest.approx(0.01)


def test_k_equals_m():
    pts = np.arange(6, dtype=float).reshape(6, 1)
    res = kmeans(pts, k=6, seed=1, restarts=3)
    assert res.sse == 0.0
    assert sorted(c[0] for c in res.centers) == list(range(6))


def test_k_validation():
    pts = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(ValidationError, match="distinct"):
        kmeans(pts, k=3, seed=0)
    with pytest.raises(ValidationError, match="k must be"):
        kmeans(pts, k=0, seed=0)
    with pytest.raises(ValidationError, match="restarts"):
        kmeans(pts, k=2, seed=0, restarts=0)
    with pytest.raises(ValidationError, match="distance"):
        kmeans(pts, k=2, seed=0, distance="manhattan")


def test_determinism():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(40, 3))
    a = kmeans(pts, k=5, seed=99, restarts=20)
    b = kmeans(pts, k=5, seed=99, restarts=20)
    assert a.assignments == b.assignments
    assert a.sse == b.sse
    assert np.array_equal(a.centers, b.centers)


def test_result_invariants():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(50, 4))
    res = kmeans(pts, k=6, seed=3, restarts=10)
    assert set(res.assignments) == set(range(1, 7))
    labels = np.array(res.assignments) - 1
    for q in range(6):
        members = pts[labels == q]
        assert len(members) > 0
        np.testing.assert_allclose(res.centers[q], members.mean(axis=0), atol=1e-10)
    d2 = ((pts[:, None, :] - res.centers[None]) ** 2).sum(axis=2)
    own = d2[np.arange(len(pts)), labels]
    assert (own <= d2.min(axis=1) + 1e-10).all()


def test_sse_non_increasing_within_run():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = rng.uniform(size=(rng.integers(10, 40), rng.integers(1, 4)))
        k = int(rng.integers(2, 5))
        seeder = Xorshift64Star(int(rng.integers(0, 2**32)))
        centers = _kmeanspp_init(pts, k, seeder)
        _, _, _, history = _lloyd(pts, centers, 300)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_permutation_invariance_of_sse():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(30, 2))
    base = kmeans(pts, k=4, seed=11, restarts=30)
    perm = rng.permutation(30)
    shuffled = kmeans(pts[perm], k=4, seed=11, restarts=30)
    assert shuffled.sse == pytest.approx(base.sse, rel=1e-9)


def test_planted_partition_recovery():
    rng = np.random.default_rng(13)
    k, per = 4, 15
    spread = 0.01
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pts = np.vstack(
        [c + rng.normal(scale=spread, size=(per, 2)) for c in centers]
    )
    truth = np.repeat(np.arange(k), per)
    res = kmeans(pts, k=k, seed=21, restarts=10)
    found = np.array(res.assignments)
    # same partition up to relabeling
    mapping = {}
    for t, f in zip(truth, found):
        mapping.setdefault(t, f)
        assert mapping[t] == f
    assert len(set(mapping.values())) == k


def test_country_run_beats_random_restart_oracle(country_run):
    """Independent oracle: plain Lloyd from uniform random starts."""
    pts = country_run.features
    k = 7
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(1000):
        centers = pts[rng.choice(len(pts), size=k, replace=False)].copy()
        for _ in range(100):
            d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new = centers.copy()
            for q in range(k):
                if (labels == q).any():
                    new[q] = pts[labels == q].mean(axis=0)
            if np.allclose(new, centers):
                break
            centers = new
        d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
        best = min(best, float(d2.min(axis=1).sum()))
    assert country_run.clusters.sse <= best + 1e-9


def test_ties_broken_by_earliest_restart():
    # two symmetric points: every restart converges to the same zero-SSE split
    pts = np.array([[0.0], [1.0]])
    res = kmeans(pts, k=2, seed=0, restarts=5)
    assert res.sse == 0.0
    assert res.restarts_used == 5


@pytest.mark.filterwarnings("error")
def test_empty_cluster_repair_keeps_singletons():
    # the farthest point (100) is the only point of its cluster; taking it
    # would empty that cluster and make its center 0/0
    pts = np.array([[0.0], [1.0], [2.0], [100.0]])
    assign, centers, sse, history = _lloyd(pts, np.array([[0.0], [50.0], [50.0]]), 300)
    assert history == [2501.0, 0.5]
    assert assign.tolist() == [0, 0, 2, 1]
    assert centers.ravel().tolist() == [0.5, 100.0, 2.0]


def test_converged_flag_marks_the_iteration_cap():
    """The winner's run converges on iteration n: a cap of n still reports
    it converged (and gives the same result), a cap of n - 1 does not."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 2))
    free = kmeans(pts, k=5, seed=2, restarts=1)
    n = len(free.sse_history)
    assert free.converged and n >= 3
    at_cap = kmeans(pts, k=5, seed=2, restarts=1, max_iterations=n)
    assert at_cap.converged and at_cap.assignments == free.assignments
    np.testing.assert_array_equal(at_cap.centers, free.centers)
    assert not kmeans(pts, k=5, seed=2, restarts=1, max_iterations=n - 1).converged
