"""k-means restarts spread over forked workers give the serial result.

The fork path is forced by reporting four usable CPUs (the ``fork_calls``
fixture of ``conftest.py``), so these tests fork on any POSIX host,
whatever its CPU count; ``serial`` reports one.
"""

import os
import threading

import numpy as np
import pytest

from relarm import _fork, clustering
from relarm.clustering import (
    Xorshift64Star,
    _coords,
    _kmeanspp_init,
    _splitmix64,
    kmeans,
    nearest_center,
)
from conftest import FORK_CPUS as CPUS

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no os.fork"
)


@pytest.fixture
def forks(fork_calls):
    """Force the fork path; the list collects one entry per fork."""
    return fork_calls


def serial(*args, **kwargs):
    """``kmeans`` with one usable CPU reported, so in one process."""
    saved = _fork.cpus
    _fork.cpus = lambda: 1
    try:
        return kmeans(*args, **kwargs)
    finally:
        _fork.cpus = saved


def assert_same(got, want):
    assert got.assignments == want.assignments
    assert got.centers.dtype == want.centers.dtype
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.sse == want.sse
    assert got.sse_history == want.sse_history
    assert (got.restarts_used, got.seed, got.converged) == (
        want.restarts_used, want.seed, want.converged
    )


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("restarts", [1, 2, 3, CPUS + 3, 3 * CPUS])
@pytest.mark.parametrize("instance", range(3))
def test_forked_restarts_equal_serial(forks, restarts, instance):
    rng = np.random.default_rng(100 + instance)
    pts = rng.normal(size=(150, 3))
    k = 2 + instance
    want = serial(pts, k, seed=instance, restarts=restarts)
    got = kmeans(pts, k, seed=instance, restarts=restarts)
    assert_same(got, want)
    assert len(forks) == min(restarts, CPUS) - 1
    assert_no_children()


def test_equal_sse_goes_to_the_earliest_restart_across_workers(forks):
    """Four square blobs at the corners of an 8 x 12 rectangle and k=3:
    merging either pair of blobs along a short side gives the same SSE to
    the last bit.  At this seed restart 0 settles in a worse optimum and
    restart 1, which runs in a child, is the earliest of several that tie
    with different labelings; it must win over share 0's later ones."""
    offsets = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    corners = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 12.0], [8.0, 12.0]])
    pts = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    seed, restarts = 11, 12
    alone = [clustering._restart(pts, 3, seed, r, 300) for r in range(restarts)]
    best = min(a[0] for a in alone)
    winners = [a for a in alone if a[0] == best]
    assert alone[0][0] > best and winners[0][1] == 1
    assert any(w[1] % CPUS == 0 for w in winners)
    assert len({w[2].tobytes() for w in winners}) >= 2
    got = kmeans(pts, 3, seed=seed, restarts=restarts)
    assert_same(got, serial(pts, 3, seed=seed, restarts=restarts))
    assert got.assignments == tuple(int(q) + 1 for q in winners[0][2])
    assert len(forks) == CPUS - 1


def test_iteration_cap_of_one(forks):
    pts = np.random.default_rng(7).normal(size=(200, 2))
    want = serial(pts, 5, seed=1, restarts=9, max_iterations=1)
    assert not want.converged
    assert_same(kmeans(pts, 5, seed=1, restarts=9, max_iterations=1), want)
    assert forks


def test_duplicate_points_force_repairs(forks):
    """Points a squared distance 0 apart (1e-200 squared underflows) and
    repeated points make k-means++ place centers that win no point, so
    the first Lloyd step of some restarts repairs an empty cluster."""
    pts = np.array([[0.0], [1e-200], [2e-200], [3e-200], [5.0], [5.0], [9.0], [9.0]])
    k, seed, restarts = 5, 0, 16
    repairs = 0
    for r in range(restarts):
        centers = _kmeanspp_init(pts, k, Xorshift64Star(_splitmix64(seed) ^ r))
        assign, _ = nearest_center(_coords(pts), centers)
        repairs += np.bincount(assign, minlength=k).min() == 0
    assert repairs >= 2
    want = serial(pts, k, seed=seed, restarts=restarts)
    assert_same(kmeans(pts, k, seed=seed, restarts=restarts), want)
    assert forks


def test_payload_larger_than_a_pipe_buffer(forks):
    """10k points: each child's pickled result outgrows a 64 KiB pipe."""
    pts = np.random.default_rng(11).normal(size=(10_000, 2))
    want = serial(pts, 3, seed=5, restarts=4, max_iterations=4)
    assert_same(kmeans(pts, 3, seed=5, restarts=4, max_iterations=4), want)
    assert len(forks) == 3
    assert_no_children()


@pytest.mark.parametrize("fault", ["raise", "short", "empty"])
def test_failed_child_share_runs_in_process(forks, monkeypatch, fault):
    parent = os.getpid()
    real_share, real_dumps = clustering._share_best, _fork.pickle.dumps

    def share_best(*args):
        if os.getpid() != parent and fault == "raise":
            raise RuntimeError("child fault")
        if os.getpid() != parent and fault == "empty":
            os._exit(0)
        return real_share(*args)

    def dumps(obj, *args):
        data = real_dumps(obj, *args)
        return data[: len(data) // 2] if os.getpid() != parent else data

    monkeypatch.setattr(clustering, "_share_best", share_best)
    if fault == "short":
        monkeypatch.setattr(_fork.pickle, "dumps", dumps)
    pts = np.random.default_rng(3).normal(size=(120, 2))
    want = serial(pts, 4, seed=9, restarts=10)
    assert_same(kmeans(pts, 4, seed=9, restarts=10), want)
    assert len(forks) == CPUS - 1
    assert_no_children()


def test_failed_fork_runs_the_share_in_process(forks, monkeypatch):
    """The second fork fails (no process to spare): its share runs here,
    the children forked before and after it still run theirs, and no
    pipe is left open."""
    counting_fork = os.fork

    def fork():
        if len(forks) == 1:
            forks.append(None)
            raise BlockingIOError("fork: resource temporarily unavailable")
        return counting_fork()

    parent = os.getpid()
    real_share = clustering._share_best
    here = []  # the shares this process ran

    def share_best(*args):
        if os.getpid() == parent:
            here.append(args[5])
        return real_share(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(clustering, "_share_best", share_best)
    pts = np.random.default_rng(8).normal(size=(120, 2))
    want = serial(pts, 4, seed=2, restarts=10)
    here.clear()
    assert_same(kmeans(pts, 4, seed=2, restarts=10), want)
    assert len(forks) == CPUS - 1
    assert here == [0, 2]  # share 1 and 3 came from their children
    assert_no_children()


def test_parent_share_raising_reaps_every_child(forks, monkeypatch):
    """The parent's own share fails while its children still write results
    larger than a pipe buffer: the error propagates and no child is left."""
    parent = os.getpid()
    real_share = clustering._share_best

    def share_best(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent fault")
        return real_share(*args)

    monkeypatch.setattr(clustering, "_share_best", share_best)
    pts = np.random.default_rng(4).normal(size=(10_000, 2))
    with pytest.raises(RuntimeError, match="parent fault"):
        kmeans(pts, 3, seed=0, restarts=4, max_iterations=2)
    assert len(forks) == 3
    assert_no_children()


def test_country_sample_restarts_fork(forks_counted, country_config, country_run):
    """The smallest real fit forks its restarts, one process per usable
    CPU: no size gate keeps a fit in one process."""
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        pytest.skip("one usable CPU")
    cfg, pts = country_config, country_run.features
    got = kmeans(pts, cfg.k, seed=cfg.seed, restarts=cfg.restarts)
    assert len(forks_counted) == min(cfg.restarts, cpus) - 1
    assert_same(got, serial(pts, cfg.k, seed=cfg.seed, restarts=cfg.restarts))


def test_gate_keeps_threaded_callers_serial(forks_counted, country_config, country_run):
    """While another Python thread runs, which a forked child would not
    inherit, the country sample's restarts stay in one process."""
    cfg = country_config
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        kmeans(country_run.features, cfg.k, seed=cfg.seed, restarts=cfg.restarts)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks_counted == []
