"""k-means restarts spread over forked workers give the serial result.

The fork path is forced by reporting four usable CPUs (the ``fork_calls``
fixture of ``conftest.py``) and opening the size gate, so these tests fork
on any POSIX host, whatever its CPU count and however small the fit;
``serial`` reports one CPU.
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
    _lloyd,
    _splitmix64,
    kmeans,
    nearest_center,
)
from conftest import FORK_CPUS as CPUS

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no os.fork"
)


@pytest.fixture
def forks(fork_calls, monkeypatch):
    """Force the fork path, for fits of any size; the list collects one
    entry per fork."""
    monkeypatch.setattr(_fork, "FORK_MIN_BYTES", 0)
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


def assert_best_full_run(got, pts, k, seed, restarts):
    """``got`` is the best of the restarts run to their ends one by one,
    with no restart stopped for retracing another."""
    coords = _coords(np.asarray(pts, dtype=np.float64))
    runs = [clustering._restart(coords, k, seed, r, 300) for r in range(restarts)]
    sse, _, assign, centers, history = min(runs, key=clustering._rank)
    assert got.assignments == tuple(int(a) + 1 for a in assign)
    assert got.centers.tobytes() == centers.tobytes()
    assert got.sse == sse
    assert got.sse_history == tuple(history)


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
    alone = [clustering._restart(_coords(pts), 3, seed, r, 300) for r in range(restarts)]
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
        centers = _kmeanspp_init(_coords(pts), k, Xorshift64Star(_splitmix64(seed) ^ r))
        assign = nearest_center(_coords(pts), centers)[0]
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


def test_country_sample_restarts_stay_in_one_process(fork_calls, monkeypatch,
                                                     country_config, country_run):
    """The country sample's restarts sweep 8 * 7 * 30 * 50 bytes, 84 kB,
    well below the size gate, so they run in one process; with the gate
    opened they fork, one process per usable CPU, to the same result."""
    cfg, pts = country_config, country_run.features
    fit = lambda: kmeans(pts, cfg.k, seed=cfg.seed, restarts=cfg.restarts)
    alone = fit()
    assert fork_calls == []
    monkeypatch.setattr(_fork, "FORK_MIN_BYTES", 0)
    assert_same(fit(), alone)
    assert len(fork_calls) == CPUS - 1


def test_gate_keeps_threaded_callers_serial(forks, country_config, country_run):
    """While another Python thread runs, which a forked child would not
    inherit, the country sample's restarts stay in one process, even with
    the size gate open."""
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
    assert forks == []


@pytest.mark.parametrize("kind", ["normal", "grid", "planted"])
@pytest.mark.parametrize("instance", range(3))
def test_retrace_stop_keeps_the_best_full_run(forks, kind, instance):
    """Restarts that stop on retracing an earlier one of their share change
    nothing, serial or forked: on normal points, on integer grids with
    duplicate points, where exact distance ties are common, and on planted
    clusters, which many restarts find by different routes."""
    rng = np.random.default_rng(310 + instance)
    if kind == "normal":
        pts = rng.normal(size=(150, 3))
    elif kind == "grid":
        pts = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
    else:
        planted = rng.normal(scale=4.0, size=(5, 2))
        pts = planted[rng.integers(0, 5, size=150)] + rng.normal(scale=0.5, size=(150, 2))
    k, seed, restarts = 3 + instance, instance, 30
    assert_best_full_run(serial(pts, k, seed=seed, restarts=restarts), pts, k, seed, restarts)
    assert_best_full_run(kmeans(pts, k, seed=seed, restarts=restarts), pts, k, seed, restarts)
    assert len(forks) == CPUS - 1


def test_retrace_stop_fires_on_the_country_sample(monkeypatch, country_config, country_run):
    """In one process, 7 of the country sample's 50 restarts reach a set of
    centers an earlier restart held and stop there: fewer Lloyd iterations
    (counted as mean steps), the same result."""
    cfg, pts = country_config, country_run.features
    steps, stopped = [], []
    real_means, real_restart = clustering._means, clustering._restart

    def means(*args, **kwargs):
        steps.append(None)
        return real_means(*args, **kwargs)

    def restart(*args):
        result = real_restart(*args)
        if result is None:
            stopped.append(args[3])
        return result

    monkeypatch.setattr(clustering, "_means", means)
    monkeypatch.setattr(clustering, "_restart", restart)
    got = serial(pts, cfg.k, seed=cfg.seed, restarts=cfg.restarts)
    retraced = len(steps)
    assert len(stopped) == 7 and 0 not in stopped
    steps.clear()
    assert_best_full_run(got, pts, cfg.k, cfg.seed, cfg.restarts)
    assert retraced < len(steps)


def test_no_restart_stops_on_a_set_that_met_a_tie():
    """Points 0, 1, 2, 3 and centers 2, 0: point 1 is as near to both, the
    tie goes to center 2, and the run ends at SSE 2.  From centers 0, 2,
    the same set in the other order, the tie goes to center 0 and the run
    ends at SSE 1.  So the first run records nothing, and the second,
    which has the lower SSE, runs to its end."""
    coords = _coords(np.array([[0.0], [1.0], [2.0], [3.0]]))
    seen = {}
    assert _lloyd(coords, np.array([[2.0], [0.0]]), 300, seen)[3] == [2.0, 2.0]
    assert seen == {}
    assign, centers, sse, history = _lloyd(coords, np.array([[0.0], [2.0]]), 300, seen)
    assert assign.tolist() == [0, 0, 1, 1] and history == [2.0, 1.0]
    assert len(seen) == 1  # the fixed point 0.5, 2.5, one iteration from its end


def test_no_restart_stops_on_a_set_that_met_a_repair(monkeypatch):
    """Points 0, 1, 10, 11 and centers 0, 1, 100: the center at 100 wins no
    point in the first iteration and the one at 5.5 none in the second,
    so only the fixed point 0, 1, 10.5 is recorded.  A later run from the
    first set, in another order, does not stop there: it repairs too,
    and stops on reaching the recorded fixed point."""
    coords = _coords(np.array([[0.0], [1.0], [10.0], [11.0]]))
    seen = {}
    assert _lloyd(coords, np.array([[0.0], [1.0], [100.0]]), 300, seen)[3] == [81.0, 1.0, 0.5]
    fixed = np.array([[0.0], [1.0], [10.5]])
    assert seen == {b"".join(sorted(c.tobytes() for c in fixed)): 1}
    real_nearest, steps = clustering.nearest_center, []

    def nearest(*args):
        steps.append(None)
        return real_nearest(*args)

    monkeypatch.setattr(clustering, "nearest_center", nearest)
    assert _lloyd(coords, np.array([[100.0], [1.0], [0.0]]), 300, seen) is None
    assert len(steps) == 2
    # a cap of 3 leaves no room to follow the recorded run to its end
    capped = _lloyd(coords, np.array([[100.0], [1.0], [0.0]]), 3, seen)
    assert capped[3] == _lloyd(coords, np.array([[100.0], [1.0], [0.0]]), 3)[3]
