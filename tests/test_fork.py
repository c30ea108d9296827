"""``relarm._fork.fork_map`` returns what a serial map returns, whatever
fails along the way, and leaves no child process or file descriptor.

The ``fork_calls`` fixture of ``conftest.py`` reports four usable CPUs,
counts the forks and fails a test that leaves a descriptor open; the
autouse fixtures there fail a test that leaves a child or a changed CPU
affinity.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from relarm import _fork
from relarm.clustering import kmeans
from relarm.dataset import Direction, IndicatorSpec
from conftest import FORK_CPUS, ForkDecided, decide_only, fake_cpus, parse_plain

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no os.fork"
)

PARENT = os.getpid()


def in_child() -> bool:
    return os.getpid() != PARENT


def square_row(share):
    """A result that names its share and the process that computed it."""
    return share, share * share, in_child()


@pytest.mark.parametrize("n", [1, 2, 3, FORK_CPUS])
def test_shares_after_the_first_run_in_children(fork_calls, n):
    got = _fork.fork_map(square_row, range(n))
    assert got == [(s, s * s, s > 0) for s in range(n)]
    assert len(fork_calls) == n - 1


def test_a_child_result_of_none_is_kept(fork_calls):
    """None is a result like any other: the share is not run again here."""
    here = []

    def fn(share):
        if not in_child():
            here.append(share)
        return None if share == 1 else share

    assert _fork.fork_map(fn, [0, 1, 2]) == [0, None, 2]
    assert here == [0]


@pytest.mark.parametrize("fault", ["raise", "short", "empty"])
def test_failed_child_share_runs_in_process(fork_calls, monkeypatch, fault):
    real_dumps = _fork.pickle.dumps
    here = []

    def fn(share):
        if in_child() and fault == "raise":
            raise RuntimeError("child fault")
        if in_child() and fault == "empty":
            os._exit(0)
        if not in_child():
            here.append(share)
        return square_row(share)[:2]

    def dumps(obj, *args):
        data = real_dumps(obj, *args)
        return data[: len(data) // 2] if in_child() else data

    if fault == "short":
        monkeypatch.setattr(_fork.pickle, "dumps", dumps)
    got = _fork.fork_map(fn, range(FORK_CPUS))
    assert got == [(s, s * s) for s in range(FORK_CPUS)]
    assert len(fork_calls) == FORK_CPUS - 1
    assert here == list(range(FORK_CPUS))  # every child's share ran again here


def test_failed_fork_runs_the_share_in_process(fork_calls, monkeypatch):
    """The second fork fails (no process to spare): its share runs here,
    and the children forked before and after it still run theirs."""
    counting_fork = os.fork

    def fork():
        if len(fork_calls) == 1:
            fork_calls.append(None)
            raise BlockingIOError("fork: resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    got = _fork.fork_map(square_row, range(FORK_CPUS))
    assert got == [(0, 0, False), (1, 1, True), (2, 4, False), (3, 9, True)]
    assert len(fork_calls) == FORK_CPUS - 1


def test_fork_raising_past_oserror_closes_its_pipe(fork_calls, monkeypatch):
    """The second fork raises an error that is not ``OSError`` (as one an
    audit hook refuses, or one in a subinterpreter, does): it propagates,
    the pipe made for that fork is closed and the child forked first is
    reaped."""
    counting_fork = os.fork

    def fork():
        if len(fork_calls) == 1:
            raise RuntimeError("fork refused")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/dev/fd"))
    with pytest.raises(RuntimeError, match="fork refused"):
        _fork.fork_map(square_row, range(FORK_CPUS))
    assert len(os.listdir("/dev/fd")) == fds
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert len(fork_calls) == 1


def big(share):
    """A result whose pickle outgrows a 64 KiB pipe buffer."""
    return bytes([share]) * (1 << 20)


def test_payload_larger_than_a_pipe_buffer(fork_calls):
    got = _fork.fork_map(big, range(FORK_CPUS))
    assert got == [big(s) for s in range(FORK_CPUS)]
    assert len(fork_calls) == FORK_CPUS - 1


def test_parent_share_raising_reaps_every_child(fork_calls):
    """The parent's own share fails while its children still write results
    larger than a pipe buffer: the error propagates and no child is left."""

    def fn(share):
        if not in_child():
            raise RuntimeError("parent fault")
        return big(share)

    with pytest.raises(RuntimeError, match="parent fault"):
        _fork.fork_map(fn, range(FORK_CPUS))
    assert len(fork_calls) == FORK_CPUS - 1


@pytest.fixture
def real_cpus(forks_counted):
    """The CPUs of this process's real affinity mask, in order, at most 8
    so that a large host forks no more; the test is skipped with fewer
    than 2."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("fewer than 2 usable CPUs")
    return cpus[:8]


def placement(share):
    return share, in_child(), os.sched_getaffinity(0)


def test_each_share_runs_alone_on_its_own_cpu(real_cpus):
    before = os.sched_getaffinity(0)
    got = _fork.fork_map(placement, range(len(real_cpus)))
    assert [g[:2] for g in got] == [(s, s > 0) for s in range(len(real_cpus))]
    assert all(len(g[2]) == 1 for g in got)
    assert len(set().union(*(g[2] for g in got))) == len(real_cpus)
    assert os.sched_getaffinity(0) == before


def test_callers_mask_is_restored_when_its_share_raises(real_cpus):
    before = os.sched_getaffinity(0)

    def fn(share):
        if not in_child():
            assert len(os.sched_getaffinity(0)) == 1
            raise RuntimeError("parent fault")
        return share

    with pytest.raises(RuntimeError, match="parent fault"):
        _fork.fork_map(fn, range(len(real_cpus)))
    assert os.sched_getaffinity(0) == before


def test_shares_are_placed_from_the_callers_cpu(real_cpus):
    """Share 0 stays on the caller's CPU and share *i* goes *i* CPUs on,
    so callers on different CPUs pin their shares to different ones; from
    the lowest CPU when the caller's is not in the mask."""
    before = os.sched_getaffinity(0)
    top = max(real_cpus) + 2
    try:
        for cpu in real_cpus[:2]:
            os.sched_setaffinity(0, {cpu})
            assert _fork._cpu_order(range(top)) == [*range(cpu, top), *range(cpu)]
            assert _fork._cpu_order({top, cpu + 1}) == [cpu + 1, top]
    finally:
        os.sched_setaffinity(0, before)


def test_shares_are_placed_from_the_lowest_cpu_without_proc(monkeypatch):
    def no_proc(*args):
        raise FileNotFoundError("/proc/thread-self/stat")

    monkeypatch.setattr(_fork, "open", no_proc, raising=False)
    assert _fork._cpu_order({7, 3, 5}) == [3, 5, 7]


def test_a_failed_pin_changes_no_result(fork_calls, monkeypatch):
    """A CPU the kernel will not pin to (outside the cpuset, or faked)
    leaves the share where it is: every result, and which process computed
    it, is as with every pin granted."""
    pins = []

    def refuse(pid, cpus):
        pins.append(set(cpus))
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    got = _fork.fork_map(square_row, range(FORK_CPUS))
    assert got == [(s, s * s, s > 0) for s in range(FORK_CPUS)]
    assert len(fork_calls) == FORK_CPUS - 1
    # this process's pins, to its share's CPU and back; the children's are not seen
    assert len(pins[0]) == 1 and pins[1:] == [set(range(FORK_CPUS))]


@pytest.mark.parametrize("real", [set(range(8)), {0, 1}, {5}])
def test_faked_cpus_restore_the_real_mask(forks_counted, monkeypatch, real):
    """``fake_cpus`` of ``conftest.py`` maps ``fork_map``'s restore of the
    four faked CPUs onto the real mask, whether that has more CPUs than
    four, fewer, or none of them; so ``fork_calls`` tests leave this
    process's affinity as it was on any host."""
    pins = []
    fake_cpus(monkeypatch, real, lambda pid, cpus: pins.append(set(cpus)))
    assert _fork.fork_map(square_row, range(FORK_CPUS)) == [
        (s, s * s, s > 0) for s in range(FORK_CPUS)
    ]
    assert pins[-1] == real


def test_cpus_counts_usable_cpus(fork_calls):
    assert _fork.cpus() == FORK_CPUS


def test_cpus_is_one_while_another_python_thread_runs(fork_calls):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _fork.cpus() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_cpus_is_one_without_os_fork(fork_calls, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _fork.cpus() == 1


def parse_job(nbytes):
    """A plain-table parse of ``nbytes`` of text."""
    size = nbytes - len("object,x\n") - len("o,1\n")
    text = "object,x\n" + "o" + "x" * (size % 4) + ",1\n" + "o,1\n" * (size // 4)
    assert len(text) == nbytes
    parse_plain(text, (IndicatorSpec("x", Direction.POSITIVE),))


def restarts_job(nbytes):
    """k-means restarts whose distance blocks, 8 * k * M * restarts bytes,
    come to ``nbytes``."""
    k, restarts = 7, 50
    m = nbytes // (8 * k * restarts)
    assert 8 * k * m * restarts == nbytes
    kmeans(np.random.default_rng(0).normal(size=(m, 2)), k, seed=0, restarts=restarts)


@pytest.mark.parametrize("job", [parse_job, restarts_job], ids=["parse", "restarts"])
@pytest.mark.parametrize("short", [0, 1], ids=["at-the-gate", "one-byte-below"])
def test_a_job_forks_once_its_bytes_reach_the_gate(fork_calls, monkeypatch, job, short):
    """One rule for both jobs: a job that sweeps ``FORK_MIN_BYTES`` runs in
    one process per usable CPU; one byte short of the gate, it runs in the
    caller.  The gate is raised by a byte rather than the job shrunk,
    since the restarts' size is a multiple of 8."""
    nbytes = _fork.FORK_MIN_BYTES
    decide_only(monkeypatch)
    monkeypatch.setattr(_fork, "FORK_MIN_BYTES", nbytes + short)
    with pytest.raises(ForkDecided) as decided:
        job(nbytes)
    assert decided.value.args == (1 if short else FORK_CPUS,)


ASSIGN = """
import json, os, sys
import relarm.cli
from relarm import _fork

_fork.FORK_MIN_BYTES = float(sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(None) or real_fork()
code = relarm.cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"code": code, "forks": len(forks), "child_left": left}))
"""


def test_unpinned_assign_forks_to_the_serial_bytes(tmp_path, data_dir):
    """``relarm assign`` in a fresh interpreter with no BLAS thread pin, so
    that the BLAS pool may run when the parse forks: the forced fork gives
    the serial run's bytes and leaves no child."""
    from relarm.cli import main

    data = data_dir / "country_raw.csv"
    assert main(["fit", "--config", str(data_dir / "country_config.json"),
                 "--data", str(data), "--out-dir", str(tmp_path)]) == 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(_fork.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    ratings = {}
    for gate in ("-inf", "inf"):
        out = tmp_path / gate
        proc = subprocess.run(
            [sys.executable, "-c", ASSIGN, gate, "assign",
             "--snapshot", str(tmp_path / "snapshot.json"), "--data", str(data),
             "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"code": 0, "forks": 1 if gate == "-inf" else 0, "child_left": False}
        ratings[gate] = (out / "ratings.csv").read_bytes()
    assert ratings["-inf"] == ratings["inf"]
