import csv
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from relarm.config import load_config
from relarm.dataset import load_dataset
from relarm.pipeline import run_pipeline

DATA = Path(__file__).resolve().parents[1] / "src" / "relarm" / "data"

# every run: no per-example deadline, since a busy machine's pauses are
# not failures, and a failing example printed as a blob that
# ``@reproduce_failure`` replays
settings.register_profile("relarm", deadline=None, print_blob=True)
settings.load_profile("relarm")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, as a
    forked k-means worker that outlived its call would."""
    yield
    if not hasattr(os, "WNOHANG"):
        return  # no waitpid(-1, ...) to ask with
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children: the only passing outcome
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (status {status})")


FORK_CPUS = 4  # the usable CPUs that ``fork_calls`` reports


@pytest.fixture
def fork_calls(monkeypatch):
    """Let ``relarm._fork`` see :data:`FORK_CPUS` usable CPUs, so forked
    shares run on any POSIX host, and count ``os.fork`` calls: the list
    gets one entry per fork.  A hung fork path fails its test after 60 s
    instead of stalling the suite, and a test that leaves a file
    descriptor open fails."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("no os.fork")

    def expire(signum, frame):
        raise TimeoutError("a forked call did not return within 60 s")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(FORK_CPUS)))
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    fds = sorted(os.listdir("/dev/fd"))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield calls
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    assert sorted(os.listdir("/dev/fd")) == fds, "a file descriptor was left open"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def country_config():
    return load_config(DATA / "country_config.json")


@pytest.fixture(scope="session")
def country_dataset():
    return load_dataset(DATA / "country_raw.csv", DATA / "country_config.json")


@pytest.fixture(scope="session")
def country_run(country_config, country_dataset):
    return run_pipeline(country_config, country_dataset)


def read_matrix(path, skip_cols=1):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in r[skip_cols:]] for r in rows[1:]])


@pytest.fixture(scope="session")
def table4_matrix():
    return read_matrix(DATA / "table4_normalized.csv")


@pytest.fixture(scope="session")
def table5_w():
    return read_matrix(DATA / "table5_w.csv", skip_cols=0)


@pytest.fixture(scope="session")
def table6_lambda():
    return read_matrix(DATA / "table6_lambda.csv", skip_cols=0).ravel()


@pytest.fixture(scope="session")
def table7_centers():
    return read_matrix(DATA / "table7_centers.csv")
