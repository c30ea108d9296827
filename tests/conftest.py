import csv
import os
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
