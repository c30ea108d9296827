"""Metamorphic invariance of ``relarm run``.

Min-max normalization undoes three changes to the input exactly, so each
must leave ``ratings.csv`` byte-identical and the ``model`` and
``clusters`` blocks of ``snapshot.json`` equal:

- every column scaled by its own power of two, 2^e with e in [-20, 20]
  (exact in binary floating point);
- a column's sign flipped together with its declared direction;
- the CSV's columns permuted (the config keeps its order).

The order of the rows is not among them: k-means++ seeding draws objects
by index and the covariance sums in row order, so reordering the objects
may change the clustering.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relarm.cli import main
from relarm.config import load_config
from relarm.dataset import load_dataset

DATA = Path(__file__).resolve().parents[1] / "src" / "relarm" / "data"


def _synthetic():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 5)) * [1, 10, 1e3, 0.1, 7]
    names = ["p", "q", "r", "s", "t"]
    directions = ["positive", "negative", "positive", "negative", "positive"]
    config = {
        "indicators": [{"name": n, "direction": d} for n, d in zip(names, directions)],
        "k": 4, "labels": ["A", "B", "C", "D"], "seed": 2, "restarts": 8,
    }
    return config, [f"o{i}" for i in range(len(values))], values


def _country():
    config = json.loads((DATA / "country_config.json").read_text())
    raw = load_dataset(DATA / "country_raw.csv", load_config(DATA / "country_config.json").indicators)
    return config, list(raw.objects), raw.values


INPUTS = {"country": _country(), "synthetic": _synthetic()}


def _run(config, objects, values, order):
    """``relarm run`` on the table written with its columns in ``order``;
    returns ratings.csv and the model and clusters blocks."""
    names = [s["name"] for s in config["indicators"]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = [",".join(["object"] + [names[j] for j in order])]
        for obj, row in zip(objects, values):
            lines.append(",".join([obj] + [repr(float(row[j])) for j in order]))
        (tmp / "data.csv").write_text("\n".join(lines) + "\n")
        (tmp / "config.json").write_text(json.dumps(config))
        code = main([
            "run", "--config", str(tmp / "config.json"), "--data", str(tmp / "data.csv"),
            "--out-dir", str(tmp / "out"),
        ])
        assert code == 0
        snapshot = json.loads((tmp / "out" / "snapshot.json").read_text())
        return (tmp / "out" / "ratings.csv").read_bytes(), snapshot["model"], snapshot["clusters"]


BASELINE = {}


def _baseline(name):
    if name not in BASELINE:
        config, objects, values = INPUTS[name]
        BASELINE[name] = _run(config, objects, values, range(values.shape[1]))
    return BASELINE[name]


@st.composite
def changes(draw, n, kind):
    exps = [0] * n
    flips = []
    order = list(range(n))
    if kind == "scale":
        exps = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    elif kind == "flip":
        flips = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    else:
        order = draw(st.permutations(order))
    return exps, flips, order


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("kind", ["scale", "flip", "permute"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_run_is_invariant(name, kind, data):
    config, objects, values = INPUTS[name]
    exps, flips, order = data.draw(changes(values.shape[1], kind))
    config = json.loads(json.dumps(config))
    values = values * np.exp2(exps)
    for j in flips:
        values[:, j] = -values[:, j]
        spec = config["indicators"][j]
        spec["direction"] = "negative" if spec["direction"] == "positive" else "positive"
    assert _run(config, objects, values, order) == _baseline(name)
