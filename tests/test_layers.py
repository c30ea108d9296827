"""The benchmark's traced layers still exist.

``perfbench/spans.py`` traces each ``(module, function)`` of its
``LAYERS`` and silently reports a function it cannot resolve as absent,
which drops that layer's metric.  This test loads the module read-only
and fails instead, so a refactor that renames or removes a traced
function, or changes what a probe reads, is caught before a benchmark
run.  The layer names are also checked against ``BENCHMARK.json``, the
declared metric list, so the contract holds even where ``LAYERS`` is
edited.
"""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

from relarm.clustering import kmeans
from relarm.dataset import load_dataset

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _spans():
    # executed from its source text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_layer_resolves():
    spans = _spans()
    tracer = spans.Tracer()
    assert tracer.absent == []
    assert len(tracer.functions) == len(spans.LAYERS)


def test_every_declared_self_time_resolves():
    names = [
        m["name"][: -len(".self_s")]
        for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
        if m["name"].endswith(".self_s")
    ]
    assert names
    for name in names:
        module, function = name.split(".")
        assert callable(
            getattr(importlib.import_module(f"relarm.{module}"), function, None)
        ), f"relarm.{name} does not resolve"


def test_probes_read_real_results(data_dir, country_config):
    spans = _spans()
    path = data_dir / "country_raw.csv"
    args = (path, country_config.indicators)
    counts = spans.PROBES["dataset.load_dataset"](args, load_dataset(*args))
    assert counts == {"rows": 30, "bytes_in": path.stat().st_size}

    points = ((0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0))
    result = kmeans(points, k=2, seed=0, restarts=3)
    counts = spans.PROBES["clustering.kmeans"]((points,), result)
    assert counts == {"lloyd_iters": len(result.sse_history), "restarts": 3}
    assert counts["lloyd_iters"] >= 1
