"""Span tracing of relarm's layers from outside the program.

Each traced function is replaced, while a :class:`Tracer` is installed, at
every ``relarm`` module attribute that refers to it, so a call through the
name its caller looks up (``relarm.pipeline.kmeans``, ``relarm.pca.jacobi_eigh``,
``relarm.cli.load_dataset``) records a span: name, start, end and parent.
A function that no longer exists is reported as absent, so a later change
may delete or move one without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

PACKAGE = "relarm"

# (module, function) of every traced layer; the span and metric name is
# "<module>.<function>".
LAYERS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("dataset", "load_dataset"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "build_snapshot"),
    ("normalize", "normalize_dataset"),
    ("pca", "fit_pca"),
    ("pca", "jacobi_eigh"),
    ("attributes", "map_to_feature_space"),
    ("clustering", "kmeans"),
    ("rating", "assign_ratings"),
    ("snapshot", "save_snapshot"),
    ("snapshot", "load_snapshot"),
    ("snapshot", "score_with_snapshot"),
    ("snapshot", "normalize_with_snapshot"),
    ("io", "write_ratings_csv"),
)


def _load_probe(args, result) -> dict:
    return {"rows": result.n_objects, "bytes_in": os.path.getsize(args[0])}


def _kmeans_probe(args, result) -> dict:
    return {"lloyd_iters": len(result.sse_history), "restarts": result.restarts_used}


# Counts taken from a layer's arguments and result right after the call, so
# the span keeps no reference to the (possibly large) objects themselves.
PROBES = {
    "dataset.load_dataset": _load_probe,
    "clustering.kmeans": _kmeans_probe,
}


class Tracer:
    """Records spans of the layers in :data:`LAYERS` between
    :meth:`install` and :meth:`uninstall`."""

    def __init__(self) -> None:
        self.functions = {}
        self.absent = []
        for mod, fn in LAYERS:
            name = f"{mod}.{fn}"
            try:
                obj = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self.functions[name] = obj
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, fn in self.functions.items():
            wrapper = self._wrap(name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def take(self) -> list[dict]:
        """Return the spans recorded since the last call and forget them."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                try:
                    span["counts"] = probe(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # the layer's signature changed; its counts go absent
            return result

        return traced


def span_cost() -> float:
    """Seconds that recording one span adds to the call it wraps: a wrapped
    no-op's time minus the bare no-op's, per call, median of five rounds."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    calls, costs = 20_000, []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.take()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer, the summed span time not covered by its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
    return out


def tree(spans: list[dict]) -> list[dict]:
    """Spans relative to the first one's start, for writing out."""
    t0 = spans[0]["start"] if spans else 0.0
    return [
        {
            "name": s["name"],
            "parent": s["parent"],
            "start_s": s["start"] - t0,
            "end_s": s["end"] - t0,
            **({"counts": s["counts"]} if "counts" in s else {}),
        }
        for s in spans
    ]
