"""One workload's timed loop, run by ``run.py`` in a fresh process.

A closed loop with one client: each operation is one in-process
``relarm.cli.main([...])`` call on the generated files, and the next starts
when the previous one has finished and its outputs have been checked.  A
warm-up operation runs first and is not timed.  A slice of fixed work
(``hostspeed.Slice``) is timed before the first operation and after each
one, and ``wall_s`` is the mean operation time scaled by the slices to the
reference host speed.  With ``--trace 1`` every timed operation is traced,
and the tracer's own cost is measured apart (``spans.span_cost``).  The
worker writes its metrics to ``<work>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import spans

FIT_WORKLOADS = ("fit_tall", "fit_wide")


def environment() -> dict:
    """numpy, BLAS and machine facts of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": None,
        "blas_threads": None,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }
    # ask the OpenBLAS numpy actually loaded how many threads it uses
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                env["blas_threads"] = int(get_threads())
                env["blas_runtime"] = get_config().decode()
                return env
    return env


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.reader(fh)


def read_objects(data_csv: Path) -> list[str]:
    rows = _rows(data_csv)
    next(rows)
    return [r[0] for r in rows]


def check_outputs(ratings_csv: Path, snapshot_json: Path, objects, n: int, labels):
    """Check one operation's outputs; return (summary, errors).

    The checks hold for any seed: every object is rated, clusters map to
    categories one to one in order of descending projection, d <= N, and
    each rating row agrees with the snapshot.
    """
    errors = []
    snap = json.loads(snapshot_json.read_text(encoding="utf-8"))
    cats = snap["clusters"]["categories"]
    projs = snap["clusters"]["projections"]
    d = snap["model"]["d"]
    k = len(labels)
    if len(cats) != k or sorted(cats) != sorted(labels):
        errors.append(f"cluster -> category is not a bijection onto the labels: {cats}")
    elif [cats[q] for q in sorted(range(k), key=lambda q: (-projs[q], q))] != list(labels):
        errors.append("categories are not ordered by descending projection")
    if not 1 <= d <= n:
        errors.append(f"d={d} outside 1..N={n}")
    if len(snap["model"]["Lambda"]) != d or any(len(c) != d for c in snap["clusters"]["centers"]):
        errors.append("Lambda or centers do not have d entries")

    digest = hashlib.sha256()
    rows = _rows(ratings_csv)
    if next(rows, None) != ["object", "cluster", "projection", "category"]:
        errors.append("ratings.csv header")
    count = 0
    for count, (row, obj) in enumerate(zip(rows, objects), start=1):
        q = int(row[1])
        if row[0] != obj:
            errors.append(f"row {count}: object {row[0]!r}, expected {obj!r}")
            break
        if not 1 <= q <= k or row[3] != cats[q - 1] or float(row[2]) != projs[q - 1]:
            errors.append(f"row {count}: {row} disagrees with the snapshot")
            break
        digest.update(f"{row[0]},{row[1]},{row[3]}\n".encode())
    else:
        if count != len(objects) or next(rows, None) is not None:
            errors.append(f"{count} rating rows for {len(objects)} objects")
    summary = {"d": d, "ratings_sha256": digest.hexdigest(), "projections": projs}
    return summary, errors


def compare_reference(summary: dict, ref: dict) -> list[str]:
    """Exact match of categories, cluster ids and d; projections to 1e-9."""
    errors = []
    if summary["d"] != ref["d"]:
        errors.append(f"reference: d={summary['d']}, expected {ref['d']}")
    if summary["ratings_sha256"] != ref["ratings_sha256"]:
        errors.append("reference: objects, cluster ids or categories differ")
    got, want = summary["projections"], ref["projections"]
    if len(got) != len(want) or any(
        abs(g - w) > 1e-9 * abs(w) for g, w in zip(got, want)
    ):
        errors.append(f"reference: projections {got} differ from {want}")
    return errors


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _tmp_files(tmpdir: Path) -> set[str]:
    return {p.name for p in tmpdir.glob("tmp*.json")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--snapshot", type=Path, help="fitted snapshot (assign_bulk)")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reference", required=True, help="JSON of the expected outputs summary")
    args = p.parse_args(argv)

    import relarm.cli

    tracer = spans.Tracer() if args.trace else None
    env = environment()
    w = args.workload
    fit = w in FIT_WORKLOADS
    cfg_path = args.inputs / (w if fit else "fit_tall") / "config.json"
    data = args.inputs / w / "data.csv"
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    labels, n = cfg["labels"], len(cfg["indicators"])
    objects = read_objects(data)
    out = args.work / "out"
    snapshot = out / "snapshot.json" if fit else args.snapshot
    if fit:
        argv_op = ["run", "--config", str(cfg_path), "--data", str(data), "--out-dir", str(out)]
    else:
        argv_op = ["assign", "--snapshot", str(snapshot), "--data", str(data), "--out-dir", str(out)]
    tmpdir = Path(os.environ["TMPDIR"])

    ops = []
    errors: list[str] = []
    summaries = set()
    summary = None
    trees = []

    def operation(traced: bool) -> dict:
        nonlocal summary
        shutil.rmtree(out, ignore_errors=True)
        before = _tmp_files(tmpdir)
        if traced:
            tracer.install()
        rc, err = None, None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = relarm.cli.main(argv_op)
        except Exception as exc:  # a raising operation is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        rec = {"wall_s": t1 - t0, "cpu_s": c1 - c0}
        leaked = _tmp_files(tmpdir) - before
        rec["tmp_files_leaked"] = len(leaked)
        for name in leaked:
            (tmpdir / name).unlink()
        if err is None and rc != 0:
            err = f"exit code {rc}"
        if err is None:
            rec["bytes_out"] = _dir_bytes(out)
            summary, bad = check_outputs(out / "ratings.csv", snapshot, objects, n, labels)
            summaries.add(json.dumps(summary, sort_keys=True))
            err = "; ".join(bad) or None
        rec["ok"] = err is None
        if err is not None:
            errors.append(err)
        if traced:
            sp = tracer.take()
            rec["spans"] = len(sp)
            rec["self_s"] = spans.self_times(sp)
            rec["counts"] = {s["name"]: s["counts"] for s in sp if "counts" in s}
            load = [s for s in sp if s["name"] == "dataset.load_dataset"]
            if load:
                rec["load_s"] = sum(s["end"] - s["start"] for s in load)
            trees.append(spans.tree(sp))
        return rec

    host = hostspeed.Slice()
    warm = operation(traced=False)
    deadline = time.perf_counter() + args.seconds
    slices = [host.time()]
    while True:
        ops.append(operation(traced=tracer is not None))
        slices.append(host.time())
        if time.perf_counter() >= deadline:
            break

    run_errors = []
    if len(summaries) > 1:
        run_errors.append("operations on the same inputs gave different outputs")
    if fit and ops[-1]["ok"]:
        # assign of the fit data with the written snapshot must reproduce
        # the run's categories (untimed, once per run)
        again = args.work / "reassign"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = relarm.cli.main(
                ["assign", "--snapshot", str(snapshot), "--data", str(data), "--out-dir", str(again)]
            )
        for p in tmpdir.glob("tmp*.json"):
            p.unlink()
        if rc != 0:
            run_errors.append(f"re-assign exit code {rc}")
        else:
            run_cats = [(r[0], r[3]) for r in _rows(out / "ratings.csv")]
            if [(r[0], r[3]) for r in _rows(again / "ratings.csv")] != run_cats:
                run_errors.append("assign with the written snapshot changes categories")
    if summary is not None:
        run_errors += compare_reference(summary, json.loads(args.reference))

    walls = [o["wall_s"] for o in ops if o["ok"]] or [o["wall_s"] for o in ops]
    result = {
        "workload": w,
        "environment": env,
        "attempted": 1 + len(ops),
        "failed": sum(not o["ok"] for o in [warm] + ops),
        "errors": errors[:10],
        "run_errors": run_errors,
        "samples": len(walls),
        "wall_s": hostspeed.at_reference_speed(statistics.fmean(walls), slices),
        "wall_s_raw_mean": statistics.fmean(walls),
        "slices_s": slices,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": summary,
        "ops": ops,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, ops, summary)
        result["absent"] = tracer.absent
        result["trees"] = trees
    result["environment"]["loadavg_end"] = os.getloadavg()
    (args.work / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def per_layer(tracer, traced, summary) -> dict:
    """Medians per operation of the traced layers' self times and counts."""

    def med(values):
        return statistics.median(values) if values else 0.0

    m = {}
    for name in tracer.functions:
        m[f"{name}.self_s"] = med([o["self_s"].get(name, 0.0) for o in traced])
    if "dataset.load_dataset" in tracer.functions:
        counts = [o["counts"].get("dataset.load_dataset") for o in traced]
        if all(counts) and all("load_s" in o for o in traced):
            m["dataset.rows_per_s"] = med([c["rows"] / o["load_s"] for c, o in zip(counts, traced)])
            m["dataset.bytes_in"] = med([c["bytes_in"] for c in counts])
    if "clustering.kmeans" in tracer.functions:
        counts = [o["counts"].get("clustering.kmeans") for o in traced]
        if all(counts):
            m["clustering.lloyd_iters"] = med([c["lloyd_iters"] for c in counts])
            m["clustering.restart_s"] = med(
                [o["self_s"]["clustering.kmeans"] / c["restarts"] for c, o in zip(counts, traced)]
            )
        elif not any(counts):  # kmeans exists but this workload never calls it
            m["clustering.lloyd_iters"] = 0
            m["clustering.restart_s"] = 0.0
    if summary is not None:
        m["pca.d"] = summary["d"]
    m["io.bytes_out"] = med([o["bytes_out"] for o in traced if "bytes_out" in o])
    m["cli.cpu_s"] = med([o["cpu_s"] for o in traced])
    m["cli.tmp_files_leaked"] = med([o["tmp_files_leaked"] for o in traced])
    # the tracer's cost per span times the spans of one operation; timing
    # traced against untraced operations would measure only host noise
    m["trace.overhead_s"] = spans.span_cost() * med([o["spans"] for o in traced])
    return m


if __name__ == "__main__":
    sys.exit(main())
