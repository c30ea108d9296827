"""The relarm benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload fit_tall --seed 0 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; paths are taken relative to this file.  The run
generates the workload's inputs from ``--seed`` (``gen.py``), measures
``setup_s`` by starting fresh interpreters, then runs the timed loop in a
fresh worker process (``worker.py``).  BLAS is pinned to one thread.  Each
run owns a temporary directory that it points ``TMPDIR`` at and removes, so
temp files the program leaves behind are counted and never reach the
system's temp directory.  The last line of standard output is the JSON
result; with ``--trace 0`` it holds the end-to-end metrics of
``BENCHMARK.json`` and with ``--trace 1`` the per-layer ones.  Work files go
to ``perfbench/work/<workload>/``; the traced span trees are kept there in
``result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
WORKLOADS = ("fit_tall", "fit_wide", "assign_bulk")
SETUP_REPEATS = 13
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _env(tmpdir: Path | None = None) -> dict:
    # bytecode goes to a cache of the benchmark's own, so every interpreter
    # after the first starts the way an installed package does, whatever
    # the caller's PYTHONDONTWRITEBYTECODE says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


def measure_setup(config: Path, tmpdir: Path, repeats: int, host) -> tuple[list, list]:
    """Wall seconds for a fresh interpreter to import relarm.cli and load
    the workload's config, the cost every CLI invocation pays first; and
    the times of a host-speed slice taken after each start."""
    code = "import sys, relarm.cli; relarm.cli.load_config(sys.argv[1])"
    times, slices = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(config)], env=_env(tmpdir), check=True
        )
        times.append(time.perf_counter() - t0)
        slices.append(host.time())
    return times, slices


def run_one(args, spec: dict) -> int:
    started = time.perf_counter()
    os.environ.update(_env())
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(SRC))
    try:
        import relarm
    except ImportError:
        relarm = None
    origin = getattr(relarm, "__file__", None)
    if origin is None or not Path(origin).resolve().is_relative_to(SRC):
        print(f"error: no relarm source at {SRC} (imported: {origin})", file=sys.stderr)
        return 2
    import gen
    import hostspeed

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    tmpdir = work / "tmp"
    tmpdir.mkdir(parents=True)
    inputs = work / "inputs"
    manifest = gen.generate(args.seed, inputs, [args.workload])
    (work / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--inputs", str(inputs), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.workload == "assign_bulk":
        # the snapshot comes from fit_tall's data, fitted outside the timing
        config = inputs / "fit_tall" / "config.json"
        snap_dir = work / "snapshot"
        subprocess.run(
            [sys.executable, "-m", "relarm.cli", "fit", "--config", str(config),
             "--data", str(inputs / "fit_tall" / "data.csv"), "--out-dir", str(snap_dir)],
            env=_env(tmpdir), stdout=subprocess.DEVNULL, check=True,
        )
        cmd += ["--snapshot", str(snap_dir / "snapshot.json")]
    else:
        config = inputs / args.workload / "config.json"
    ref = json.loads((BENCH / "reference.json").read_text())
    cmd += ["--reference", json.dumps(ref["outputs"][args.workload])]

    # the first start fills the bytecode cache and is not counted; the
    # counted starts are split around the timed loop, so a slow spell of
    # the host does not decide all of them
    host = hostspeed.Slice()
    setup, slices = measure_setup(config, tmpdir, 1 + SETUP_REPEATS // 2, host)
    del setup[0]
    try:
        proc = subprocess.run(
            cmd, env=_env(tmpdir), timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print("error: worker timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    more, more_slices = measure_setup(config, tmpdir, SETUP_REPEATS - len(setup), host)
    setup += more
    slices += more_slices
    res = json.loads((work / "result.json").read_text())
    leftover = sorted(p.name for p in tmpdir.iterdir())
    shutil.rmtree(tmpdir)
    shutil.rmtree(inputs)
    for sub in ("out", "reassign", "snapshot"):
        shutil.rmtree(work / sub, ignore_errors=True)

    env = res["environment"]
    print(
        f"# {args.workload} seed={args.seed}: python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas_runtime'] or env['blas']}, BLAS threads {env['blas_threads']}, "
        f"nproc {env['nproc_usable']}/{env['nproc']}, "
        f"load {env['loadavg'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
    )
    print(f"# inputs sha256: {json.dumps(manifest['sha256'], sort_keys=True)}")
    for e in res["errors"] + res["run_errors"]:
        print(f"# check failed: {e}")
    if any(e.startswith("reference:") for e in res["run_errors"]):
        r = ref["environment"]
        print(f"# reference.json was made with numpy {r['numpy']}, {r['blas_runtime']}")
    if leftover:
        print(f"# left in TMPDIR after the run: {leftover}")

    e2e = {
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": hostspeed.at_reference_speed(statistics.fmean(setup), slices),
    }
    fail_frac = res["failed"] / res["attempted"]
    print(f"{args.workload} wall_s {e2e['wall_s']:.4f} s at reference host speed (mean of "
          f"{res['samples']} operations; raw {res['wall_s_raw_mean']:.4f} s)")
    print(f"{args.workload} peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"{args.workload} setup_s {e2e['setup_s']:.4f} s at reference host speed (mean of "
          f"{len(setup)} starts; raw {statistics.fmean(setup):.4f} s)")
    print(f"{args.workload} fail_frac {fail_frac:g} ({res['failed']}/{res['attempted']})")

    metrics = {}
    if args.trace:
        layers = res["per_layer"]
        for m in spec["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        self_s = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"{args.workload} {name} {self_s[name]:.6f} s")
        print(f"{args.workload} trace.overhead_s {layers['trace.overhead_s']:.6f} s")
        if absent:
            print(f"# absent (layer no longer exists): {', '.join(absent)}")
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
    correct = res["failed"] == 0 and not res["run_errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in turn, each in its own process; a summary table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
        rows.append((w, res))
    if not args.trace:
        print(f"{'workload':<12} {'wall_s (s)':>10} {'peak_rss_mb (MB)':>17} "
              f"{'setup_s (s)':>11} {'fail_frac':>9}")
        for w, res in rows:
            m = res["metrics"]
            print(f"{w:<12} {m['wall_s']['value']:>10.4f} {m['peak_rss_mb']['value']:>17.1f} "
                  f"{m['setup_s']['value']:>11.4f} {res['failed'] / res['attempted']:>9g}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
