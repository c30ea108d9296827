"""Regenerate ``reference.json``: the expected outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload briefly with ``run.py`` (seed 0) and records the outputs
summary the worker checked (d, a digest of every object's cluster id and
category, the cluster projections) and the numpy and BLAS build it was made
with.  The seed does not change the outputs (see ``gen.FIT``), so ``run.py``
compares every run against this file, exactly for categories, cluster ids
and d and to 1e-9 relative for projections, on any build; the recorded
build is only named when that check fails.  Regenerate it only when a
change is meant to alter the program's outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH, WORK, WORKLOADS

SEED = 0


def main() -> int:
    ref = {"environment": None, "outputs": {}}
    for w in WORKLOADS:
        subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(SEED),
             "--seconds", "1"],
            stdout=subprocess.DEVNULL, check=True,
        )
        res = json.loads((WORK / w / "result.json").read_text())
        env = {k: res["environment"][k] for k in ("numpy", "blas_runtime")}
        if ref["environment"] not in (None, env):
            raise SystemExit("workloads ran on different numpy/BLAS builds")
        ref["environment"] = env
        ref["outputs"][w] = res["summary"]
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
